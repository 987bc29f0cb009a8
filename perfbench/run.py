#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload standard_form --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory. Each workload is a closed loop with one client and one
thread. ``--seconds`` fixes how many rounds run (the count is a fixed
function of it, so host speed never changes which operations are measured).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds with every second one traced, and prints the per-layer metrics and
the tracing overhead (traced against untraced rounds of the same run).
``--workload all`` runs every workload, untraced and then traced, each in
its own process, one after another.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {"op_ms.tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, how it is derived; see Harness.per_layer)
PER_LAYER = {
    "formats.parse_ms": ("ms", "setup", "formats.parse"),
    "instances.validate_ms": ("ms", "setup", "instances.validate"),
    "sparse.dot_row_calls": ("count", "count", None),
    "sparse.col_calls": ("count", "count", None),
    "sparse.set_calls": ("count", "count", None),
    "whack_static.solve_ms": ("ms", "round", "whack_static.solve"),
    "whack_static.phases": ("count", "stat", None),
    "whack_static.enforcements": ("count", "stat", None),
    "whack_static.whacks": ("count", "stat", None),
    "streaming.solve_ms": ("ms", "round", "streaming.solve"),
    "streaming.passes": ("count", "stat", None),
    "streaming.rows_read": ("count", "count", None),
    "online.solve_ms": ("ms", "round", "online.solve"),
    "online.phase_transitions": ("count", "stat", None),
    "online.recourse": ("count", "stat", None),
    "packing.solve_ms": ("ms", "round", "packing.solve"),
    "packing.phases": ("count", "stat", None),
    "packing.enforcements": ("count", "stat", None),
    "certificates.check_ms": ("ms", "round", "certificates.check"),
    "whack_dynamic.preprocess_ms": ("ms", "setup", "whack_dynamic.preprocess"),
    "whack_dynamic.update_us.plain": ("us", "call_us", "whack_dynamic.update.plain"),
    "whack_dynamic.update_us.enforce": ("us", "call_us", "whack_dynamic.update.enforce"),
    "whack_dynamic.rebuild_ms": ("ms", "call", "whack_dynamic.update.rebuild"),
    "whack_dynamic.updates.plain": ("count", "calls", "whack_dynamic.update.plain"),
    "whack_dynamic.updates.enforce": ("count", "calls", "whack_dynamic.update.enforce"),
    "whack_dynamic.updates.rebuild": ("count", "calls", "whack_dynamic.update.rebuild"),
    "whack_dynamic.column_touches": ("count", "stat", None),
    "whack_dynamic.enforcements": ("count", "stat", None),
    "whack_dynamic.phases": ("count", "stat", None),
    "reductions.static_ms": ("ms", "round", "reductions.static"),
    "reductions.stream_ms": ("ms", "round", "reductions.stream"),
    "reductions.online_ms": ("ms", "round", "reductions.online"),
    "reductions.probes": ("count", "stat", None),
    "reductions.probe_ms": ("ms", "call", "reductions.probe"),
    "reductions.instance_for_ms": ("ms", "call", "reductions.instance_for"),
    "reductions.stream_physical_passes": ("count", "stat", None),
    "reductions.online_recourse": ("count", "stat", None),
    "greedy.static_ms": ("ms", "round", "greedy.static"),
    "greedy.relax_ms": ("ms", "round", "greedy.relax"),
    "greedy.boosts": ("count", "stat", None),
    "greedy.phases": ("count", "stat", None),
    "greedy.weight_refreshes": ("count", "stat", None),
    "greedy.wstar_refreshes": ("count", "stat", None),
    "greedy.heap_readjusts": ("count", "stat", None),
    "greedy.translations_applied": ("count", "stat", None),
    "host.calib_ms": ("ms", "calib", None),
    "trace.overhead_pct": ("%", "overhead", None),
}


def calibration_loop() -> int:
    """Fixed pure-Python reference work (about 2 ms on a 2-core x86 VM); its time
    tracks host speed."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Harness:
    """One run over a workload's rounds: times set-ups and operations, runs
    the output checks outside the timed region, and keeps the counts.

    With a tracer, every set-up is traced and the rounds alternate between
    untraced and traced (wrappers installed for the round), so the tracing
    overhead is measured in one run, on interleaved rounds, and host drift
    hits both sides alike."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.setup_s: list[float] = []
        self.op_s: list[float] = []          # completed operations, untraced
        self.traced_op_s: list[float] = []   # completed operations, traced
        self.calib_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []       # failed operations, first few kept
        self.run_problems: list[str] = []   # checks outside any operation
        self.stats: dict[str, float] = {}
        self.rounds = 0
        self.traced_rounds = 0
        self._first_signatures: dict = {}

    @contextmanager
    def _traced(self, on: bool):
        if on:
            self.tracer.install()
            self.tracing = True
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()
                self.tracing = False

    @contextmanager
    def round(self):
        """One round; in a traced run, every second round is traced."""
        traced = self.tracer is not None and self.rounds % 2 == 1
        with self._traced(traced):
            yield
        self.rounds += 1
        self.traced_rounds += traced

    def setup(self, fn):
        with self._traced(self.tracer is not None and not self.tracing):
            if self.tracer is not None:
                self.tracer.op = -2 - len(self.setup_s)
            t0 = time.perf_counter()
            result = fn()
            self.setup_s.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.op = -1
        return result

    def op(self, fn, check):
        """Time one operation; a raise or a failed check counts it failed."""
        op_id = self.attempted
        self.attempted += 1
        tracer = self.tracer if self.tracing else None
        if tracer is not None:
            tracer.op = op_id
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the loop must go on; the failure is counted and shown
            self._fail(f"op {op_id} raised:\n{traceback.format_exc()}")
            result = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
            tracer.op = -1
        if result is None:
            return None
        problems = check(result, self)
        if problems:
            self._fail(f"op {op_id}: " + "; ".join(problems))
            return None
        (self.op_s if tracer is None else self.traced_op_s).append(t1 - t0)
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def run_check(self, problems: list[str]) -> None:
        self.run_problems += problems

    def repeatable(self, signature, key=0) -> list[str]:
        """Every round of a workload repeats the same work on the same input
        (``key`` names the input where a workload has several), so its
        outputs must repeat exactly."""
        first = self._first_signatures.setdefault(key, signature)
        return [] if signature == first else ["output differs from the first round on the same input"]

    def add(self, name: str, value: float) -> None:
        self.stats[name] = self.stats.get(name, 0) + value

    def span(self, name: str):
        return self.tracer.span(name) if self.tracing else nullcontext()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.calib_ms.append((time.perf_counter() - t0) * 1e3)

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        ops = sorted(self.op_s)
        return {
            # the highest percentile with ten samples beyond it (every
            # workload runs at least 40 operations). The host's speed drifts
            # by up to 2x in spells of seconds to minutes, and nearly every
            # run holds a slow spell, so the tail repeats from run to run
            # where the median, the mean and the fastest operation do not.
            "op_ms.tail": ops[max(0, len(ops) - 11)] * 1e3,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        """Counts are per round (one operation, or one dynamic replay): kernel
        counts and span counts per traced round, solver statistics per round.
        Span times are the median per traced operation, per set-up or per
        call."""
        tr = self.tracer
        traced_rounds = max(1, self.traced_rounds)
        op_ids = sorted({op for n, _, _, _, op in tr.spans if n == "op"})
        setup_ids = sorted({op for _, _, _, _, op in tr.spans if op <= -2})

        def median(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for name, (_, how, span) in PER_LAYER.items():
            if how == "count":
                value = tr.counts.get(name, 0) / traced_rounds
            elif how == "stat":
                value = self.stats.get(name, 0) / max(1, self.rounds)
            elif how == "calls":
                value = len(tr.durations(span)) / traced_rounds
            elif how == "call":
                value = median(tr.durations(span)) * 1e3
            elif how == "call_us":
                value = median(tr.durations(span)) * 1e6
            elif how == "round":
                per = tr.per_op(span)
                value = median([per.get(op, 0.0) for op in op_ids]) * 1e3 if per else 0.0
            elif how == "setup":
                per = tr.per_op(span)
                value = median([per.get(op, 0.0) for op in setup_ids]) * 1e3 if per else 0.0
            elif how == "calib":
                value = median(self.calib_ms)
            else:  # overhead: traced against untraced operations of this run
                value = (statistics.median(self.traced_op_s)
                         / statistics.median(self.op_s) - 1.0) * 100.0
            out[name] = value
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    where = OUT / f"inputs-{name}-{os.getpid()}"
    where.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, where, seconds)
        h = Harness(tracing.Tracer() if trace else None)
        workload.run(h)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    for problem in h.run_problems + h.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    if not h.op_s or (trace and not h.traced_op_s):
        print(f"{name}: {h.failed} of {h.attempted} operations failed; no metric to report",
              file=sys.stderr)
        return None
    if trace:
        h.tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in h.per_layer().items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in h.end_to_end().items()}
    # a failed operation is a wrong answer (or a raise), and its time is left
    # out of the metrics, so the run as a whole is not correct
    return {"correct": not h.run_problems and h.failed == 0, "attempted": h.attempted,
            "failed": h.failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                code = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
            code |= 0 if result["correct"] else 1
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["standard_form", "dynamic_updates", "general_lp", "mixed_positive",
                             "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # one BLAS thread (numpy is not imported yet): the loop has one client
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "pclp" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'pclp'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
