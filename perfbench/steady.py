#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs of one commit, compared metric by metric.

    python3 perfbench/steady.py

Every workload of BENCHMARK.json runs for its ``run_seconds``, each run on a
seed of its own (set A takes seeds 1000-1009, set B 1010-1019). For each
workload and end-to-end metric it prints both sets' medians and quartiles,
the spread (interquartile range over median), the shift of set B's median
against set A's, and the metric's bound. A metric passes when each spread is
within its bound and the shift is too, in either direction. ``setup_s`` is
exempt from the spread test (a set-up lasts milliseconds, so its spread
says more about the host than the program), not from the shift test. Every
run must be correct with no failed operation. Raw results go to
perfbench/out/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1000


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw: dict = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, FIRST_SEED + s * RUNS + r, spec["run_seconds"])
                 for r in range(RUNS)] for s in range(SETS)]
        raw[workload] = sets
        runs = [r for one_set in sets for r in one_set]
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        print(f"\n{workload}: correct={correct} failed={sum(r['failed'] for r in runs)}")
        ok &= correct
        print(f"  {'metric':12s} {'set':>3s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'shift':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, one_set in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in one_set]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                medians.append(med)
                shift = medians[1] / medians[0] - 1.0 if len(medians) == 2 else None
                good = ((spread <= bound or name == "setup_s")
                        and (shift is None or abs(shift) <= bound))
                ok &= good
                print(f"  {name:12s} {label:>3s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {'' if shift is None else f'{shift:+7.3f}':>7s} "
                      f"{bound:6.2f}{'' if good else '  <-- outside its bound'}")
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
