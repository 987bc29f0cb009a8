#!/usr/bin/env python3
"""Time two checkouts of pclp side by side in one process.

    python3 scripts/side_by_side.py PARENT CHANGE --workload dynamic_updates \\
        --seed 101 --seconds 4 --pairs 16

Each checkout's ``src/pclp`` is imported as a package of its own, and its
``perfbench/workloads.py`` and ``perfbench/run.py`` once, bound to that
package. Each pair then runs the workload's ``Harness`` once per side on the
same seed (``--seed`` plus the pair's number), alternating which side runs
first, so that both sides meet the host's slow spells alike. The script
prints each side's median and quartiles of ``op_ms.tail`` and ``setup_s``
and the pairs' ratios (change over parent); ``peak_rss_mb`` is left out,
since both sides share one process. It exits 1 if either side's checks
report a problem, with the problems on stderr.

Read a paired ratio within about 1% of 1 as no difference: two copies of
one checkout, imported this way and timed on 200 alternated calls of the
``general_lp`` streaming reduction, read 1.3% apart with one copy imported
first and 0.1% apart with the other.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

# one BLAS thread, as perfbench/run.py sets before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: the modules each side imports for itself: the package and perfbench's own
SIDE_MODULES = ("pclp", "workloads", "run", "checks", "gen", "tracing", "steady")
METRICS = ("op_ms.tail", "setup_s")


def _owned(name: str) -> bool:
    return name.split(".")[0] in SIDE_MODULES


def _drop_owned() -> None:
    for name in [k for k in sys.modules if _owned(k)]:
        del sys.modules[name]


class Side:
    """One checkout's package and benchmark modules, imported apart from the other's."""

    def __init__(self, label: str, root: Path):
        self.label = label
        self.root = root.resolve()
        if not (self.root / "src" / "pclp" / "__init__.py").is_file():
            raise SystemExit(f"error: {self.root} holds no src/pclp")
        self.modules = {}
        with self.active():
            paths = [str(self.root / "src"), str(self.root / "perfbench")]
            sys.path[:0] = paths
            try:
                self.run = importlib.import_module("run")
                self.workloads = importlib.import_module("workloads")
            finally:
                del sys.path[:len(paths)]
            self.modules = {k: v for k, v in sys.modules.items() if _owned(k)}
        if not Path(self.modules["pclp"].__file__).resolve().is_relative_to(self.root):
            raise SystemExit(f"error: {label} imported pclp from {self.modules['pclp'].__file__}")

    @contextmanager
    def active(self):
        """This side's modules are the ones imported by name while it is entered."""
        _drop_owned()
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            _drop_owned()

    def measure(self, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
        """One Harness run: the end-to-end metrics and every problem the checks found."""
        with self.active(), tempfile.TemporaryDirectory() as where:
            w = self.workloads.build(workload, seed, Path(where), seconds)
            h = self.run.Harness(None)
            gc.collect()
            w.run(h)
        problems = h.run_problems + h.problems
        if h.failed:
            problems.append(f"{h.failed} of {h.attempted} operations failed")
        return h.end_to_end(), [f"{self.label} seed {seed}: {p}" for p in problems]


def spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{statistics.median(values):10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout measured as the parent")
    ap.add_argument("change", type=Path, help="checkout measured as the change")
    ap.add_argument("--workload", required=True,
                    choices=["standard_form", "dynamic_updates", "general_lp", "mixed_positive"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=4.0, help="perfbench's --seconds per run")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    sides = [Side("parent", args.parent), Side("change", args.change)]
    got: dict[str, dict[str, list[float]]] = {s.label: {m: [] for m in METRICS} for s in sides}
    problems: list[str] = []
    for k in range(args.pairs):
        seed = args.seed + k
        for side in (sides if k % 2 == 0 else sides[::-1]):
            metrics, found = side.measure(args.workload, seed, args.seconds)
            problems += found
            for m in METRICS:
                got[side.label][m].append(metrics[m])
        print(f"pair {k + 1}/{args.pairs} (seed {seed}): " + "  ".join(
            f"{m} {got['parent'][m][-1]:.4g} -> {got['change'][m][-1]:.4g}" for m in METRICS),
            flush=True)
    print(f"{args.workload}: {args.pairs} pairs, median [quartiles], parent -> change")
    for m in METRICS:
        parent, change = got["parent"][m], got["change"][m]
        ratios = [c / p for p, c in zip(parent, change)]
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"  {m:11s} {spread(parent)} -> {spread(change)}   "
              f"ratio {statistics.median(ratios):.3f}, change lower in {lower} of {len(ratios)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
