#!/usr/bin/env python3
"""Self-test of the benchmark's input generator.

    python3 perfbench/selftest.py

For every workload and a few seeds, writes the inputs, reads them back
through ``pclp.formats`` and checks that the parsed instances and update
streams hold exactly the arrays the generator wrote; also checks that the
same seed writes byte-identical files. Exits 1 on any difference.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def files(where: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def main() -> int:
    bad = 0
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 2):
            written = []
            for _ in range(2):
                with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                    workload = workloads.build(name, seed, Path(tmp), 2.0)
                    problems = workload.roundtrip(workload.setup())
                    written.append(files(Path(tmp)))
            if written[0] != written[1]:
                problems.append("the same seed wrote different files")
            bad += bool(problems)
            print(f"{name} seed {seed}: {'; '.join(problems) or 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
