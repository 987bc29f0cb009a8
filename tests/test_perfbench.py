"""Each benchmark workload runs one short round and checks its own outputs:
every `mixed_positive` operation certifies the greedy answer against the
instance it handed to the solver, and the covering workloads check their
certificates, brackets and maintained vectors against the benchmark's own
copy of the data."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def assert_short_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0, last


def test_mixed_positive_workload_is_correct():
    assert_short_run_is_correct("mixed_positive")


@pytest.mark.parametrize("workload", ["standard_form", "dynamic_updates", "general_lp"])
def test_covering_workload_is_correct(workload):
    assert_short_run_is_correct(workload)
