"""The benchmark's greedy workload runs one short round and checks its own
outputs: every `mixed_positive` operation certifies the greedy answer
against the instance it handed to the solver."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mixed_positive_workload_is_correct():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mixed_positive",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0, last
