"""Each benchmark workload runs one short round and checks its own outputs:
every `mixed_positive` operation certifies the greedy answer against the
instance it handed to the solver, and the covering workloads check their
certificates, brackets and maintained vectors against the benchmark's own
copy of the data. The traced benchmark wraps program names that only a
traced run reads, so its tracer is installed here too, and one short run
is traced."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def assert_short_run_is_correct(workload, trace=0):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
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


def test_tracer_wraps_and_restores_every_name_it_traces():
    # a name the program renames or removes fails here, not only in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(owner, attr) for owner, attr, _ in tracing.SPANNED + tracing.COUNTED]
    names += [(tracing.DynamicWhackState, "handle_update"), (tracing.StreamCursor, "from_instance")]
    before = [owner.__dict__[attr] for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not old for (owner, attr), old in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is old for (owner, attr), old in zip(names, before))


def test_traced_dynamic_workload_is_correct():
    assert_short_run_is_correct("dynamic_updates", trace=1)
