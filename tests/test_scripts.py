"""Each experiment script runs on tiny arguments and prints JSON lines, so a
script that imports a removed name fails here."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "run_whack_experiments.py": ["--sizes", "5", "--eps", "0.2", "--trials", "1"],
    "run_dynamic_experiments.py": ["--m", "4", "--n", "4", "--tau", "20", "--streams", "1"],
    "run_greedy_experiments.py": ["--trials", "1", "--mp", "2", "--mc", "2", "--n", "2"],
}


def test_every_script_is_run():
    assert sorted(RUNS) == sorted(p.name for p in (ROOT / "scripts").glob("run_*_experiments.py"))


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_prints_json_lines(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(isinstance(json.loads(line), dict) for line in lines)
