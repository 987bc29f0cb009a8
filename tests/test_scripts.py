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


# every line of `run_greedy_experiments.py --trials 3 --seed 1`, as the
# script printed it when its counts were taken by wrapping the single boost;
# the solver's counters and the script's own tallies must not move
GREEDY_LINES = [
    {"trial": 0, "outcome": "infeasible", "boosts": 321, "max_coord_boosts": 321,
     "boost_budget": 15807388, "phases": 2, "jump_attempts": 7, "jumps": 3,
     "boosts_per_jump": 96.0, "endpoints_per_attempt": 2.857, "pre_attempt_singles": 24,
     "cap_refusals": 0, "certify_refusals": 4, "backoff_skipped": 5, "weight_refreshes": 89,
     "heap_readjusts": 0, "translations": 0},
    {"trial": 1, "outcome": "infeasible", "boosts": 947, "max_coord_boosts": 810,
     "boost_budget": 15807388, "phases": 5, "jump_attempts": 20, "jumps": 8,
     "boosts_per_jump": 100.0, "endpoints_per_attempt": 2.6, "pre_attempt_singles": 108,
     "cap_refusals": 0, "certify_refusals": 12, "backoff_skipped": 27,
     "weight_refreshes": 270, "heap_readjusts": 0, "translations": 0},
    {"trial": 2, "outcome": "infeasible", "boosts": 1633, "max_coord_boosts": 1396,
     "boost_budget": 15807388, "phases": 2, "jump_attempts": 16, "jumps": 7,
     "boosts_per_jump": 221.7, "endpoints_per_attempt": 2.75, "pre_attempt_singles": 48,
     "cap_refusals": 0, "certify_refusals": 9, "backoff_skipped": 24,
     "weight_refreshes": 204, "heap_readjusts": 0, "translations": 0},
]


def test_greedy_script_lines_are_pinned():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_greedy_experiments.py"),
                           "--trials", "3", "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == GREEDY_LINES


def test_side_by_side_runs_one_checkout_against_itself():
    # both sides import this checkout's package and benchmark, each its own copy
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "side_by_side.py"),
                           str(ROOT), str(ROOT), "--workload", "general_lp", "--seed", "3",
                           "--seconds", "1", "--pairs", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ")[1] for line in lines[:2]] == ["1/2", "2/2"]
    assert lines[2].startswith("general_lp: 2 pairs")
    assert [line.split()[0] for line in lines[3:]] == ["op_ms.tail", "setup_s"]
