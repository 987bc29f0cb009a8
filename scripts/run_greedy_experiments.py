#!/usr/bin/env python3
"""Greedy mixed-LP solver sweeps: boost counts and phase counts against
their audit budgets, certified-jump attempts, accepted jumps and boosts per
jump, segment endpoint evaluations per jump attempt, plus the
feasible/infeasible split by density.

Each trial also says why its single boosts were not jumps:
- ``pre_attempt_singles``: boosts a run made before its first jump attempt
  (its first 24 singles, or all of a shorter run);
- ``cap_refusals``: attempts that ``_segment_cap`` refused (b_hi < 16,
  because the increment or the active set is about to change);
- ``certify_refusals``: attempts whose segment search certified nothing;
- ``backoff_skipped``: singles after a run's first attempt that the
  back-off made without an attempt before them.

The script counts all of these, and the calls of the ``parts`` function
that ``GreedyState._segment_profile`` returns (endpoint evaluations), by
wrapping solver methods, so the solver carries no counter for them.

    PYTHONPATH=src python scripts/run_greedy_experiments.py --trials 5 --seed 1
"""
import argparse
import json
import math
import sys

import numpy as np

from pclp.generate import random_positive, relaxing_stream_positive
from pclp.greedy import GreedyState, solve_static_positive

COUNTS = dict.fromkeys(["endpoints", "pre_attempt_singles", "cap_refusals", "backoff_skipped"], 0)
# the boost run the wrappers last saw, whether it has tried a jump yet, and
# whether its last step was an attempt
RUN = {"serial": None, "tried": False, "after_try": False}


def _enter_run(state):
    if RUN["serial"] != state._run:
        RUN.update(serial=state._run, tried=False, after_try=False)


def _counting_profile(profile):
    def wrapped(self, k, delta):
        parts = profile(self, k, delta)

        def counted(b):
            COUNTS["endpoints"] += 1
            return parts(b)

        return counted

    return wrapped


def _counting_cap(cap):
    def wrapped(self, k, delta):
        b_hi = cap(self, k, delta)
        COUNTS["cap_refusals"] += not b_hi >= 16
        return b_hi

    return wrapped


def _counting_try(try_jump):
    def wrapped(self, k, delta):
        _enter_run(self)
        RUN.update(tried=True, after_try=True)
        return try_jump(self, k, delta)

    return wrapped


def _counting_boost(boost_once):
    def wrapped(self, k, delta):
        _enter_run(self)
        if not RUN["tried"]:
            COUNTS["pre_attempt_singles"] += 1
        elif not RUN["after_try"]:
            COUNTS["backoff_skipped"] += 1
        RUN["after_try"] = False
        return boost_once(self, k, delta)

    return wrapped


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--mp", type=int, default=4)
    ap.add_argument("--mc", type=int, default=4)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--density", type=float, default=0.7)
    ap.add_argument("--relax-tau", type=int, default=0,
                    help="follow the static solve with a relaxing stream")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    GreedyState._segment_profile = _counting_profile(GreedyState._segment_profile)
    GreedyState._segment_cap = _counting_cap(GreedyState._segment_cap)
    GreedyState._try_jump = _counting_try(GreedyState._try_jump)
    GreedyState._boost_once = _counting_boost(GreedyState._boost_once)
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        COUNTS.update(dict.fromkeys(COUNTS, 0))
        RUN.update(serial=None)  # a new state numbers its runs from 1 again
        inst = random_positive(rng, args.mp, args.mc, args.n, density=args.density)
        outcome, state = solve_static_positive(inst)
        if args.relax_tau and not state.solved:
            for ev in relaxing_stream_positive(rng, inst, args.relax_tau):
                if state.solved:
                    break
                if ev.target == "P" and inst.P.get(ev.row, ev.col) > ev.value:
                    state.relax_packing_entry(ev.row, ev.col, ev.value)
                elif ev.target == "C" and inst.C.get(ev.row, ev.col) < ev.value:
                    state.relax_covering_entry(ev.row, ev.col, ev.value)
                elif ev.target == "a":
                    state.translate_packing_rhs(ev.col, ev.value)
                elif ev.target == "b":
                    state.translate_covering_rhs(ev.row, ev.value)
            outcome = state.current_outcome()
        logn = math.log(args.mp + args.mc + inst.U / inst.L)
        print(json.dumps({
            "trial": trial,
            "outcome": outcome.tag.value,
            "boosts": state.stats.boosts_total,
            "max_coord_boosts": max(state.boosts),
            "boost_budget": round(64 * logn ** 2 / inst.eps ** 2),
            "phases": state.stats.phases,
            "jump_attempts": state.stats.jump_attempts,
            "jumps": state.stats.jumps,
            "boosts_per_jump": (round(state.stats.jump_boosts / state.stats.jumps, 1)
                                if state.stats.jumps else 0.0),
            "endpoints_per_attempt": (round(COUNTS["endpoints"] / state.stats.jump_attempts, 3)
                                      if state.stats.jump_attempts else 0.0),
            "pre_attempt_singles": COUNTS["pre_attempt_singles"],
            "cap_refusals": COUNTS["cap_refusals"],
            "certify_refusals": state.stats.jump_attempts - state.stats.jumps,
            "backoff_skipped": COUNTS["backoff_skipped"],
            "weight_refreshes": state.stats.weight_refreshes,
            "heap_readjusts": state.stats.heap_readjusts,
            "translations": state.stats.translations_applied,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
