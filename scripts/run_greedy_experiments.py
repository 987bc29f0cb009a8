#!/usr/bin/env python3
"""Greedy mixed-LP solver sweeps: boost counts and phase counts against
their audit budgets, certified-jump attempts, accepted jumps and boosts per
jump, segment endpoint evaluations per jump attempt, plus the
feasible/infeasible split by density.

Endpoint evaluations are the calls of the ``parts`` function that
``GreedyState._segment_profile`` returns; the script counts them by
wrapping that method, so the solver carries no counter for them.

    PYTHONPATH=src python scripts/run_greedy_experiments.py --trials 5 --seed 1
"""
import argparse
import json
import math
import sys

import numpy as np

from pclp.generate import random_positive, relaxing_stream_positive
from pclp.greedy import GreedyState, solve_static_positive

ENDPOINTS = [0]  # parts(b) evaluations since the last reset


def _counting_profile(profile):
    def wrapped(self, k, delta):
        parts = profile(self, k, delta)

        def counted(b):
            ENDPOINTS[0] += 1
            return parts(b)

        return counted

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
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        ENDPOINTS[0] = 0
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
            "endpoints_per_attempt": (round(ENDPOINTS[0] / state.stats.jump_attempts, 3)
                                      if state.stats.jump_attempts else 0.0),
            "weight_refreshes": state.stats.weight_refreshes,
            "heap_readjusts": state.stats.heap_readjusts,
            "translations": state.stats.translations_applied,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
