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
wrapping solver methods, so the solver carries no counter for them: a
run's singles are read from ``boosts_total - jump_boosts`` around
``_boost_run`` and ``_try_jump``.

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
# the boost run in progress: the singles made before it began, before its
# first jump attempt (None until it makes one), and its refused attempts
RUN = {"began": 0, "first_try": None, "refused": 0}


def _singles(state) -> int:
    """Boosts made outside jumps so far."""
    return state.stats.boosts_total - state.stats.jump_boosts


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
        if RUN["first_try"] is None:
            RUN["first_try"] = _singles(self)
        out = try_jump(self, k, delta)
        RUN["refused"] += not out[0]
        return out

    return wrapped


def _counting_run(boost_run):
    # every refused attempt is followed by one single boost, and no single
    # follows an accepted jump directly, so a run's singles split into those
    # before its first attempt, those after a refusal, and the back-off's
    def wrapped(self, k, stale=None):
        RUN.update(began=_singles(self), first_try=None, refused=0)
        out = boost_run(self, k, stale)
        made = _singles(self) - RUN["began"]
        pre = made if RUN["first_try"] is None else RUN["first_try"] - RUN["began"]
        COUNTS["pre_attempt_singles"] += pre
        COUNTS["backoff_skipped"] += made - pre - RUN["refused"]
        return out

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
    GreedyState._boost_run = _counting_run(GreedyState._boost_run)
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        COUNTS.update(dict.fromkeys(COUNTS, 0))
        inst = random_positive(rng, args.mp, args.mc, args.n, density=args.density)
        outcome, state = solve_static_positive(inst)
        if args.relax_tau and not state.solved:
            for ev in relaxing_stream_positive(rng, inst, args.relax_tau):
                if state.solved:
                    break
                if (ev.target == "P" and not inst.P.get(ev.row, ev.col) > ev.value
                        or ev.target == "C" and not inst.C.get(ev.row, ev.col) < ev.value):
                    continue  # an entry event that does not relax its entry
                state.apply(ev)
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
