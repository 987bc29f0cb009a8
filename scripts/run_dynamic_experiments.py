#!/usr/bin/env python3
"""Restricting-update streams against the dynamic covering solver.

Measures per-row enforcement counts against the audit budget, with the
phases and the coordinates enforcements changed, per stream.
"""
import argparse
import json
import sys

import numpy as np

from pclp.generate import random_covering, restricting_stream
from pclp.sparse import UpdateEvent, UpdateKind
from pclp.whack_dynamic import enforcement_budget, preprocess


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--tau", type=int, default=5000)
    ap.add_argument("--streams", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    for stream_no in range(args.streams):
        # a planted full-lambda column keeps preprocessing on the primal side,
        # so the restricting stream actually exercises maintenance
        inst = random_covering(rng, args.m, args.n, eps=args.eps, density=0.5,
                               hot_column=True)
        state, outcome = preprocess(inst)
        applied = 0
        for line in restricting_stream(rng, inst, args.tau, halve=True):
            if state.terminal is not None:
                break
            outcome = state.handle_update(UpdateEvent(
                UpdateKind.RESTRICT_COVERING_ENTRY, line.row, line.col, line.value))
            applied += 1
        print(json.dumps({
            "stream": stream_no,
            "updates": applied,
            "terminal": outcome.tag.value,
            "enforcements": int(state.enforce_log.sum()),
            "max_row_enforcements": int(state.enforce_log.max()),
            "budget": round(enforcement_budget(inst), 1),
            "phases": state.stats.phases,
            "column_touches": state.stats.column_touches,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
