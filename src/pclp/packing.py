"""Packing-side solver: decreasing weights against violated rows.

The plain T-round template is ``whack_static.solve_basic`` at sign -1,
kept as the reference. ``solve_packing_fast`` runs the one phase kernel
(``whack_static.run_phases``) on a ``PackingState``, the covering state with
every inequality flipped: its rate sign -1 turns the kernel's row test
sign dot < sign threshold into dot > (1 + eps/2) W, weights fall by powers
of log1p(-eps vals / lam) found by the shared step search seeded at the
Jensen bound (from this side a lower bound), and a phase breaks once the
total falls below (1 - eps/2) W. The kernel settles every packing
enforcement (``_SETTLE_PAST`` is -inf), so the smallest weight is audited
after each one.

The Jensen bound also gives the search its floor (``packing_floor``):
S(d) = sum_j base_j exp(d rate_j) >= dot exp(d bg / dot), with
bg = base . rate < 0, so every d below ln(W / dot) dot / bg keeps the row
above W. With the covering floor's 1e-9 log margin for the float error of
the test, the floor is ceil(q) - 1 for q = (ln(W / dot) + 1e-9) dot / bg,
one below the Jensen guess in all but edge cases, and the search settles
in the one evaluation at the guess unless the row needs a larger power.
The rows are the matrix's own, so their rates, and the powers the search
evaluates on them, are computed once (``StoredRowsState``). Once a weight
falls below 1e-120 the shared exponent is rescaled by the peak. The primal
is reported as x_hat / W, which keeps both the sum and the row bounds
inside the plain (1 +/- eps) band.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .certificates import Outcome
from .instances import PackingInstanceView
from .whack_static import (StoredRowsState, WhackStats, anchor_log_ratio, jensen_guess,
                           powered_step, run_phases)

_RESCALE_BELOW = 1e-120


@dataclass
class PackingStats(WhackStats):
    min_weight: float = math.inf  # smallest true coordinate seen, for underflow audit


def packing_floor(bg: float, dot: float, log_ratio: float, budget: int) -> int:
    """Largest d at which the packing test S(d) <= W is known to fail, 0
    when none is; ``budget`` stands for any floor at or past it.

    By Jensen's inequality S(d) >= dot exp(d bg / dot), so every d with
    d bg / dot > ln(W / dot) + 1e-9 keeps S(d) above W, and the 1e-9 log
    margin covers the float error of the test itself. ``log_ratio`` is
    ``anchor_log_ratio(dot, W)``; the bound is used only when bg < 0, and it
    says nothing unless W < dot."""
    if not bg < 0.0:
        return 0
    q = (log_ratio + 1e-9) * (dot / bg)
    if not q > 1.0:  # also NaN
        return 0
    return budget if q > budget else math.ceil(q) - 1


class PackingState(StoredRowsState):
    """The scan state of the packing template over a matrix's rows."""

    __slots__ = ()

    _RATE_SIGN = -1.0
    _SETTLE_PAST = -math.inf  # every enforcement: the audit reads the smallest weight

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = PackingStats()

    def _anchor(self, W: float) -> None:
        self.W = W
        self.threshold = (1.0 + self.eps / 2.0) * W
        self.floor = (1.0 - self.eps / 2.0) * W
        self.cap = math.inf

    @staticmethod
    def _step(base, rate, g_max, dot, W, budget, powers=None):
        # smallest d with sum_j base_j exp(d rate_j) <= W; Jensen bounds it
        # from below, and every d below the bound is ruled out unevaluated
        log_ratio = anchor_log_ratio(dot, W)
        bg = float(base.dot(rate))
        return powered_step(base, rate, W, operator.le, budget,
                            jensen_guess(bg, dot, log_ratio, budget),
                            packing_floor(bg, dot, log_ratio, budget), powers)

    def _settle(self, total, cols, xh, delta, rate, power) -> float:
        # a weight may underflow to zero here: weights only fall, so it would
        # have kept shrinking, and the audit reads it as e^-745
        x_hat = self.x_hat
        lowest = x_hat.item(x_hat.argmin())  # the reduction answers for NaN and zeros
        if not lowest > 0.0:
            lowest = float(np.minimum.reduce(x_hat))
        low = math.log(lowest) + self.log_scale if lowest > 0.0 else -math.inf
        self.stats.min_weight = min(self.stats.min_weight, math.exp(max(low, -745.0)))
        if lowest < _RESCALE_BELOW:
            self._rescale_by(float(self.x_hat.max()))
            total = float(np.add.reduce(self.x_hat))
        return total

    def budget_outcome(self) -> Outcome:
        return Outcome.covering_dual(np.asarray(self.whack_counts, dtype=float) / float(self.T))

    def primal_outcome(self) -> Outcome:
        return Outcome.packing_primal(self.x_hat / self.W)


def solve_packing_fast(instance: PackingInstanceView) -> tuple[Outcome, PackingStats]:
    """Phase-anchored packing run on the one phase kernel (``WhackState.scan``)."""
    state = PackingState(instance.n, instance.lam, instance.eps, [0] * instance.m)
    return run_phases(state, instance.P), state.stats
