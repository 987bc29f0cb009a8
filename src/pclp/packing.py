"""Packing-side template: decreasing weights against violated rows.

``solve_packing_basic`` is the plain T-round template, kept as the
reference. ``solve_packing_fast`` runs the one phase scan
(``whack_static.run_phases``) on a ``PackingState``, the covering state with
every inequality flipped: a row is enforced while its dot exceeds
(1 + eps/2) W, weights fall by powers of log1p(-eps vals / lam) found by the
shared step search seeded at the Jensen bound (from this side a lower
bound), and a phase breaks once the total falls below (1 - eps/2) W.

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
from .whack_static import (PreconditionViolated, Step, StoredRowsState, WhackStats,
                           anchor_log_ratio, jensen_guess, powered_step, run_phases,
                           total_rounds)

_RESCALE_BELOW = 1e-120


def whack_packing(instance: PackingInstanceView, i: int, x_hat: np.ndarray) -> np.ndarray:
    """One multiplicative down-weighting of x_hat against packing row i."""
    out = x_hat.copy()
    cols, vals = instance.P.row(i)
    if len(cols):
        out[cols] *= 1.0 - instance.eps * vals / instance.lam
    return out


@dataclass
class PackingStats(WhackStats):
    min_weight: float = math.inf  # smallest true coordinate seen, for underflow audit


def solve_packing_basic(instance: PackingInstanceView,
                        pick=None) -> tuple[Outcome, list[int]]:
    """T-round packing template; whacks rows with (P x)_i > 1."""
    P, lam, eps = instance.P, instance.lam, instance.eps
    n, m = instance.n, instance.m
    T = total_rounds(lam, n, eps)
    x_hat = np.ones(n)
    counts = np.zeros(m, dtype=np.int64)
    sequence: list[int] = []
    for t in range(T):
        x = x_hat / x_hat.sum()
        load = P.matvec(x)
        if np.all(load <= 1.0 + eps):
            return Outcome.packing_primal(x), sequence
        if pick is not None:
            i = pick(load, t)
        else:
            i = int(np.argmax(load > 1.0))
        if not load[i] > 1.0:
            raise PreconditionViolated(f"round {t}: row {i} is not violated")
        cols, vals = P.row(i)
        x_hat[cols] *= 1.0 - eps * vals / lam
        counts[i] += 1
        sequence.append(i)
    return Outcome.covering_dual(counts / float(T)), sequence


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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = PackingStats()

    def _anchor(self, W: float) -> None:
        self.W = W
        self.threshold = (1.0 + self.eps / 2.0) * W
        self.floor = (1.0 - self.eps / 2.0) * W
        self.cap = math.inf

    def visit(self, i: int, cols: np.ndarray, vals: np.ndarray) -> Step | None:
        """Enforce row i if its dot with x_hat exceeds (1 + eps/2) W; a NaN
        dot fails the comparison, so the row is skipped."""
        xh = self.x_hat[cols]
        dot = float(vals.dot(xh))
        if not dot > self.threshold:
            return None
        return self._enforce(i, cols, vals, xh, dot)

    @staticmethod
    def _step(base, rate, g_max, dot, W, budget, powers=None):
        # smallest d with sum_j base_j exp(d rate_j) <= W; Jensen bounds it
        # from below, and every d below the bound is ruled out unevaluated
        log_ratio = anchor_log_ratio(dot, W)
        bg = float(base.dot(rate))
        return powered_step(base, rate, W, operator.le, budget,
                            jensen_guess(bg, dot, log_ratio, budget),
                            packing_floor(bg, dot, log_ratio, budget), powers)

    def _settle(self, cols, xh, delta, rate, power) -> float:
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
        return float(np.add.reduce(self.x_hat))

    def budget_outcome(self) -> Outcome:
        return Outcome.covering_dual(self.whack_counts / float(self.T))

    def primal_outcome(self) -> Outcome:
        return Outcome.packing_primal(self.x_hat / self.W)


def solve_packing_fast(instance: PackingInstanceView) -> tuple[Outcome, PackingStats]:
    """Phase-anchored packing run on the one phase scan (``whack_static.scan``)."""
    state = PackingState(instance.n, instance.lam, instance.eps,
                         np.zeros(instance.m, dtype=np.int64))
    return run_phases(state, instance.P), state.stats
