"""Packing-side template: decreasing weights against violated rows.

The structure mirrors the covering solvers with every inequality flipped:
weights shrink when a row is whacked, a phase closes when the weight total
falls by a (1 - eps/2) factor, and the fast scan enforces rows whose
anchored value exceeds 1 + eps/2. As in the covering scan, a row's dot is
computed from x_hat when the scan reaches it, so an enforcement touches
only the enforced row's support. The enforcement's power comes from the
covering side's seeded step search (``whack_static.first_step``), started
at the Jensen bound (``whack_static.jensen_guess``), which from this side
is a lower bound; the search hands back the power exp(d decay) it evaluated
at its answer (``whack_static.powered_step``), and the enforcement applies
that vector. The fast primal is reported as x_hat / W, which keeps both
the sum and the row bounds inside the plain (1 +/- eps) band.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .certificates import Outcome
from .instances import PackingInstanceView
from .whack_static import PreconditionViolated, jensen_guess, powered_step, total_rounds

_RESCALE_BELOW = 1e-120


def whack_packing(instance: PackingInstanceView, i: int, x_hat: np.ndarray) -> np.ndarray:
    """One multiplicative down-weighting of x_hat against packing row i."""
    out = x_hat.copy()
    cols, vals = instance.P.row(i)
    if len(cols):
        out[cols] *= 1.0 - instance.eps * vals / instance.lam
    return out


@dataclass
class PackingStats:
    phases: int = 0
    enforcements: int = 0
    whacks: int = 0
    outcome: str = ""
    min_weight: float = math.inf  # smallest true coordinate seen, for underflow audit

    def as_dict(self) -> dict:
        return {"phases": self.phases, "enforcements": self.enforcements,
                "whacks": self.whacks, "outcome": self.outcome}


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


def solve_packing_fast(instance: PackingInstanceView) -> tuple[Outcome, PackingStats]:
    """Phase-anchored packing run mirroring the covering implementation."""
    P, lam, eps = instance.P, instance.lam, instance.eps
    n, m = instance.n, instance.m
    T = total_rounds(lam, n, eps)
    x_hat = np.ones(n)
    log_scale = 0.0
    t = 0
    counts = np.zeros(m, dtype=np.int64)
    stats = PackingStats()

    def note_min(lowest: float) -> None:
        low = math.log(lowest) + log_scale if lowest > 0.0 else -math.inf
        stats.min_weight = min(stats.min_weight, math.exp(max(low, -745.0)))

    total = float(n)  # x_hat's sum as of the last enforcement
    while True:
        stats.phases += 1
        W = total
        broke = False
        for i, cols, vals in P.rows():
            xh = x_hat[cols]
            dot = float(vals @ xh)
            if dot > (1.0 + eps / 2.0) * W:
                # smallest d with sum_j base_j exp(d decay_j) <= W; Jensen
                # bounds it from below, so the search gallops up from there
                base = vals * xh
                decay = np.log1p(-eps * vals / lam)
                guess = jensen_guess(base, decay, dot, W, T - t)
                delta, power = powered_step(base, decay, W, operator.le, T - t, guess)
                x_hat[cols] = xh * power
                # a weight may underflow to zero here: weights only fall, so it
                # would have kept shrinking, and note_min reads it as e^-745
                lowest = float(x_hat.min())
                counts[i] += delta
                t += delta
                stats.enforcements += 1
                stats.whacks = t
                note_min(lowest)
                if lowest < _RESCALE_BELOW:
                    peak = float(x_hat.max())
                    x_hat /= peak
                    W /= peak
                    log_scale += math.log(peak)
                if t >= T:
                    stats.outcome = "covering_dual"
                    return Outcome.covering_dual(counts / float(T)), stats
                total = float(x_hat.sum())
                if total < (1.0 - eps / 2.0) * W:
                    broke = True
                    break
        if not broke:
            stats.outcome = "packing_primal"
            return Outcome.packing_primal(x_hat / W), stats
