"""Static covering solvers: the round-by-round template and the phase-based one.

``solve_basic`` follows the plain T-round template and is kept as a slow
reference oracle. ``solve_fast`` is the production path: it anchors the
weight total W per phase, scans constraints in ascending row order, and
enforces a violated constraint by applying the whole multiplicative power
in closed form instead of looping over rounds.

The scan is lazy: a row's dot with x_hat is computed from x_hat at the
moment the scan reaches that row, so no per-row state is kept between
rows and an enforcement touches only the enforced row's support. This is
the same scan ``streaming.run_pass`` makes over a row stream, and it
reaches the same certificate.

Weights are stored as ``x_hat * exp(log_scale)`` with a shared offset so
that the 1-norm can reach n^(1/eps) without overflowing doubles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import Outcome
from .instances import NormalizedCoveringInstance

#: rescale the shared exponent once any weight grows past this
_RESCALE_AT = 1e120


class PreconditionViolated(ValueError):
    pass


def total_rounds(lam: float, n: int, eps: float) -> int:
    """Round budget; n is clamped to 2 so a 1-variable run is not degenerate."""
    return max(1, math.ceil(lam * math.log(max(n, 2)) / (eps * eps)))


def weight_cap(n: int, eps: float) -> float:
    """log of the guaranteed weight bound max(n,2)^(1/eps)."""
    return math.log(max(n, 2)) / eps


def whack(instance: NormalizedCoveringInstance, i: int, x_hat: np.ndarray) -> np.ndarray:
    """One multiplicative reweighting of x_hat against covering row i."""
    out = x_hat.copy()
    cols, vals = instance.C.row(i)
    if len(cols):
        out[cols] *= 1.0 + instance.eps * vals / instance.lam
    return out


def first_step(reaches, budget: int) -> int:
    """Smallest d in [1, budget] with ``reaches(d)``, or ``budget`` when even
    ``reaches(budget)`` fails. ``reaches`` must be monotone in d; the search
    doubles from 1 and evaluates the budget itself only once the doubling
    passes it, then bisects."""
    hi = 1
    while hi < budget and not reaches(hi):
        hi *= 2
    lo = hi // 2  # reaches(lo) fails by the doubling loop (or lo == 0)
    if hi >= budget:
        hi = budget
        if not reaches(hi):
            return budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def row_step_size(vals: np.ndarray, xh: np.ndarray, lam: float, eps: float,
                  W: float, budget: int) -> int:
    """Support-level step size: smallest d in [1, budget] with
    sum_j vals_j (1 + eps vals_j/lam)^d xh_j >= W, capped at ``budget``
    when even the full power falls short (all-zero rows included)."""
    if len(vals) == 0:
        return budget
    base = vals * xh
    growth = np.log1p(eps * vals / lam)
    # d*growth can overflow exp for huge budgets; inf compares correctly
    with np.errstate(over="ignore"):
        return first_step(lambda d: float(base @ np.exp(d * growth)) >= W, budget)


def step_size(instance: NormalizedCoveringInstance, i: int, t: int,
              x_hat: np.ndarray, W: float, T: int) -> int:
    """Smallest whack count d with (C z^d / W)_i >= 1, capped at T - t.

    Touches only row i's nonzeros; doubling search for an upper bracket,
    then bisection.
    """
    if t >= T:
        raise PreconditionViolated(f"no rounds left: t={t} >= T={T}")
    cols, vals = instance.C.row(i)
    xh = x_hat[cols]
    # the same dot the phase scan compares, so a row it enforces passes here
    if len(cols) and float(vals @ xh) >= (1.0 - instance.eps / 2.0) * W:
        raise PreconditionViolated(f"row {i} already near-satisfied")
    return row_step_size(vals, xh, instance.lam, instance.eps, W, T - t)


@dataclass
class WhackStats:
    phases: int = 0
    enforcements: int = 0
    whacks: int = 0
    outcome: str = ""
    max_weight_ratio: float = 0.0  # max over checkpoints of ln|x|_1 / weight cap
    trace: list[tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"phases": self.phases, "enforcements": self.enforcements,
                "whacks": self.whacks, "outcome": self.outcome}


class WhackState:
    """Mutable solver state for the phase-based covering run."""

    __slots__ = ("instance", "m", "n", "x_hat", "log_scale", "W", "t", "T",
                 "whack_counts", "phase_count", "stats", "record_trace")

    def __init__(self, instance: NormalizedCoveringInstance, record_trace: bool = False):
        self.instance = instance
        self.m = instance.m
        self.n = instance.n
        self.x_hat = np.ones(self.n)
        self.log_scale = 0.0
        self.t = 0
        self.T = total_rounds(instance.lam, self.n, instance.eps)
        self.whack_counts = np.zeros(self.m, dtype=np.int64)
        self.W = float(self.n)
        self.phase_count = 0
        self.stats = WhackStats()
        self.record_trace = record_trace

    # -- scale handling ------------------------------------------------------

    def weight_sum(self) -> float:
        return float(self.x_hat.sum())

    def log_weight_sum(self) -> float:
        return math.log(self.weight_sum()) + self.log_scale

    def _maybe_rescale(self) -> None:
        peak = float(self.x_hat.max())
        if peak > _RESCALE_AT:
            self._rescale_by(peak)

    def _rescale_by(self, factor: float) -> None:
        self.x_hat /= factor
        self.W /= factor
        self.log_scale += math.log(factor)

    # -- phase machinery -----------------------------------------------------

    def start_phase(self) -> None:
        self.phase_count += 1
        self.stats.phases = self.phase_count
        self.W = self.weight_sum()
        self._note_weight()

    def _note_weight(self) -> None:
        ratio = self.log_weight_sum() / weight_cap(self.n, self.instance.eps)
        if ratio > self.stats.max_weight_ratio:
            self.stats.max_weight_ratio = ratio

    def phase_exceeded(self) -> bool:
        return self.weight_sum() > self.W / (1.0 - self.instance.eps / 2.0)

    def residual(self, i: int) -> float:
        """(C x_hat)_i / W, computed from the current x_hat."""
        return self.instance.C.dot_row(i, self.x_hat) / self.W

    # -- enforcement ---------------------------------------------------------

    def enforce(self, i: int) -> int:
        """Advance x_hat past row i in one closed-form power; returns the step."""
        inst = self.instance
        delta = step_size(inst, i, self.t, self.x_hat, self.W, self.T)
        cols, vals = inst.C.row(i)
        if len(cols):
            growth = delta * np.log1p(inst.eps * vals / inst.lam)
            peak_log = float((np.log(self.x_hat[cols]) + growth).max())
            if peak_log > 290.0:
                self._rescale_by(math.exp(peak_log - 100.0))
            self.x_hat[cols] *= np.exp(growth)
        self.whack_counts[i] += delta
        self.t += delta
        self.stats.enforcements += 1
        self.stats.whacks = self.t
        if self.record_trace:
            self.stats.trace.append((i, delta))
        self._maybe_rescale()
        self._note_weight()
        return delta

    # -- outcomes --------------------------------------------------------------

    def dual_vector(self) -> np.ndarray:
        return self.whack_counts / float(self.T)

    def primal_vector(self) -> np.ndarray:
        return self.x_hat / self.weight_sum()

    def anchored_primal_vector(self) -> np.ndarray:
        """x_hat / W; sums to at most (1 - eps/2)^-1 within a phase."""
        return self.x_hat / self.W


def solve_fast(instance: NormalizedCoveringInstance,
               record_trace: bool = False) -> tuple[Outcome, WhackStats]:
    state = WhackState(instance, record_trace=record_trace)
    outcome = run_phases(state)
    return outcome, state.stats


def run_phases(state: WhackState) -> Outcome:
    """Drive the phase loop to a certificate; shared with the dynamic solver.

    Each row's dot is computed when the scan reaches it, against the
    phase's anchor W."""
    C, eps = state.instance.C, state.instance.eps
    while True:
        state.start_phase()
        broke = False
        for i in range(state.m):
            if C.dot_row(i, state.x_hat) < (1.0 - eps / 2.0) * state.W:
                state.enforce(i)
                if state.t >= state.T:
                    state.stats.outcome = "packing_dual"
                    return Outcome.packing_dual(state.dual_vector())
                if state.phase_exceeded():
                    broke = True
                    break
        if not broke:
            state.stats.outcome = "covering_primal"
            return Outcome.covering_primal(state.primal_vector())


def solve_basic(instance: NormalizedCoveringInstance,
                pick=None) -> tuple[Outcome, list[int]]:
    """Reference T-round template; one whack per round.

    ``pick(residuals, t)`` overrides the violated-constraint choice (used by
    the synchronized-equivalence tests); the default takes the lowest index
    with residual below one. Returns the outcome and the whack sequence.
    """
    C, lam, eps = instance.C, instance.lam, instance.eps
    n, m = instance.n, instance.m
    T = total_rounds(lam, n, eps)
    x_hat = np.ones(n)
    counts = np.zeros(m, dtype=np.int64)
    sequence: list[int] = []
    for t in range(T):
        x = x_hat / x_hat.sum()
        resid = C.matvec(x)
        if np.all(resid >= 1.0 - eps):
            return Outcome.covering_primal(x), sequence
        if pick is not None:
            i = pick(resid, t)
        else:
            i = int(np.argmax(resid < 1.0))
        if not resid[i] < 1.0:
            raise PreconditionViolated(f"round {t}: row {i} is not violated")
        cols, vals = C.row(i)
        if len(cols):
            x_hat[cols] *= 1.0 + eps * vals / lam
        counts[i] += 1
        sequence.append(i)
    return Outcome.packing_dual(counts / float(T)), sequence
