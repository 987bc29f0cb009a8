"""Static covering solvers, and the one phase scan every setting runs.

``solve_basic`` follows the plain T-round template for both signs,
covering and packing, and ``--basic`` runs it; it is kept as a slow
reference oracle. ``solve_fast`` is the production path: it anchors the
weight total W per phase, scans constraints in ascending row order, and
enforces a violated constraint by applying the whole multiplicative power
in closed form instead of looping over rounds. The power is bracketed
from both sides in closed form: Jensen's inequality gives an upper bound
on it (``jensen_guess``), and the row's largest growth rate a lower bound
below which every power is known to fall short (``covering_floor``). Most
enforcements then settle the guess without a search (``covering_step``):
(a) when the floor sits just below the guess and the Jensen bound clears
W by a log margin, no sum is evaluated at all; (b) otherwise the sum at
the guess is evaluated once, and when it holds, the chord of ln S (convex
in the power) from the row's dot to it rules out the power below. The
margin (``settle_margin``) covers the float error of both tests, so every
settled answer is the one the search would return. What is left,
1-5% of the enforcements on the benchmark's inputs, runs ``first_step``,
which gallops from the guess with the same float test it would bisect
with. The search hands back the power exp(d rate) it evaluated at its
answer (``powered_step``), and the enforcement applies that vector. A
stored row's rates log1p(eps vals / lam) are computed once per state
(``StoredRowsState``), and so is each power exp(d rate) the search
evaluates on it: the row keeps a table d -> exp(d rate) of at most one
read-only array per d evaluated on that row, dropped with the rates when
the row's array changes. A streamed row's rates and powers are computed
at each enforcement, so a streamed state stays O(m + n) words, and its
largest rate is taken by ``argmax`` and an index, which cost the same at
any row length (the reduction answers only for NaN and zeros). Every
per-row dot here is ``ndarray.dot``: on 1-D rows ``a @ b`` adds the
matmul gufunc's dispatch and reaches the same BLAS ``ddot``, so it costs
more for the same result. The bits agree but for the sign of a zero from
a one-entry row, which no caller reads: every dot is compared or tested
against zero.

One phase kernel (``WhackState._phases``) tests rows against the anchor,
enforces the violated ones and re-anchors each new phase, for covering and
packing alike, in one method frame: the anchor, band, budget, t and counts
live in its locals, each enforcement is one ``_step`` call, and the
tallies are lists of ints. ``WhackState.scan`` runs the phases of one state
over a row source through it, and ``WhackState.visit`` tests one row on its
own and enters the kernel only when that row is violated. A row's dot with
x_hat is computed when the row is tested, so no row's dot is kept between
tests and an enforcement touches only the enforced row's support. A visit
may take a row source: when the visited row's enforcement breaks the
phase, the kernel anchors the next phase and scans that source as ``scan``
does, in the same frame; a visit without one returns ``Step.BROKE``. The
settings differ only in the rows they feed, in what an outcome means and,
for packing, in the sign:

- static (``solve_fast``) and the dynamic preprocessing (``whack_dynamic``)
  scan the matrix rows in ascending order, and a dynamic update visits the
  row it touched with the matrix rows as its source;
- streaming (``streaming.solve_stream``) scans the cursor's row source,
  one pass per phase;
- online (``online.OnlineState``) visits each arriving row with the rows
  seen so far as its source;
- the streaming reduction (``reductions.solve_general_stream``) visits each
  row of one physical pass once per guess whose phase is still running,
  with no source: a guess whose phase breaks waits for the next pass;
- packing (``packing.solve_packing_fast``) scans the matrix rows in
  ascending order on a state with the signs flipped (``PackingState``).

Weights are stored as ``x_hat * exp(log_scale)`` with a shared offset so
that the 1-norm can reach n^(1/eps) without overflowing doubles.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .certificates import Outcome
from .instances import NormalizedCoveringInstance, PackingInstanceView
from .sparse import SparseNonnegMatrix

#: rescale the shared exponent once any weight grows past this
_RESCALE_AT = 1e120
#: what ndarray.sum calls, without its Python wrapper
_add_reduce = np.add.reduce


class PreconditionViolated(ValueError):
    pass


def total_rounds(lam: float, n: int, eps: float) -> int:
    """Round budget; n is clamped to 2 so a 1-variable run is not degenerate."""
    return max(1, math.ceil(lam * math.log(max(n, 2)) / (eps * eps)))


def weight_cap(n: int, eps: float) -> float:
    """log of the guaranteed weight bound max(n,2)^(1/eps)."""
    return math.log(max(n, 2)) / eps


def anchor_log_ratio(dot: float, W: float) -> float:
    """ln(W / dot), the one logarithm both ends of the step bracket read;
    NaN when W / dot is not positive (no dot, or W on the wrong side of 0),
    which makes every bound below fall back to saying nothing."""
    ratio = W / dot if dot > 0.0 else 0.0
    return math.log(ratio) if ratio > 0.0 else math.nan


def jensen_guess(bg: float, dot: float, log_ratio: float, budget: int) -> int:
    """Closed-form seed for the step search, clamped to [1, budget].

    The search looks for the smallest d at which
    S(d) = sum_j base_j exp(d growth_j) crosses W, where base = vals * xh
    and ``dot`` is the row's dot (sum_j base_j). By Jensen's inequality
    S(d) >= dot * exp(d g), with g = bg / dot the base-weighted mean growth
    (bg = base . growth), so d = ceil(ln(W / dot) * dot / bg) is
    - an upper bound on the answer when the row covers (growth >= 0,
      S rising to W from below): at that d, S(d) >= dot exp(d g) >= W;
    - a lower bound when the row packs (growth < 0, S falling to W from
      above): before that d, S(d) >= dot exp(d g) > W.
    ``log_ratio`` is ``anchor_log_ratio(dot, W)``. Returns 1 when the
    formula says nothing: dot <= 0, bg = 0, or W on the wrong side of dot."""
    if bg == 0.0:
        return 1
    d = log_ratio * (dot / bg)  # divided first: log_ratio * dot overflows near 1e306
    if not d > 1.0:  # also NaN
        return 1
    return budget if d >= budget else math.ceil(d)


def covering_floor(log_ratio: float, g_max: float) -> int:
    """Largest d at which the covering test is known to fail, 0 when none is.

    S(d) = sum_j base_j exp(d growth_j) <= dot exp(d g_max), with g_max the
    row's largest growth, so every d with d g_max < ln(W / dot) - 1e-9
    leaves S(d) below W; the 1e-9 log margin covers the float error of the
    test itself, so the float test fails there too. ``log_ratio`` is
    ``anchor_log_ratio(dot, W)``; the bound is used only when W > dot, g_max > 0
    and ln(W / dot) < 700."""
    if not (0.0 < log_ratio < 700.0 and g_max > 0.0):
        return 0
    q = (log_ratio - 1e-9) / g_max
    return math.ceil(q) - 1 if q > 1.0 else 0


def first_step(reaches, budget: int, guess: int = 1, floor: int = 0) -> int:
    """Smallest d in [1, budget] with ``reaches(d)``, or ``budget`` when even
    ``reaches(budget)`` fails. ``reaches`` must be monotone in d, and the
    caller must know that it fails at every d <= ``floor``.

    The search gallops from ``guess`` (clamped to [floor + 1, budget]): down
    while ``reaches`` holds and up while it fails, doubling the stride, then
    bisects; it never evaluates at or below the floor. It ends where
    ``reaches(d)`` holds and ``reaches(d - 1)`` fails (or d = 1, or d - 1
    is the floor, or the budget fails), so when the guess is the answer it
    costs two evaluations, and one when the guess is 1 or sits just above
    the floor. Both scans seed it with ``jensen_guess``: an upper bound on
    the answer for a covering row, a lower bound for a packing row."""
    if floor >= budget:
        return budget
    hi = min(max(guess, floor + 1), budget)
    stride = 1
    if reaches(hi):
        lo = hi - 1
        while lo > floor and reaches(lo):
            hi = lo
            stride *= 2
            lo = hi - stride
        lo = max(lo, floor)  # the floor (d = 0 without one) stands for a failing step
    else:
        lo = hi
        while True:
            if lo == budget:
                return budget
            hi = min(lo + stride, budget)
            if reaches(hi):
                break
            lo = hi
            stride *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _power(rate: np.ndarray, d: int, powers: dict[int, np.ndarray] | None) -> np.ndarray:
    """exp(d rate), read from the row's power table when it holds it; a
    power computed for a table is kept there, read-only."""
    if powers is None:
        return np.exp(d * rate)
    power = powers.get(d)
    if power is None:
        power = powers[d] = np.exp(d * rate)
        power.setflags(write=False)
    return power


def powered_step(base: np.ndarray, rate: np.ndarray, W: float, holds, budget: int,
                 guess: int, floor: int = 0,
                 powers: dict[int, np.ndarray] | None = None,
                 cap: float = -math.inf, overflows: bool = False) -> tuple[int, np.ndarray]:
    """``first_step`` over the test ``holds(base . exp(d rate), W)``; returns
    its answer d and exp(d rate) as the search evaluated it, so the caller
    applies the very power it tested.

    ``powers`` is a stored row's table d -> exp(d rate) (``StoredRowsState``):
    the search reads a power from it before computing one, and keeps each
    power it computes there, read-only. A streamed row passes None, and its
    powers live only for this call.

    The common cases are tested here in straight-line code, with the
    evaluations ``first_step`` would make first: the guess holds and sits
    just above the floor, or it holds with a sum S(guess) at or below
    ``cap`` (a caller's proof that the power below the guess fails), or it
    holds and the power below it fails. Past them ``first_step`` takes over
    with the bracket they left, under ``np.errstate(over="ignore")`` when
    the caller passes ``overflows`` (its powers past the guess may
    overflow); the test is monotone in d, so the answer does not depend on
    the order of the evaluations."""
    if floor < guess <= budget:
        power = _power(rate, guess, powers)
        s = float(base.dot(power))
        if not holds(s, W):
            if guess == budget:
                return guess, power
            floor = guess  # it fails at the guess, so at every power below it
        elif guess - 1 == floor or s <= cap:
            return guess, power
        else:
            below = _power(rate, guess - 1, powers)
            if not holds(float(base.dot(below)), W):
                return guess, power
            guess -= 1
            if powers is None:
                powers = {guess: below}
    if powers is None:
        powers = {}
    reaches = lambda d: holds(float(base.dot(_power(rate, d, powers))), W)
    if overflows:
        with np.errstate(over="ignore"):
            d = first_step(reaches, budget, guess, floor)
            return d, _power(rate, d, powers)
    d = first_step(reaches, budget, guess, floor)
    return d, _power(rate, d, powers)  # no evaluation at all when the floor reached the budget


def settle_margin(k: int) -> float:
    """The log margin m of the closed-form settles in ``covering_step`` on a
    row of k entries: max(1e-9, k 2^-40), at least twice the float error
    the settles must cover, and ``covering_floor``'s margin up to about
    1,100 entries.

    With u = 2^-53, every exponent d growth_j below 700 and ln(W / dot)
    below 701: the computed dot and bg = base . growth are each within
    (k + 1) u of their exact sums, so settle (a)'s ratio guess bg / dot is
    within (2k + 4) u of the exact one, (1402 k + 2804) u on its exponent;
    ln dot, ln(W / dot) and the float test at the guess (the dot, exp and
    d growth_j rounded) add (2k + 1407) u. Settle (b)'s chord reads S(guess)
    and dot under the same bounds and its cap rounds an exponent below 700:
    (3 k + 4216) u in all. Twice the larger, 2 (1404 k + 4216) u, is below
    max(1e-9, k 2^-40) for every k >= 1."""
    return k * 2.0 ** -40 if k > 1099 else 1e-9


def covering_step(base: np.ndarray, growth: np.ndarray, g_max: float, dot: float, W: float,
                  budget: int, powers: dict[int, np.ndarray] | None = None
                  ) -> tuple[int, np.ndarray]:
    """Smallest d in [1, budget] with S(d) = sum_j base_j exp(d growth_j) >= W,
    else ``budget``, and exp(d growth). ``powers`` is the row's power table,
    as in ``powered_step``.

    The search is bracketed from both sides in closed form: the Jensen
    upper bound (``jensen_guess``) seeds it, and the bound from the largest
    growth ``g_max`` (``covering_floor``) rules out every d below it
    unevaluated. In most enforcements the guess is then settled without a
    search, with the answer the search would return:
    (a) when the floor sits just below the guess and the guess either is
        the budget or passes the Jensen bound with the margin m
        (``settle_margin``): S(guess) >= dot exp(guess bg / dot) >= W e^m.
        No sum is evaluated; exp(guess growth) is the power applied;
    (b) when S(guess), evaluated once, holds and the chord of ln S, which
        is convex in d (a log-sum-exp of lines), puts the power below under
        ln W - m: ln S(guess - 1) <= (ln dot + (guess - 1) ln S(guess)) / guess.
    Otherwise the search runs from what (b) evaluated (``powered_step``)."""
    log_ratio = anchor_log_ratio(dot, W)
    bg = float(base.dot(growth))
    guess = jensen_guess(bg, dot, log_ratio, budget)
    floor = covering_floor(log_ratio, g_max)
    # S(d) <= dot exp(d g_max), so neither exp nor the dot can overflow while
    # d g_max + ln dot < 700; past that they may, and inf compares correctly.
    # The guard is entered only for the d that may overflow: every d when the
    # guess may, else only the search past the settles (a no-op context would
    # add two Python calls to every enforcement).
    log_dot = math.log(dot) if dot > 1.0 else 0.0
    if not guess * g_max + log_dot < 700.0:  # also NaN
        with np.errstate(over="ignore"):
            return powered_step(base, growth, W, operator.ge, budget, guess, floor, powers)
    margin = settle_margin(len(base))
    cap = -math.inf
    if guess - 1 == floor:
        if guess == budget or guess * bg >= (log_ratio + margin) * dot:
            return guess, _power(growth, guess, powers)
    elif guess - 1 > floor:
        # S(guess) <= dot exp(e) puts the chord at ln S(guess - 1) <= ln W - m
        e = guess * (log_ratio - margin) / (guess - 1)
        if e < 700.0:
            cap = dot * math.exp(e)
    return powered_step(base, growth, W, operator.ge, budget, guess, floor, powers, cap,
                        not budget * g_max + log_dot < 700.0)


class Step(Enum):
    """What an enforcement ended in, besides going on."""
    BUDGET = "budget"  # t reached T: the tallies form the dual
    BROKE = "broke"    # the weight total left the phase band (floor, cap)


@dataclass
class WhackStats:
    phases: int = 0
    enforcements: int = 0
    whacks: int = 0
    outcome: str = ""
    max_weight_ratio: float = 0.0  # ln|x|_1 / weight cap when the run returned
    trace: list[tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"phases": self.phases, "enforcements": self.enforcements,
                "whacks": self.whacks, "outcome": self.outcome}


class WhackState:
    """The covering scan state of every setting, and the base of the packing one.

    Holds x_hat (true weights are ``x_hat * exp(log_scale)``), its total
    as of the last enforcement, the phase anchor W with the row threshold
    and the phase band, t of the T rounds, the whack tallies and the stats.
    The tallies are a list of ints indexed by row, grown row by row online,
    and None when no dual is kept. What depends on the sign of the template
    is in ``_anchor``, ``_step``, ``_RATE_SIGN`` (which also flips the row
    test), ``_settle`` with ``_SETTLE_PAST``, and the two outcomes.
    """

    __slots__ = ("n", "lam", "eps", "x_hat", "log_scale", "total", "W", "threshold", "cap",
                 "floor", "t", "T", "whack_counts", "stats", "record_trace")

    #: the step search: (base, rate, g_max, dot, W, budget, powers) -> (d, exp(d rate))
    _step = staticmethod(covering_step)
    #: the rates are log1p(sign eps vals / lam): covering weights grow; a row
    #: is violated while sign dot < sign threshold
    _RATE_SIGN = 1.0
    #: the kernel calls ``_settle`` on an enforcement whose total is not at
    #: or below this: below it no covering weight can have passed _RESCALE_AT
    _SETTLE_PAST = _RESCALE_AT
    # Per-setting fields the kernel reads, None here and slots where a
    # subclass keeps them, so that a streamed state holds no word for them:
    #: row -> (the vals array rated, (rate, g_max, power table)), ``StoredRowsState``
    _rates: dict | None = None
    #: per-row enforcement tallies, ``whack_dynamic.DynamicWhackState``
    _enforced: list[int] | None = None

    def __init__(self, n: int, lam: float, eps: float,
                 whack_counts: list[int] | None = None,
                 record_trace: bool = False):
        self.n = n
        self.lam = lam
        self.eps = eps
        self.x_hat = np.ones(n)
        self.log_scale = 0.0
        self.t = 0
        self.T = total_rounds(lam, n, eps)
        self.whack_counts = whack_counts
        self.stats = WhackStats()
        self.record_trace = record_trace
        self.total = float(n)
        self._anchor(self.total)

    def _anchor(self, W: float) -> None:
        """Set the phase anchor W, the row threshold and the phase band
        (floor, cap): an enforcement whose total leaves it breaks the phase."""
        below = 1.0 - self.eps / 2.0
        self.W = W
        self.threshold = below * W
        self.floor = -math.inf
        self.cap = W / below

    def start_phase(self) -> None:
        """Anchor W at the total in hand: only an enforcement changes x_hat,
        and it sums the array once it is done."""
        self.stats.phases += 1
        self._anchor(self.total)

    # -- the phase kernel ------------------------------------------------------

    def scan(self, rows: Callable[[], Iterable[tuple[int, np.ndarray, np.ndarray]]]) -> bool:
        """The phase loop of every setting, packing included, over a
        re-iterable row source.

        Each phase anchors W and tests the rows of one ``rows()`` pass in
        order; an enforcement that breaks the phase starts the next one.
        Returns True once the round budget is spent, False after a pass with
        no break."""
        self.start_phase()
        return self._phases(rows, 0, None, None, None, 0.0) is Step.BUDGET

    def visit(self, i: int, cols: np.ndarray, vals: np.ndarray,
              rows: Callable[[], Iterable[tuple[int, np.ndarray, np.ndarray]]] | None = None
              ) -> Step | None:
        """Test row i (support ``cols``, entries ``vals``) alone against the
        phase anchor, and enforce it if it is violated. When that breaks the
        phase, the next phase is anchored and ``rows()`` scanned to the next
        certificate, as ``scan`` does, in the same kernel frame; without
        ``rows`` the visit returns Step.BROKE and the caller decides when to
        rescan. Otherwise returns Step.BUDGET once the round budget is
        spent, else None."""
        xh = self.x_hat[cols]
        dot = float(vals.dot(xh))
        sign = self._RATE_SIGN
        if not sign * dot < sign * self.threshold:  # also NaN
            return None
        return self._phases(rows, i, cols, vals, xh, dot)

    def _phases(self, rows: Callable[[], Iterable[tuple[int, np.ndarray, np.ndarray]]] | None,
                i: int, cols: np.ndarray | None, vals: np.ndarray | None,
                xh: np.ndarray | None, dot: float) -> Step | None:
        """Run phases in one frame. With ``cols`` given, row i is violated
        (``xh`` its weights, ``dot`` its dot) and is enforced first, with an
        empty pass after it; else the rows of one ``rows()`` pass are tested
        in order. An enforcement that breaks the phase re-anchors W at the
        total and starts a new ``rows()`` pass, or, with ``rows`` None,
        returns Step.BROKE.

        A row is violated when sign dot < sign threshold, sign = +-1, which
        reads dot < threshold for covering and dot > threshold for packing;
        a NaN dot fails it, so the row is skipped. An enforcement applies
        the row's whack d times in one closed-form power: d and exp(d rate)
        come from one ``_step`` call, with the rates computed by
        ``_row_rates``, or kept per stored row in ``_rates``. The anchor,
        band, budget, t and counts live in locals while the kernel runs and
        are written back when it returns. Returns Step.BUDGET once t reaches
        T, else None after a pass with no break."""
        # three to an assignment, which compiles to no tuple
        x_hat = self.x_hat  # a rescale divides it in place
        step, rated, enforced = self._step, self._rates, self._enforced
        counts, stats, settle_past = self.whack_counts, self.stats, self._SETTLE_PAST
        W, cap, floor = self.W, self.cap, self.floor
        t, T, total = self.t, self.T, self.total
        done = 0
        sign = self._RATE_SIGN
        bar = sign * self.threshold
        source = iter(rows()) if cols is None else ()  # a visit's pass is empty
        try:
            while True:
                if cols is not None:
                    k = len(cols)
                    if k:
                        if rated is None:
                            rate, g_max, powers = self._row_rates(i, vals)
                        else:
                            hit = rated.get(i)
                            if hit is not None and hit[0] is vals:
                                rate, g_max, powers = hit[1]
                            else:
                                rate, g_max, _ = self._row_rates(i, vals)
                                powers = {}
                                rated[i] = (vals, (rate, g_max, powers))
                        delta, power = step(vals * xh, rate, g_max, dot, W, T - t, powers)
                        x_hat[cols] = xh * power
                    else:
                        delta = T - t
                        rate = power = None
                    total = float(_add_reduce(x_hat))
                    if not total <= settle_past:  # also NaN
                        total = self._settle(total, cols, xh, delta, rate, power)
                        # a rescale re-anchors the phase
                        W, cap, floor = self.W, self.cap, self.floor
                        bar = sign * self.threshold
                    t += delta
                    if counts is not None:
                        counts[i] += delta
                    done += 1
                    if enforced is not None:
                        enforced[i] += 1
                        stats.column_touches += k
                    if self.record_trace:
                        stats.trace.append((i, delta))
                    if t >= T:
                        return Step.BUDGET
                    # written so that a NaN total breaks nothing
                    if total > cap or total < floor:
                        if rows is None:
                            return Step.BROKE
                        stats.phases += 1
                        self._anchor(total)
                        W, cap, floor = self.W, self.cap, self.floor
                        bar = sign * self.threshold
                        source = iter(rows())
                for i, cols, vals in source:
                    xh = x_hat[cols]
                    dot = float(vals.dot(xh))
                    if sign * dot < bar:
                        break
                else:
                    return None
        finally:
            self.t, self.total = t, total
            if done:
                stats.enforcements += done
                stats.whacks = t

    def _row_rates(self, i: int, vals: np.ndarray
                   ) -> tuple[np.ndarray, float, dict[int, np.ndarray] | None]:
        """Row i's rates log1p(sign eps vals / lam), their largest, and no
        power table: the rates are computed afresh, and the kernel keeps
        them, with a table, only for a state that stores its rows."""
        # in place, the same bits as np.log1p(sign * eps * vals / lam)
        rate = self._RATE_SIGN * self.eps * vals
        rate /= self.lam
        np.log1p(rate, rate)  # out by position: NumPy parses no keyword
        # argmax and an index cost the same at any row length, a third of the
        # reduction on a short row; the reduction answers for NaN and zeros
        g_max = rate.item(rate.argmax())
        if not g_max > 0.0:
            g_max = float(np.maximum.reduce(rate))
        return rate, g_max, None

    # -- scale handling ------------------------------------------------------

    def _settle(self, total: float, cols: np.ndarray, xh: np.ndarray, delta: int,
                rate: np.ndarray | None, power: np.ndarray | None) -> float:
        """The weight total after the enforcement just applied (the power
        exp(delta rate) on the pre-power weights ``xh``; ``total`` is the
        sum it left), once the shared exponent is rescaled, in their log
        space, if a weight grew too large. The kernel calls it only once the
        total is not at or below ``_SETTLE_PAST``."""
        if total > _RESCALE_AT:  # no weight exceeds the total, so below it no rescale is due
            if rate is not None:
                peak_log = float((np.log(xh) + delta * rate).max())
                if peak_log > 290.0:
                    # divide first and power again, so the powered weights stay finite
                    self.x_hat[cols] = xh
                    self._rescale_by(math.exp(peak_log - 100.0))
                    self.x_hat[cols] *= power
            peak = float(self.x_hat.max())
            if peak > _RESCALE_AT:
                self._rescale_by(peak)
            total = float(self.x_hat.sum())
        return total

    def _rescale_by(self, factor: float) -> None:
        self.x_hat /= factor
        self.log_scale += math.log(factor)
        self._anchor(self.W / factor)

    # -- outcomes --------------------------------------------------------------

    def budget_outcome(self) -> Outcome:
        """The answer once t reaches T: the packing dual, or null without tallies."""
        if self.whack_counts is None:
            return Outcome.null()
        return Outcome.packing_dual(np.asarray(self.whack_counts, dtype=float) / float(self.T))

    def primal_outcome(self) -> Outcome:
        """The answer after a pass with no break: x_hat over its total."""
        return Outcome.covering_primal(self.x_hat / self.total)

    def maintained_vector(self) -> np.ndarray:
        """x_hat / W; sums to at most (1 - eps/2)^-1 within a phase."""
        return self.x_hat / self.W


class StoredRowsState(WhackState):
    """The scan state over rows that their owner stores: a matrix's rows
    (static and dynamic) or the rows an online state has seen. The owner
    hands row i out as one array until its entries change (a matrix ``set``
    builds a new one; an online row never changes), so the kernel computes
    row i's rates once per array and keeps them in ``_rates`` while the
    state lives, matched by identity on the row's ``vals``.

    Next to the rates, each row keeps its power table d -> exp(d rate), the
    read-only powers the step search evaluated on that row: a stored row is
    enforced again and again with the same d, and the search reads the
    power from the table instead of computing it. The table holds at most
    one array of the row's support size per d ever evaluated on the row.
    It belongs to the rates entry, so a new ``vals`` array drops both."""

    __slots__ = ("_rates",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rates = {}


def run_phases(state: WhackState, C: SparseNonnegMatrix) -> Outcome:
    """Scan the rows of C in ascending order to a certificate; shared with
    the dynamic preprocessing and phase rebuilds and with packing."""
    budget_spent = state.scan(C.rows)
    # covering weights only grow, so the last total is the largest the run reached
    state.stats.max_weight_ratio = ((math.log(state.total) + state.log_scale)
                                    / weight_cap(state.n, state.eps))
    outcome = state.budget_outcome() if budget_spent else state.primal_outcome()
    state.stats.outcome = outcome.tag.value
    return outcome


def solve_fast(instance: NormalizedCoveringInstance,
               record_trace: bool = False) -> tuple[Outcome, WhackStats]:
    state = StoredRowsState(instance.n, instance.lam, instance.eps, [0] * instance.m,
                            record_trace)
    outcome = run_phases(state, instance.C)
    return outcome, state.stats


def solve_basic(instance: NormalizedCoveringInstance | PackingInstanceView,
                pick=None) -> tuple[Outcome, list[int]]:
    """Reference T-round template, one whack per round, for both signs.

    Covering (sign +1) whacks a row with (C x)_i < 1 by 1 + eps v / lam
    until C x >= 1 - eps; packing (sign -1) whacks a row with (P x)_i > 1
    by 1 - eps v / lam until P x <= 1 + eps. Each test compares both sides
    times the sign, and negation is exact, so both read bit for bit as
    their one-sign forms. ``pick(product, t)`` picks the violated row from
    the raw C x or P x; the default takes the lowest. Returns the outcome
    and the whack sequence."""
    if isinstance(instance, PackingInstanceView):
        M, sign, primal, dual = instance.P, -1.0, Outcome.packing_primal, Outcome.covering_dual
    else:
        M, sign, primal, dual = instance.C, 1.0, Outcome.covering_primal, Outcome.packing_dual
    lam, eps, n = instance.lam, instance.eps, instance.n
    T = total_rounds(lam, n, eps)
    x_hat = np.ones(n)
    counts = np.zeros(instance.m, dtype=np.int64)
    sequence: list[int] = []
    stop = sign * (1.0 - sign * eps)
    for t in range(T):
        x = x_hat / x_hat.sum()
        product = M.matvec(x)
        signed = sign * product
        if np.all(signed >= stop):
            return primal(x), sequence
        i = int(np.argmax(signed < sign)) if pick is None else pick(product, t)
        if not signed[i] < sign:
            raise PreconditionViolated(f"round {t}: row {i} is not violated")
        cols, vals = M.row(i)
        x_hat[cols] *= 1.0 + sign * eps * vals / lam
        counts[i] += 1
        sequence.append(i)
    return dual(counts / float(T)), sequence
