"""Greedy positive-LP solver with relaxing-update maintenance.

The solver walks a point x upward along cheap coordinates. A coordinate's
cost is the ratio of packing to covering weight mass on its column; it is
cheap when that ratio is within (1+5 eps) of the global weight ratio. The
increment per boost is sized so no packing constraint and no still-active
covering constraint moves by more than eps/eta.

Everything expensive is approximated within the sandwich the maintenance
invariant allows:

* hat weights lag the exact constraint weights by at most a (1 +/- eps)
  factor and are refreshed per touched row when they drift out;
* hat costs are the exact ratio of the hat weights; the numerator and
  denominator of each column are maintained incrementally as a refresh
  touches a row, so the cheapness test is three multiplications (weights
  and their column sums share one scale offset per side, and the offsets
  cancel against the totals);
* the per-column max structure stores entry magnitudes within a factor
  two of their live values, so a boost increment can be read off its top
  in O(1); the returned increment always lands in [delta_k/4, delta_k].

Relaxing updates to the packing matrix are absorbed by a padding column
(the extended variable is pinned at one) so packing weights never fall;
covering relaxations refresh one row. RHS translations are ignored until
they accumulate a (1+eps) factor and are then replayed as row scalings;
a later entry update on a scaled row names the instance's value and is
divided by the right-hand side applied to that row.

The state keeps no copy of the entries: it reads and writes its instance's
P and C in place (``pcol``/``prow`` and ``ccol``/``crow`` are the matrices'
own row and column dicts), so after updates the instance holds the applied,
rescaled rows. Its only per-column maps are the factor-two representatives
``prep``/``crep`` behind the max structure.

Weights span exp(+-3 eta); mantissas are rescaled against a shared log
offset per side long before products of two of them can overflow.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .certificates import Outcome
from .instances import PositiveInstance
from .sparse import IndexOutOfRange, NonMonotoneUpdate, SparseNonnegMatrix

_MANT_HI = 1e140
_MANT_LO = 1e-140


class UnboundedCost(ValueError):
    """Column absent from the covering matrix; never cheap."""


class NotInfeasibleYet(RuntimeError):
    pass


def _logsumexp(terms: list[float]) -> float:
    if not terms:
        return -math.inf
    hi = max(terms)
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(sum(math.exp(t - hi) for t in terms))


def _lse_with_slope_pair(t: list[float], lv: list[float], slopes: list[float],
                        const: float) -> tuple[float, float, float, float]:
    """Two log-sum-exps of affine functions at a point, each with its
    derivative there (the softmax-weighted average of the slopes): of the
    terms t + lv, and of the terms t plus a constant of slope zero.

    One pass serves both; each sum is accumulated term by term in list
    order, so the results are the floats two separate passes would give.
    ``const`` is a log-sum-exp itself, so never -0.0.
    """
    if not t:
        return -math.inf, 0.0, const, 0.0
    tl = [x + y for x, y in zip(t, lv)]
    hi1 = max(tl)
    hi2 = max(t)
    if const > hi2:
        hi2 = const
    exp = math.exp
    tot1 = dot1 = tot2 = dot2 = 0.0
    for x, y, s in zip(t, tl, slopes):
        w = exp(y - hi1)
        tot1 += w
        dot1 += w * s
        w = exp(x - hi2)
        tot2 += w
        dot2 += w * s
    tot2 += exp(const - hi2)
    return hi1 + math.log(tot1), dot1 / tot1, hi2 + math.log(tot2), dot2 / tot2


@dataclass
class GreedyStats:
    boosts_total: int = 0
    phases: int = 0
    heap_readjusts: int = 0
    weight_refreshes: int = 0
    wstar_refreshes: int = 0
    translations_applied: int = 0
    jump_attempts: int = 0  # segment searches started (b_hi >= 16)
    jumps: int = 0  # searches that certified a segment and executed it
    jump_boosts: int = 0  # boosts executed inside jumps (part of boosts_total)
    outcome: str = ""

    def as_dict(self) -> dict:
        """Every field under its own name, except ``boosts_total`` -> ``boosts``."""
        out = asdict(self)
        out["boosts"] = out.pop("boosts_total")
        return out


class GreedyState:
    """Mutable solver state over the padded instance (one extra packing column)."""

    def __init__(self, instance: PositiveInstance, audit_hook=None):
        self.instance = instance
        self.eps = instance.eps
        self.n = instance.n
        self.m_p = instance.m_p
        self.m_c = instance.m_c
        self.eta = math.log(self.m_p + self.m_c + instance.U / instance.L) / self.eps
        self.audit_hook = audit_hook
        self.stats = GreedyStats()
        self.cheap_factor = 1.0 + 5.0 * self.eps

        P, C = instance.P, instance.C
        self.P, self.C = P, C
        n = self.n
        # live views, not copies: SparseNonnegMatrix.set writes these dicts in place
        self.pcol = [P.col_map(k) for k in range(n)]
        self.ccol = [C.col_map(k) for k in range(n)]
        self.prow = [P.row_map(i) for i in range(self.m_p)]
        self.crow = [C.row_map(j) for j in range(self.m_c)]

        self.x = [0.0] * n
        self.ext_col = [0.0] * self.m_p  # padding column entries; its variable is 1
        self.S_p = [0.0] * self.m_p
        self.S_c = [0.0] * self.m_c
        self.unsat = self.m_c
        self.active = [True] * self.m_c

        # exact weights as mantissas against one log offset per side
        self.mant_p = [1.0] * self.m_p
        self.off_p = 0.0
        self.tot_p = float(self.m_p)
        self.mant_c = [1.0] * self.m_c
        self.off_c = 0.0
        self.tot_c = float(self.m_c)
        # decaying sums are rebuilt long before incremental subtraction can
        # cancel: once tot_c falls 9 orders below its last-rebuild anchor,
        # resummation washes the accumulated error
        self.anchor_c = self.tot_c

        # hat weights: exact log (for audits/refresh) plus mantissa copies
        self.hat_lw_p = [0.0] * self.m_p
        self.hat_lw_c = [0.0] * self.m_c
        self.hm_p = [1.0] * self.m_p
        self.hm_c = [1.0] * self.m_c
        # refresh thresholds live in dot space: exact regardless of weight scale
        self.sthr_p = [self._sthr_p(i) for i in range(self.m_p)]
        self.sthr_c = [self._sthr_c(j) for j in range(self.m_c)]

        # hat-cost fractions per column, in the same mantissa scales.
        # Refreshes subtract from a column's covering sum, so it is resummed
        # once it falls 9 orders below its largest value since the last
        # resum (peakD), before it is only rounding residue: a negative sum
        # reads as never cheap
        self.hatN = [0.0] * n
        self.hatD = [0.0] * n
        self.peakD = [0.0] * n
        self._rebuild_hatN()
        self._rebuild_hatD()

        self.prep: list[dict[int, float]] = [dict(col) for col in self.pcol]
        self.crep: list[dict[int, float]] = [dict(col) for col in self.ccol]
        self.tops = [0.0] * n
        self.top_dirty = [True] * n
        self.colver = [0] * n
        self._fcache_key: tuple[int, float, int] | None = None
        self._fcache: tuple[list, list] | None = None
        # certified jumps: the serial of the current boost run, the run's
        # segment profile under its (run, delta, colver) key, and per
        # coordinate the (delta, B) that its last jump attempt certified
        self._run = 0
        self._profile_key: tuple[int, float, int] | None = None
        self._profile: tuple | None = None
        self._jump_hint: list[tuple[float, int]] = [(0.0, 0)] * n

        self.exhausted = [False] * n
        self.hat_llam0 = self._llam0()
        self.log_wstar_c = math.log(self.tot_c) + self.off_c

        self.boosts = [0] * n
        self.solved = False
        self.infeasible_declared = False

        # RHS translation bookkeeping (true vs. applied cumulative factors)
        self.rhs_applied_p = [1.0] * self.m_p
        self.rhs_true_p = [1.0] * self.m_p
        self.rhs_applied_c = [1.0] * self.m_c
        self.rhs_true_c = [1.0] * self.m_c
        self.translation_counts = [0] * (self.m_p + self.m_c)

    # -- log-space quantities ------------------------------------------------

    def _llam0(self) -> float:
        return (math.log(self.tot_p) + self.off_p) - (math.log(self.tot_c) + self.off_c)

    def lam0(self) -> float:
        return math.exp(self._llam0())

    def hat_cost_log(self, k: int) -> float:
        """log of hat-lambda(k) from the maintained column fractions."""
        if self.hatD[k] <= 0.0:
            return math.inf
        if self.hatN[k] <= 0.0:
            return -math.inf
        return (math.log(self.hatN[k]) + self.off_p
                - math.log(self.hatD[k]) - self.off_c)

    def hat_cost_log_direct(self, k: int) -> float:
        """Same quantity recomputed from scratch; audit cross-check."""
        num = _logsumexp([self.hat_lw_p[i] + math.log(v) for i, v in self.pcol[k].items()])
        den = _logsumexp([self.hat_lw_c[j] + math.log(v) for j, v in self.ccol[k].items()])
        if den == -math.inf:
            return math.inf
        return num - den

    def exact_cost_log(self, k: int) -> float:
        eta = self.eta
        num = _logsumexp([eta * self.S_p[i] + math.log(v) for i, v in self.pcol[k].items()])
        den = _logsumexp([-eta * self.S_c[j] + math.log(v) for j, v in self.ccol[k].items()])
        if den == -math.inf:
            raise UnboundedCost(f"column {k} has no covering entries")
        return num - den

    def _cheap(self, k: int) -> bool:
        # hatN/tot_p and hatD/tot_c share their offsets, so the (1+5eps)
        # comparison against lambda_0 reduces to mantissa products
        return self.hatN[k] * self.tot_c <= self.cheap_factor * self.hatD[k] * self.tot_p

    # -- hat maintenance --------------------------------------------------------

    def _sthr_p(self, i: int) -> float:
        # hat_wp(i) falls below w_p(i)(1-eps) once S_p passes this point
        return (self.hat_lw_p[i] - math.log1p(-self.eps)) / self.eta

    def _sthr_c(self, j: int) -> float:
        # hat_wc(j) exceeds w_c(j)(1+eps) once S_c passes this point
        return (math.log1p(self.eps) - self.hat_lw_c[j]) / self.eta

    def _refresh_hat_p(self, i: int) -> None:
        self.hat_lw_p[i] = self.eta * self.S_p[i]
        new = math.exp(self.hat_lw_p[i] - self.off_p)
        d = new - self.hm_p[i]
        self.hm_p[i] = new
        self.sthr_p[i] = self._sthr_p(i)
        for k, v in self.prow[i].items():
            self.hatN[k] += d * v
        self.stats.weight_refreshes += 1

    def _refresh_hat_c(self, j: int) -> None:
        self.hat_lw_c[j] = -self.eta * self.S_c[j]
        new = math.exp(self.hat_lw_c[j] - self.off_c)
        d = new - self.hm_c[j]
        self.hm_c[j] = new
        self.sthr_c[j] = self._sthr_c(j)
        for k, v in self.crow[j].items():
            self.hatD[k] += d * v
            if self.hatD[k] < 1e-9 * self.peakD[k]:
                self.hatD[k] = self.peakD[k] = self._column_hatD(k)
        self.stats.weight_refreshes += 1

    def _rebuild_hatN(self) -> None:
        for k in range(self.n):
            self.hatN[k] = sum(self.hm_p[i] * v for i, v in self.pcol[k].items())

    def _column_hatD(self, k: int) -> float:
        return sum(self.hm_c[j] * v for j, v in self.ccol[k].items())

    def _rebuild_hatD(self) -> None:
        for k in range(self.n):
            self.hatD[k] = self._column_hatD(k)
        self.peakD[:] = self.hatD

    def _maybe_rescale(self) -> None:
        if self.tot_p > _MANT_HI:
            peak = max(self.mant_p)
            inv = 1.0 / peak
            for i in range(self.m_p):
                self.mant_p[i] *= inv
                self.hm_p[i] *= inv
            self.off_p += math.log(peak)
            self.tot_p = sum(self.mant_p)
            self._rebuild_hatN()
        if self.tot_c < 1e-9 * self.anchor_c or self.tot_c < _MANT_LO * self.m_c:
            peak = max(self.mant_c)
            if peak < _MANT_LO ** 2:
                # a relaxed entry can move S_c far enough in one step to
                # flush every mantissa, leaving nothing to divide by
                self._resync_covering()
                return
            inv = 1.0 / peak
            for j in range(self.m_c):
                self.mant_c[j] *= inv
                self.hm_c[j] *= inv
            self.off_c += math.log(peak)
            self.tot_c = sum(self.mant_c)
            self.anchor_c = self.tot_c
            self._rebuild_hatD()

    # -- heap oracle -----------------------------------------------------------

    def _top(self, k: int) -> float:
        if self.top_dirty[k]:
            best = 0.0
            for v in self.prep[k].values():
                if v > best:
                    best = v
            for v in self.crep[k].values():
                if v > best:
                    best = v
            self.tops[k] = best
            self.top_dirty[k] = False
        return self.tops[k]

    def exact_delta(self, k: int) -> float:
        """Ground-truth boost increment from live values; inf when nothing binds."""
        top = 0.0
        for v in self.pcol[k].values():
            if v > top:
                top = v
        for j, v in self.ccol[k].items():
            if self.S_c[j] < 2.0 and v > top:
                top = v
        if top == 0.0:
            return math.inf
        return (self.eps / self.eta) / top

    def _deactivate(self, j: int) -> None:
        self.active[j] = False
        for k in self.crow[j]:
            if self.crep[k].pop(j, None) is not None:
                self.top_dirty[k] = True
                self.stats.heap_readjusts += 1

    # -- boosting ----------------------------------------------------------------

    def _factors(self, k: int, delta: float) -> tuple[list, list]:
        key = (k, delta, self.colver[k])
        if self._fcache_key != key:
            eta = self.eta
            fp = [(i, v, math.exp(eta * v * delta)) for i, v in self.pcol[k].items()]
            fc = [(j, v, math.exp(-eta * v * delta)) for j, v in self.ccol[k].items()]
            self._fcache_key = key
            self._fcache = (fp, fc)
        return self._fcache

    def _boost_once(self, k: int, delta: float) -> bool:
        """One increment along k; True when the covering side got satisfied."""
        self.stats.boosts_total += 1
        self.boosts[k] += 1
        if self.audit_hook is not None:
            self.audit_hook(self, k, delta)
        self.x[k] += delta
        fp, fc = self._factors(k, delta)
        S_c = self.S_c
        crossed_two = None
        for j, v, _ in fc:
            old = S_c[j]
            new = old + v * delta
            S_c[j] = new
            if old < 1.0 <= new:
                self.unsat -= 1
            if old < 2.0 <= new and self.active[j]:
                if crossed_two is None:
                    crossed_two = [j]
                else:
                    crossed_two.append(j)
        if self.unsat == 0:
            self.solved = True
            return True
        S_p = self.S_p
        mant_p = self.mant_p
        pending_p = None
        for i, v, f in fp:
            S_p[i] += v * delta
            m = mant_p[i]
            mant_p[i] = m * f
            self.tot_p += mant_p[i] - m
            if S_p[i] > self.sthr_p[i]:
                if pending_p is None:
                    pending_p = [i]
                else:
                    pending_p.append(i)
        mant_c = self.mant_c
        pending_c = None
        for j, v, f in fc:
            m = mant_c[j]
            mant_c[j] = m * f
            self.tot_c += mant_c[j] - m
            if S_c[j] > self.sthr_c[j]:
                if pending_c is None:
                    pending_c = [j]
                else:
                    pending_c.append(j)
        if pending_p is not None:
            for i in pending_p:
                self._refresh_hat_p(i)
        if pending_c is not None:
            for j in pending_c:
                self._refresh_hat_c(j)
        if crossed_two is not None:
            for j in crossed_two:
                self._deactivate(j)
        if self.tot_p > _MANT_HI or self.tot_c < 1e-9 * self.anchor_c:
            self._maybe_rescale()
        return False

    def _boost_run(self, k: int) -> bool:
        """Boost k while its hat cost stays cheap; True when solved.

        Long runs are batch-advanced: a segment of B same-size boosts moves
        every weight along an exponential of the boost count, so a whole
        segment is executed at once when a convexity bound certifies that
        the coordinate stays cheap throughout (see _segment_certified).
        After 24 single boosts on k, a boost may first try a jump:
        _try_jump evaluates the segment's b = 0 endpoint once and then one
        endpoint per candidate length on the 16 * 4^i grid, starting from
        the length k's last attempt certified, plus one probe at the cap
        b_hi. A refused attempt (nothing certified, or b_hi < 16) falls
        back to a single boost and backs off within the run: the next
        attempt waits 1, 2, 4, ... further singles (attempts at singles
        24, 25, 27, 31, 39, ...), and an accepted jump resets the wait, so
        the next boost tries again at once. Between two resets, r
        refusals therefore take at least 2^(r-1) singles; since every jump
        is still certified, the back-off only decides when attempts are
        made, never what a jump may do. Audit mode single-steps everything.

        Each run has its own serial: only the rows of column k move while
        k boosts, so the slopes, log-entries and off-column constants of
        _segment_profile are built once per run and increment size.
        """
        if self.exhausted[k]:
            return False
        self._run += 1
        scale = self.eps / (2.0 * self.eta)
        singles = 0
        next_try, gap = 24, 1
        while self._cheap(k):
            top = self._top(k)
            if top == 0.0:
                # nothing binds: no packing entries and every covering row
                # with this column already sits at >= 2, so boosting is free
                # but useless; drop the coordinate from future scans
                self.exhausted[k] = True
                return False
            delta = scale / top
            if singles >= next_try and self.audit_hook is None:
                jumped, solved = self._try_jump(k, delta)
                if solved:
                    return True
                if jumped:
                    gap = 1
                    continue
                next_try, gap = singles + gap, 2 * gap
            if self._boost_once(k, delta):
                return True
            singles += 1
        # keep the phase-snapshot estimate of the covering total inside its band
        lwc = math.log(self.tot_c) + self.off_c
        if self.log_wstar_c > lwc + math.log1p(self.eps):
            self.log_wstar_c = lwc
            self.stats.wstar_refreshes += 1
        return False

    # -- certified batch advance ---------------------------------------------

    def _segment_profile(self, k: int, delta: float):
        """Endpoint data for the cheapness trajectory along a same-size run.

        Over b boosts of size delta, every exact log-weight is affine in b,
        so each of the four log-sum-exp pieces of
        g(b) = log lambda(k, b) - log lambda_0(b) is convex in b. The
        returned ``parts(b)`` evaluates only the terms that move with b.

        The slopes, log-entries and the two off-column log-sum-exps do not
        move while k's run boosts (a boost or a jump on k changes only the
        rows of column k), so they are computed once per run, increment
        size and column version (key: run serial, delta, ``colver[k]``).
        Only the intercepts ``a_p`` and ``a_c`` are read per attempt.
        """
        eta = self.eta
        S_p, S_c = self.S_p, self.S_c
        pcol, ccol = self.pcol[k], self.ccol[k]
        key = (self._run, delta, self.colver[k])
        if self._profile_key != key:
            r_p = [eta * v * delta for v in pcol.values()]
            lv_p = [math.log(v) for v in pcol.values()]
            r_c = [eta * v * delta for v in ccol.values()]
            lv_c = [math.log(v) for v in ccol.values()]
            s_c = [-r for r in r_c]  # covering log-weights fall as b grows
            const_p = _logsumexp([eta * S_p[i] for i in range(self.m_p) if i not in pcol])
            const_c = _logsumexp([-eta * S_c[j] for j in range(self.m_c) if j not in ccol])
            self._profile_key = key
            self._profile = (r_p, lv_p, r_c, lv_c, s_c, const_p, const_c)
        r_p, lv_p, r_c, lv_c, s_c, const_p, const_c = self._profile
        a_p = [eta * S_p[i] for i in pcol]
        a_c = [-eta * S_c[j] for j in ccol]

        def parts(b: float):
            # h = log num + log totc (convex), u = log den + log totp (convex)
            t = [a + r * b for a, r in zip(a_p, r_p)]
            num, num_s, totp, totp_s = _lse_with_slope_pair(t, lv_p, r_p, const_p)
            t = [c - r * b for c, r in zip(a_c, r_c)]
            den, den_s, totc, totc_s = _lse_with_slope_pair(t, lv_c, s_c, const_c)
            h, h_s = num + totc, num_s + totc_s
            u, u_s = den + totp, den_s + totp_s
            return h, h_s, u, u_s

        return parts

    def _segment_certified(self, p0, pB, B: float) -> bool:
        """True when g(b) <= log(1+5eps) provably holds on all of [0, B],
        given the segment's endpoint parts ``p0 = parts(0)`` and
        ``pB = parts(B)``.

        g = h - u with h and u convex. h lies below its chord over [0, B],
        and u lies above its tangents T0 and TB at the two endpoints, so
        g(b) <= chord(b) - max(T0(b), TB(b)). That bound is concave and
        piecewise linear; its maximum sits at b = 0 (h0 - u0), at b = B
        (hB - uB), or at b*, where the tangents cross inside the segment
        (only when us0 < usB). The bound follows g's own movement, so a
        rise of h that u matches costs nothing; none of the three values
        exceeds max(h0, hB) minus the tangents' minimum, so no segment is
        refused that the separate bounds on h and u would certify.

        The test is monotone in B: on [0, B] the chord over a longer
        segment lies higher (a convex function's secant slope from 0 only
        rises), and a tangent taken farther out lies lower, so the bound
        at each b does not fall as B grows. A B that fails therefore fails
        for every longer segment too, which is what lets _try_jump start
        its grid search anywhere.
        """
        h0, _, u0, us0 = p0
        hB, _, uB, usB = pB
        worst = max(h0 - u0, hB - uB)
        if us0 < usB:
            bstar = (uB - usB * B - u0) / (us0 - usB)
            if 0.0 < bstar < B:
                worst = max(worst, h0 + (hB - h0) * bstar / B - (u0 + us0 * bstar))
        return worst <= math.log1p(5.0 * self.eps) - 1e-12

    def _segment_cap(self, k: int, delta: float) -> float:
        """b_hi: the longest segment of same-size boosts on k that leaves
        every active covering row below 2 and stops no later than the
        boost that satisfies the last uncovered row (inf when neither
        binds)."""
        b_sol = 0
        b_two = math.inf
        touched_unsat = 0
        for j, v in self.ccol[k].items():
            s = self.S_c[j]
            if s < 1.0:
                touched_unsat += 1
                b_sol = max(b_sol, math.ceil((1.0 - s) / (v * delta)))
            if self.active[j] and s < 2.0:
                b_two = min(b_two, math.ceil((2.0 - s) / (v * delta)))
        if touched_unsat < self.unsat:
            b_sol = math.inf  # rows off this column stay uncovered
        return min(b_sol, b_two - 1)

    def _try_jump(self, k: int, delta: float) -> tuple[bool, bool]:
        """Advance as many same-size boosts at once as certification allows;
        returns (jumped, solved).

        The segment is capped at b_hi (_segment_cap), so the active set and
        the increment stay fixed along it. The answer is the largest B
        on the grid 16 * 4^i up to b_hi such that B and every grid point
        below it certify; when it is within a factor four of b_hi, b_hi
        itself is probed. The largest certified B (at least 16) is
        executed as one jump.

        The search is warm-started: it begins at the largest grid point at
        or below min(hint, b_hi), where the hint is the B that k's last
        attempt certified at the same delta; after an attempt that
        certified nothing, or at a new delta, it starts at 16. If that
        point certifies it climbs x4 to the first failure, otherwise it
        descends /4 to the first success or below 16. Because
        _segment_certified is monotone in B, this lands on the grid point
        a climb from 16 stops at, after one endpoint evaluation at b = 0
        and typically two on the grid.

        The certificate bounds g itself rather than h and u apart, so a
        coordinate that stays well inside the bar certifies segments of
        up to b_hi boosts: a run of 10^5 boosts takes a few jumps, each
        followed by one O(m + nnz) _resync. Near the bar most attempts
        certify nothing and fall back to one boost; _boost_run spaces
        the attempts after each refusal, so a run pays for O(log s) of
        them over its s singles rather than one per boost.
        """
        b_hi = self._segment_cap(k, delta)
        if not b_hi >= 16:
            return (False, False)
        self.stats.jump_attempts += 1
        parts = self._segment_profile(k, delta)
        p0 = parts(0.0)

        def certified(b) -> bool:
            return self._segment_certified(p0, parts(float(b)), float(b))

        hint_delta, hint = self._jump_hint[k]
        start = min(hint, b_hi) if hint_delta == delta else 16
        b = 16
        while b * 4 <= start:
            b *= 4
        best = 0
        if certified(b):
            while b * 4 <= b_hi and certified(b * 4):
                b *= 4
            best = b
        else:
            while b > 16:
                b //= 4
                if certified(b):
                    best = b
                    break
        if best and best * 4 > b_hi and best != b_hi and certified(b_hi):
            best = b_hi
        self._jump_hint[k] = (delta, best)
        if best < 16:
            return (False, False)
        self.stats.jumps += 1
        return (True, self._jump(k, delta, int(best)))

    def _jump(self, k: int, delta: float, B: int) -> bool:
        self.stats.boosts_total += B
        self.stats.jump_boosts += B
        self.boosts[k] += B
        self.x[k] += delta * B
        for i, v in self.pcol[k].items():
            self.S_p[i] += v * delta * B
        for j, v in self.ccol[k].items():
            old = self.S_c[j]
            self.S_c[j] = old + v * delta * B
            if old < 1.0 <= self.S_c[j]:
                self.unsat -= 1
        if self.unsat == 0:
            self.solved = True
            return True
        # the segment cap stops just short of any row reaching 2, but ceil on
        # float ratios can land a row exactly on the boundary; sweep so the
        # per-column max structures never keep a deactivated row
        for j in self.ccol[k]:
            if self.active[j] and self.S_c[j] >= 2.0:
                self._deactivate(j)
        self._resync()
        return False

    def _resync(self) -> None:
        """Exact rebuild of weights, hats and column fractions from the dots."""
        eta = self.eta
        self.off_p = max(eta * s for s in self.S_p)
        for i in range(self.m_p):
            self.mant_p[i] = math.exp(eta * self.S_p[i] - self.off_p)
            self.hat_lw_p[i] = eta * self.S_p[i]
            self.hm_p[i] = self.mant_p[i]
            self.sthr_p[i] = self._sthr_p(i)
        self.tot_p = sum(self.mant_p)
        self._rebuild_hatN()
        self.stats.weight_refreshes += self.m_p
        self._resync_covering()

    def _resync_covering(self) -> None:
        """The covering half of _resync: weights, hats and hatD from S_c."""
        eta = self.eta
        self.off_c = max(-eta * s for s in self.S_c)
        for j in range(self.m_c):
            self.mant_c[j] = math.exp(-eta * self.S_c[j] - self.off_c)
            self.hat_lw_c[j] = -eta * self.S_c[j]
            self.hm_c[j] = self.mant_c[j]
            self.sthr_c[j] = self._sthr_c(j)
        self.tot_c = sum(self.mant_c)
        self.anchor_c = self.tot_c
        self._rebuild_hatD()
        self.stats.weight_refreshes += self.m_c

    def _iterate(self) -> bool:
        """Scan-and-boost until no coordinate is cheap under a stable anchor."""
        while True:
            self.stats.phases += 1
            self.hat_llam0 = self._llam0()
            self.log_wstar_c = math.log(self.tot_c) + self.off_c
            for k in range(self.n):
                if self._boost_run(k):
                    return True
            if not self.hat_llam0 < self._llam0() + math.log1p(-self.eps):
                return False

    # -- public driver -------------------------------------------------------------

    def run_static(self) -> Outcome:
        if not self.solved:
            if self._iterate():
                self.solved = True
            else:
                self.infeasible_declared = True
        return self.current_outcome()

    def current_outcome(self) -> Outcome:
        if self.solved:
            self.stats.outcome = "positive_solution"
            return Outcome.positive_solution(np.asarray(self.x))
        self.stats.outcome = "infeasible"
        return Outcome.infeasible()

    # -- relaxing updates ------------------------------------------------------------

    def relax_packing_entry(self, i: int, k: int, new: float) -> Outcome:
        """Lower P[i,k] to ``new``, given in the instance's units: once a
        packing translation has been applied, the stored row i is the
        instance's row divided by the right-hand side applied so far."""
        scale = self.rhs_applied_p[i]
        old = self.P.get(i, k)
        if not new / scale < old:
            raise NonMonotoneUpdate(f"P[{i},{k}] must decrease: {new} >= {old * scale}")
        if new < 0:
            raise NonMonotoneUpdate(f"P[{i},{k}] negative: {new}")
        return self._relax_packing_entry(i, k, new / scale)

    def _relax_packing_entry(self, i: int, k: int, new: float) -> Outcome:
        """Relaxing entry update in stored units."""
        old = self.P.get(i, k)
        self.P.set(i, k, new)
        if self.solved:
            return self.current_outcome()  # solution stays valid under relaxation
        self.hatN[k] += self.hm_p[i] * (new - old)
        self.colver[k] += 1
        rep = self.prep[k].get(i)
        if rep is not None:
            if new == 0.0:
                del self.prep[k][i]
                self.top_dirty[k] = True
                self.stats.heap_readjusts += 1
            elif rep > 2.0 * new:
                self.prep[k][i] = new
                self.top_dirty[k] = True
                self.stats.heap_readjusts += 1
        # pseudo-update: grow the padding entry so the row's dot is unchanged
        # (the padding variable is pinned at one)
        self.ext_col[i] += (old - new) * self.x[k]
        return self._resume(k)

    def relax_covering_entry(self, j: int, k: int, new: float) -> Outcome:
        """Raise C[j,k] to ``new``, given in the instance's units: once a
        covering translation has been applied, the stored row j is the
        instance's row divided by the right-hand side applied so far."""
        scale = self.rhs_applied_c[j]
        old = self.C.get(j, k)
        if not new / scale > old:
            raise NonMonotoneUpdate(f"C[{j},{k}] must increase: {new} <= {old * scale}")
        return self._relax_covering_entry(j, k, new / scale)

    def _relax_covering_entry(self, j: int, k: int, new: float) -> Outcome:
        """Relaxing entry update in stored units."""
        old = self.C.get(j, k)
        self.C.set(j, k, new)
        if self.solved:
            return self.current_outcome()
        if old == 0.0:
            if self.active[j]:
                self.crep[k][j] = new
                self.top_dirty[k] = True
        else:
            rep = self.crep[k].get(j)
            if rep is not None and new > 2.0 * rep:
                self.crep[k][j] = new
                self.top_dirty[k] = True
                self.stats.heap_readjusts += 1
        self.hatD[k] += self.hm_c[j] * (new - old)
        self.peakD[k] = max(self.peakD[k], self.hatD[k])
        self.colver[k] += 1
        grow = (new - old) * self.x[k]
        oldS = self.S_c[j]
        self.S_c[j] = oldS + grow
        if oldS < 1.0 <= self.S_c[j]:
            self.unsat -= 1
            if self.unsat == 0:
                self.solved = True
                return self.current_outcome()
        if oldS < 2.0 <= self.S_c[j] and self.active[j]:
            self._deactivate(j)
        exact = math.exp(-self.eta * self.S_c[j] - self.off_c)
        self.tot_c += exact - self.mant_c[j]
        self.mant_c[j] = exact
        # the hat may now exceed its (1+eps) band above the shrunken weight
        if self.hat_lw_c[j] > -self.eta * self.S_c[j] + math.log1p(self.eps):
            self._refresh_hat_c(j)
            for k2 in self.crow[j]:
                self.exhausted[k2] = False
                if self._boost_run(k2):
                    self.solved = True
                    return self.current_outcome()
        return self._resume(k)

    def _resume(self, k: int) -> Outcome:
        """Shared tail of the relax paths: boost the updated coordinate, then
        rescan everything if the weight ratio left the phase anchor's band."""
        self.exhausted[k] = False
        if self._boost_run(k):
            self.solved = True
        elif self.hat_llam0 < self._llam0() + math.log1p(-self.eps) and self._iterate():
            self.solved = True
        else:
            self.infeasible_declared = True
        return self.current_outcome()

    # -- translations ------------------------------------------------------------------

    def translate_packing_rhs(self, i: int, new_rhs: float) -> Outcome:
        """Relaxing RHS increase on packing row i, replayed as entry scalings
        once the pending factor reaches (1+eps)."""
        if not 0 <= i < self.m_p:
            raise IndexOutOfRange(f"set a: a[{i}] outside shape ({self.m_p},)")
        if not new_rhs > 0.0:
            raise NonMonotoneUpdate(f"packing rhs {i} must be positive: {new_rhs}")
        if not new_rhs > self.rhs_true_p[i]:
            raise NonMonotoneUpdate(f"packing rhs {i} must increase")
        self.rhs_true_p[i] = new_rhs
        if new_rhs / self.rhs_applied_p[i] < 1.0 + self.eps:
            return self.current_outcome()
        factor = self.rhs_applied_p[i] / new_rhs
        self.rhs_applied_p[i] = new_rhs
        self.translation_counts[i] += 1
        self.stats.translations_applied += 1
        out = self.current_outcome()
        for k, v in list(self.prow[i].items()):
            out = self._relax_packing_entry(i, k, v * factor)
        return out

    def translate_covering_rhs(self, j: int, new_rhs: float) -> Outcome:
        if not 0 <= j < self.m_c:
            raise IndexOutOfRange(f"set b: b[{j}] outside shape ({self.m_c},)")
        if not new_rhs > 0.0:
            raise NonMonotoneUpdate(f"covering rhs {j} must be positive: {new_rhs}")
        if not new_rhs < self.rhs_true_c[j]:
            raise NonMonotoneUpdate(f"covering rhs {j} must decrease")
        self.rhs_true_c[j] = new_rhs
        if self.rhs_applied_c[j] / new_rhs < 1.0 + self.eps:
            return self.current_outcome()
        factor = self.rhs_applied_c[j] / new_rhs
        self.rhs_applied_c[j] = new_rhs
        self.translation_counts[self.m_p + j] += 1
        self.stats.translations_applied += 1
        out = self.current_outcome()
        for k, v in list(self.crow[j].items()):
            out = self._relax_covering_entry(j, k, v * factor)
        return out

    # -- dual extraction -------------------------------------------------------------------

    def extract_packing_dual(self) -> np.ndarray:
        """Normalized covering weights as a packing dual; see the module notes.

        The (1+eps) scaling against the phase-snapshot total keeps the sum
        at or above one while every column stays below (1+eps)/(1+5 eps) <= 1.
        """
        if self.solved or not self.infeasible_declared:
            raise NotInfeasibleYet("dual extraction needs an infeasible verdict")
        log_scale = math.log1p(self.eps) - self.log_wstar_c
        return np.array([math.exp(-self.eta * self.S_c[j] + log_scale)
                         for j in range(self.m_c)])

    def wstar_sandwich_ok(self, tol: float = 1e-9) -> bool:
        lwc = math.log(self.tot_c) + self.off_c
        return lwc - tol <= self.log_wstar_c <= lwc + math.log1p(self.eps) + tol

    # -- invariant audits (test support) ------------------------------------------------------

    def invariant_report(self) -> dict[str, float]:
        """Worst slacks of the hat sandwiches (>= ~0 when the invariant holds)
        and the drift of the maintained hat-cost fractions.

        Only meaningful on live states: the solved exit returns before the
        final weight restoration, exactly like the boost subroutine's early
        return, so a solved state's hats are one step stale.
        """
        worst_c_lo = math.inf   # hat_wc >= wc
        worst_c_hi = math.inf   # hat_wc <= wc (1+eps)
        worst_p_hi = math.inf   # hat_wp <= wp
        worst_p_lo = math.inf   # hat_wp >= wp (1-eps)
        for j in range(self.m_c):
            lw = -self.eta * self.S_c[j]
            worst_c_lo = min(worst_c_lo, self.hat_lw_c[j] - lw)
            worst_c_hi = min(worst_c_hi, lw + math.log1p(self.eps) - self.hat_lw_c[j])
        for i in range(self.m_p):
            lw = self.eta * self.S_p[i]
            worst_p_hi = min(worst_p_hi, lw - self.hat_lw_p[i])
            worst_p_lo = min(worst_p_lo, self.hat_lw_p[i] - lw - math.log1p(-self.eps))
        lam_dev = 0.0
        bar = self._llam0() + math.log1p(5.0 * self.eps)
        for k in range(self.n):
            expect = self.hat_cost_log_direct(k)
            got = self.hat_cost_log(k)
            # mantissas flush terms ~e^-745 below the working scale, so the
            # two representations can disagree in raw logs when a column's
            # whole mass is negligible; they always agree as decisions, and
            # the audit compares exactly where the cheapness test can hear it
            if expect > bar + 30.0 and got > bar + 30.0:
                continue
            if expect < bar - 30.0 and got < bar - 30.0:
                continue
            if expect == got:
                continue
            lam_dev = max(lam_dev, abs(expect - got))
        return {"c_lo": worst_c_lo, "c_hi": worst_c_hi,
                "p_hi": worst_p_hi, "p_lo": worst_p_lo,
                "hat_lam_consistency": lam_dev,
                "lam0_floor": self.hat_llam0 - (self._llam0() + math.log1p(-self.eps))}


def solve_static_positive(instance: PositiveInstance,
                          audit_hook=None) -> tuple[Outcome, GreedyState]:
    state = GreedyState(instance, audit_hook=audit_hook)
    outcome = state.run_static()
    return outcome, state


def problem1_relaxing_state(C: SparseNonnegMatrix, eps: float,
                            L: float | None = None, U: float | None = None) -> GreedyState:
    """Greedy state over the encoding 1^T x <= 1, C x >= 1 used to keep a
    packing certificate alive under restricting column updates."""
    P = SparseNonnegMatrix(1, C.n)
    for j in range(C.n):
        P.set(0, j, 1.0)
    vals = [v for _, _, v in C.entries()] + [1.0]
    inst = PositiveInstance(P=P, C=C, L=L if L is not None else min(vals),
                            U=U if U is not None else max(vals), eps=eps)
    return GreedyState(inst)
