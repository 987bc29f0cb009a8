"""Audits, brute-force references and replays that only the tests run.

Most functions recompute from scratch, or by a plain scan, a quantity that
a solver in ``pclp`` maintains or searches for, so the tests can compare
the two; the replays drive a solver the same way in more than one test
file. The greedy audits take a ``GreedyState`` as their first argument.
"""
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from pclp.certificates import ABS_TOL, OutcomeTag
from pclp.greedy import _logsumexp
from pclp.oracle import ExactLPResult, TooLarge, _frac, _frac_matrix
from pclp.sparse import SparseNonnegMatrix
from pclp.whack_static import covering_step, total_rounds


class UnboundedCost(ValueError):
    """Column absent from the covering matrix; never cheap."""


# -- greedy state audits -------------------------------------------------------

def apply_relaxing(st, inst, ev) -> bool:
    """Apply one event of a relaxing stream to ``st``; False for an entry
    event that does not relax the entry it names."""
    if (ev.target == "P" and not inst.P.get(ev.row, ev.col) > ev.value
            or ev.target == "C" and not inst.C.get(ev.row, ev.col) < ev.value):
        return False
    st.apply(ev)
    return True


def hat_cost_log(st, k: int) -> float:
    """log of hat-lambda(k) from the maintained column fractions."""
    if st.hatD[k] <= 0.0:
        return math.inf
    if st.hatN[k] <= 0.0:
        return -math.inf
    return math.log(st.hatN[k]) + st.off_p - math.log(st.hatD[k]) - st.off_c


def hat_cost_log_direct(st, k: int) -> float:
    """Same quantity recomputed from scratch; audit cross-check."""
    num = _logsumexp([st.hat_lw_p[i] + math.log(v) for i, v in st.pcol[k].items()])
    den = _logsumexp([st.hat_lw_c[j] + math.log(v) for j, v in st.ccol[k].items()])
    if den == -math.inf:
        return math.inf
    return num - den


def exact_cost_log(st, k: int) -> float:
    eta = st.eta
    num = _logsumexp([eta * st.S_p[i] + math.log(v) for i, v in st.pcol[k].items()])
    den = _logsumexp([-eta * st.S_c[j] + math.log(v) for j, v in st.ccol[k].items()])
    if den == -math.inf:
        raise UnboundedCost(f"column {k} has no covering entries")
    return num - den


def cost_gradient_logs(st, inst, x: np.ndarray, h: float = 1e-6):
    """Move ``st`` to the dots of ``x`` and yield, for each column k whose two
    gradients are measurable, exact_cost_log(st, k) and the log of
    (grad f_p . e_k / grad f_c . e_k) lambda_0(x): the gradients of the
    smoothed packing max f_p and covering min f_c, by central differences."""
    Pd, Cd = inst.P.to_dense(), inst.C.to_dense()
    for i in range(st.m_p):
        st.S_p[i] = float(Pd[i] @ x)
    for j in range(st.m_c):
        st.S_c[j] = float(Cd[j] @ x)
    st._resync()
    eta = st.eta

    def f_p(xv):
        z = eta * (Pd @ xv)
        hi = z.max()
        return (hi + math.log(np.exp(z - hi).sum())) / eta

    def f_c(xv):
        z = -eta * (Cd @ xv)
        hi = z.max()
        return -(hi + math.log(np.exp(z - hi).sum())) / eta

    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        gp = (f_p(x + e) - f_p(x - e)) / (2 * h)
        gc = (f_c(x + e) - f_c(x - e)) / (2 * h)
        if gp < 1e-12 or gc < 1e-12:
            continue
        yield exact_cost_log(st, k), math.log(gp) - math.log(gc) + st._llam0()


def cheap(st, k: int) -> bool:
    """The boost run's cheapness test: hatN/tot_p and hatD/tot_c share their
    offsets, so the (1+5eps) comparison against lambda_0 reduces to mantissa
    products."""
    return st.hatN[k] * st.tot_c <= st.cheap_factor * st.hatD[k] * st.tot_p


def exact_delta(st, k: int) -> float:
    """Ground-truth boost increment from live values; inf when nothing binds."""
    top = 0.0
    for v in st.pcol[k].values():
        if v > top:
            top = v
    for j, v in st.ccol[k].items():
        if st.S_c[j] < 2.0 and v > top:
            top = v
    if top == 0.0:
        return math.inf
    return (st.eps / st.eta) / top


def wstar_sandwich_ok(st, tol: float = 1e-9) -> bool:
    lwc = math.log(st.tot_c) + st.off_c
    return lwc - tol <= st.log_wstar_c <= lwc + math.log1p(st.eps) + tol


def invariant_report(st) -> dict[str, float]:
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
    for j in range(st.m_c):
        lw = -st.eta * st.S_c[j]
        worst_c_lo = min(worst_c_lo, st.hat_lw_c[j] - lw)
        worst_c_hi = min(worst_c_hi, lw + math.log1p(st.eps) - st.hat_lw_c[j])
    for i in range(st.m_p):
        lw = st.eta * st.S_p[i]
        worst_p_hi = min(worst_p_hi, lw - st.hat_lw_p[i])
        worst_p_lo = min(worst_p_lo, st.hat_lw_p[i] - lw - math.log1p(-st.eps))
    lam_dev = 0.0
    bar = st._llam0() + math.log1p(5.0 * st.eps)
    for k in range(st.n):
        expect = hat_cost_log_direct(st, k)
        got = hat_cost_log(st, k)
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
            "lam0_floor": st.hat_llam0 - (st._llam0() + math.log1p(-st.eps))}


def replay_fast_as_basic(inst, outcome, stats):
    """Expand a fast covering run's trace round for round under the T-round
    template's rules: every whacked row is violated when it is whacked, a
    packing dual is the tallies over the rounds, after T rounds or fewer with
    max C^T y <= 1 + 2 eps (the stop rule, recomputed here with ``rmatvec``),
    and a primal is the weights the rounds reach, with C x >= 1 - eps."""
    C, lam, eps = inst.C, inst.lam, inst.eps
    x_hat = np.ones(inst.n)
    rounds = 0
    for i, delta in stats.trace:
        cols, vals = C.row(i)
        for _ in range(delta):
            x = x_hat / x_hat.sum()
            assert C.dot_row(i, x) < 1.0 + 1e-12
            if len(cols):
                x_hat[cols] *= 1.0 + eps * vals / lam
            rounds += 1
    if outcome.tag is OutcomeTag.PACKING_DUAL:
        T = total_rounds(lam, inst.n, eps)
        counts = np.zeros(inst.m)
        for i, delta in stats.trace:
            counts[i] += delta
        assert rounds == T or (rounds < T and float(C.rmatvec(counts / rounds).max())
                                <= 1.0 + 2.0 * eps + ABS_TOL)
        assert np.allclose(counts / rounds, outcome.vector)
    else:
        x = x_hat / x_hat.sum()
        assert np.all(C.matvec(x) >= 1.0 - eps - 1e-9)
        assert np.allclose(x, outcome.vector, atol=1e-9)


def diagonal_with_column(n: int, big: float, c: float) -> SparseNonnegMatrix:
    """n x (n + 1) matrix with ``big`` on the diagonal and ``c`` in every row of
    the last column. Every y on the simplex has (M^T y)_n = c, so no tallies
    certify a dual when c > 1 + 2 eps (covering) or c < 1 - 2 eps (packing),
    and the run goes on until it finds a primal or spends T. With big just
    under n (covering) or just over it (packing) the diagonal alone cannot be
    satisfied, so the run is deep while the last column takes over."""
    entries = [(i, i, big) for i in range(n)] + [(i, n, c) for i in range(n)]
    return SparseNonnegMatrix.from_entries(n, n + 1, entries)


# -- step sizes ----------------------------------------------------------------

def row_step_size(vals: np.ndarray, xh: np.ndarray, lam: float, eps: float,
                  W: float, budget: int) -> int:
    """Support-level step size: smallest d in [1, budget] with
    sum_j vals_j (1 + eps vals_j/lam)^d xh_j >= W, capped at ``budget``
    when even the full power falls short (all-zero rows included). The
    search is ``whack_static.covering_step``, the static scan's own."""
    if len(vals) == 0:
        return budget
    rate = np.log1p(eps * vals / lam)
    return covering_step(vals * xh, rate, float(rate.max()), float(vals.dot(xh)), W, budget)[0]


def brute_force_step_size(row_vals: Sequence[float], x_hat: Sequence[float],
                          lam: float, eps: float, W: float, budget: int) -> int:
    """Smallest integer d in [1, budget] with sum_j v_j (1+eps v_j/lam)^d xh_j >= W.

    Linear scan with iterated multiplication, capped at ``budget`` when even
    the full power falls short (the all-zero-row case ends up here too).
    """
    vals = np.asarray(row_vals, dtype=float)
    z = np.asarray(x_hat, dtype=float).copy()
    factors = 1.0 + eps * vals / lam
    for d in range(1, budget + 1):
        z = z * factors
        if float(vals @ z) >= W:
            return d
    return budget


def brute_force_delta(P: SparseNonnegMatrix, C: SparseNonnegMatrix,
                      x: Sequence[float], k: int, eps: float, eta: float) -> float:
    """Exact boost increment: largest d with every binding entry's move <= eps/eta.

    Binding entries are the packing column and the covering column restricted
    to rows with C_j x < 2. Returns inf when nothing binds.
    """
    xv = np.asarray(x, dtype=float)
    top = 0.0
    _, pvals = P.col(k)
    if len(pvals):
        top = float(pvals.max())
    crows, cvals = C.col(k)
    for j, v in zip(crows, cvals):
        if C.dot_row(int(j), xv) < 2.0 and v > top:
            top = float(v)
    if top == 0.0:
        return math.inf
    return (eps / eta) / top


# -- exact optima by vertex enumeration ----------------------------------------

def solve_covering_exact_vertex(C, a=None, b=None) -> ExactLPResult:
    """Vertex enumeration over tight-constraint subsets; independent of the
    oracle's simplex, which it cross-checks.

    Only for tiny instances: C(m+n, n) subsets are solved exactly.
    """
    Cf = _frac_matrix(C)
    m, n = len(Cf), len(Cf[0])
    if math.comb(m + n, n) > 4000:
        raise TooLarge(f"vertex enumeration over {m + n} choose {n} subsets")
    af = [_frac(v) for v in (a if a is not None else [1] * n)]
    bf = [_frac(v) for v in (b if b is not None else [1] * m)]
    # constraint rows: first m are C_i x = b_i, last n are x_j = 0
    best: Fraction | None = None
    best_x: tuple[Fraction, ...] | None = None
    for subset in itertools.combinations(range(m + n), n):
        rows = []
        rhs = []
        for s in subset:
            if s < m:
                rows.append(list(Cf[s]))
                rhs.append(bf[s])
            else:
                rows.append([Fraction(1) if k == s - m else Fraction(0) for k in range(n)])
                rhs.append(Fraction(0))
        x = _gauss_solve(rows, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(Cf[i][j] * x[j] for j in range(n)) < bf[i] for i in range(m)):
            continue
        val = sum(af[j] * x[j] for j in range(n))
        if best is None or val < best:
            best = val
            best_x = tuple(x)
    if best is None:
        return ExactLPResult("infeasible")
    return ExactLPResult("optimal", best, best_x)


def _gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    n = len(rows)
    aug = [list(rows[r]) + [rhs[r]] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), -1)
        if piv < 0:
            return None  # singular
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]
