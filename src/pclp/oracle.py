"""Desk-scale exact ground truth in rational arithmetic.

The oracle answers two kinds of questions, both with Fraction arithmetic
so results are reproducible bit-for-bit:

* exact optima of small covering/packing LPs (two-phase simplex with
  Bland's rule; the tests cross-check it on tiny instances against an
  independent vertex enumeration in ``tests/reference.py``);
* exact feasibility of a mixed positive system P x <= (1+s) 1, C x >= 1.

Float inputs are rationalized exactly from their binary representation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sparse import SparseNonnegMatrix


class TooLarge(ValueError):
    pass


#: simplex is exact at any size, but callers promise desk scale
MAX_DIM = 24


@dataclass(frozen=True)
class ExactLPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None

    def value_float(self) -> float:
        assert self.value is not None
        return float(self.value)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    return Fraction(float(v))


def _frac_matrix(mat) -> list[list[Fraction]]:
    if isinstance(mat, SparseNonnegMatrix):
        dense = mat.to_dense()
    else:
        dense = np.asarray(mat, dtype=float)
    return [[_frac(dense[i, j]) for j in range(dense.shape[1])]
            for i in range(dense.shape[0])]


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    inv = Fraction(1) / piv
    tab[row] = [v * inv for v in tab[row]]
    for r, line in enumerate(tab):
        if r != row and line[col] != 0:
            factor = line[col]
            prow = tab[row]
            tab[r] = [v - factor * p for v, p in zip(line, prow)]
    basis[row] = col


def _simplex_phase(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction],
                   ncols: int) -> tuple[str, Fraction]:
    """Minimize cost over the current tableau; Bland's rule, so it terminates.

    ``ncols`` limits which columns may enter; the RHS is always the last
    tableau column.
    """
    m = len(tab)
    rhs = len(tab[0]) - 1
    while True:
        # reduced costs z_j = c_j - c_B B^-1 A_j
        red = list(cost)
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0:
                row = tab[r]
                for j in range(ncols):
                    if row[j] != 0:
                        red[j] -= cb * row[j]
        enter = -1
        for j in range(ncols):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            obj = Fraction(0)
            for r in range(m):
                obj += cost[basis[r]] * tab[r][rhs]
            return "optimal", obj
        leave = -1
        best: Fraction | None = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][rhs] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded", Fraction(0)
        _pivot(tab, basis, leave, enter)


def _solve_standard_min(A: list[list[Fraction]], b: list[Fraction],
                        c: list[Fraction]) -> ExactLPResult:
    """min c^T z  s.t.  A z = b, z >= 0. Rows with negative b are flipped."""
    m = len(A)
    nv = len(c)
    A = [list(row) for row in A]
    b = list(b)
    for r in range(m):
        if b[r] < 0:
            A[r] = [-v for v in A[r]]
            b[r] = -b[r]
    ncols = nv + m  # artificials appended
    tab = [A[r] + [Fraction(1) if k == r else Fraction(0) for k in range(m)] + [b[r]]
           for r in range(m)]
    basis = [nv + r for r in range(m)]
    phase1 = [Fraction(0)] * nv + [Fraction(1)] * m
    status, obj = _simplex_phase(tab, basis, phase1, ncols)
    assert status == "optimal"  # phase 1 is bounded below by zero
    if obj > 0:
        return ExactLPResult("infeasible")
    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= nv:
            enter = next((j for j in range(nv) if tab[r][j] != 0), -1)
            if enter < 0:
                continue  # redundant constraint
            _pivot(tab, basis, r, enter)
        keep.append(r)
    tab = [tab[r] for r in keep]
    basis = [basis[r] for r in keep]
    phase2 = list(c) + [Fraction(0)] * m
    status, obj = _simplex_phase(tab, basis, phase2, nv)
    if status == "unbounded":
        return ExactLPResult("unbounded")
    x = [Fraction(0)] * nv
    for r, bvar in enumerate(basis):
        if bvar < nv:
            x[bvar] = tab[r][-1]
    return ExactLPResult("optimal", obj, tuple(x))


# ---------------------------------------------------------------------------
# covering / packing optima
# ---------------------------------------------------------------------------

def solve_covering_exact(C, a=None, b=None) -> ExactLPResult:
    """Exact optimum of min a^T x  s.t.  C x >= b, x >= 0 (defaults a=b=1)."""
    Cf = _frac_matrix(C)
    m, n = len(Cf), len(Cf[0])
    if m > MAX_DIM or n > MAX_DIM:
        raise TooLarge(f"{m}x{n} exceeds oracle scale {MAX_DIM}")
    af = [_frac(v) for v in (a if a is not None else [1] * n)]
    bf = [_frac(v) for v in (b if b is not None else [1] * m)]
    # C x - s = b with surplus variables s
    A = [Cf[i] + [Fraction(-1) if k == i else Fraction(0) for k in range(m)]
         for i in range(m)]
    c = af + [Fraction(0)] * m
    res = _solve_standard_min(A, bf, c)
    if res.status != "optimal":
        return ExactLPResult(res.status)
    return ExactLPResult("optimal", res.value, res.x[:n])


def solve_packing_exact(C, a=None, b=None) -> ExactLPResult:
    """Exact optimum of max b^T y  s.t.  C^T y <= a, y >= 0 (defaults a=b=1)."""
    Cf = _frac_matrix(C)
    m, n = len(Cf), len(Cf[0])
    if m > MAX_DIM or n > MAX_DIM:
        raise TooLarge(f"{m}x{n} exceeds oracle scale {MAX_DIM}")
    af = [_frac(v) for v in (a if a is not None else [1] * n)]
    bf = [_frac(v) for v in (b if b is not None else [1] * m)]
    # rows of the standard form are the n constraints C^T y + s = a
    A = [[Cf[i][j] for i in range(m)] + [Fraction(1) if k == j else Fraction(0) for k in range(n)]
         for j in range(n)]
    c = [-v for v in bf] + [Fraction(0)] * n
    res = _solve_standard_min(A, af, c)
    if res.status != "optimal":
        return ExactLPResult(res.status)
    return ExactLPResult("optimal", -res.value, res.x[:m])


# ---------------------------------------------------------------------------
# positive feasibility
# ---------------------------------------------------------------------------

def positive_feasible_exact(P, C, slack=0) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide exactly whether some x >= 0 has P x <= (1+slack) 1 and C x >= 1."""
    Pf = _frac_matrix(P)
    Cf = _frac_matrix(C)
    mp, n = len(Pf), len(Pf[0])
    mc = len(Cf)
    if n > MAX_DIM or mp + mc > 2 * MAX_DIM:
        raise TooLarge(f"{mp}+{mc} x {n} exceeds oracle scale")
    s = Fraction(1) + _frac(slack)
    # P x + u = (1+slack) 1 ; C x - v = 1, via phase-1 feasibility only
    nv = n + mp + mc
    A = []
    rhs = []
    for i in range(mp):
        A.append(Pf[i]
                 + [Fraction(1) if k == i else Fraction(0) for k in range(mp)]
                 + [Fraction(0)] * mc)
        rhs.append(s)
    for j in range(mc):
        A.append(Cf[j]
                 + [Fraction(0)] * mp
                 + [Fraction(-1) if k == j else Fraction(0) for k in range(mc)])
        rhs.append(Fraction(1))
    res = _solve_standard_min(A, rhs, [Fraction(0)] * nv)
    if res.status != "optimal":
        return (False, None)
    return (True, res.x[:n])

