"""Reproducible random instances and monotone update streams.

All generators take an explicit ``numpy.random.Generator``; the CLI's
``gen`` command seeds one, so identical seeds give byte-identical files.
"""
from __future__ import annotations

import numpy as np

from .formats import SetLine
from .instances import (
    GeneralInstance,
    NormalizedCoveringInstance,
    PackingInstanceView,
    PositiveInstance,
)
from .sparse import SparseNonnegMatrix


def _random_sparse(rng: np.random.Generator, m: int, n: int, density: float,
                   lo: float, hi: float, nonempty_rows: bool = True) -> SparseNonnegMatrix:
    mat = SparseNonnegMatrix(m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                mat.set(i, j, float(rng.uniform(lo, hi)))
        if nonempty_rows and not mat.row_map(i):
            j = int(rng.integers(n))
            mat.set(i, j, float(rng.uniform(lo, hi)))
    return mat


def random_covering(rng: np.random.Generator, m: int, n: int, eps: float,
                    lam: float = 1.0, density: float = 0.5,
                    lo_frac: float = 0.5, hi_frac: float = 1.0,
                    nonempty_rows: bool = True,
                    hot_column: bool | int = False) -> NormalizedCoveringInstance:
    """Entries drawn from {0} union [lo_frac*lam, hi_frac*lam].

    ``hot_column`` plants one full-lambda column across every row (at the
    given index, or a random one when True), which keeps the covering
    optimum at one and makes the primal answer reachable.
    """
    C = _random_sparse(rng, m, n, density, lo_frac * lam, hi_frac * lam, nonempty_rows)
    if hot_column is not False:
        j = int(rng.integers(n)) if hot_column is True else int(hot_column)
        for i in range(m):
            C.set(i, j, lam)
    return NormalizedCoveringInstance(C=C, lam=lam, eps=eps)


def random_packing(rng: np.random.Generator, m: int, n: int, eps: float,
                   lam: float = 1.0, density: float = 0.5,
                   lo_frac: float = 0.5, hi_frac: float = 1.0) -> PackingInstanceView:
    P = _random_sparse(rng, m, n, density, lo_frac * lam, hi_frac * lam)
    return PackingInstanceView(P=P, lam=lam, eps=eps)


def random_general(rng: np.random.Generator, m: int, n: int,
                   L: float = 0.5, U: float = 2.0,
                   density: float = 0.6) -> GeneralInstance:
    C = _random_sparse(rng, m, n, density, L, U, nonempty_rows=True)
    a = rng.uniform(L, U, size=n)
    b = rng.uniform(L, U, size=m)
    return GeneralInstance(C=C, a=a, b=b, L=L, U=U)


def random_positive(rng: np.random.Generator, m_p: int, m_c: int, n: int,
                    eps: float = 1 / 200, L: float = 0.5, U: float = 2.0,
                    density: float = 0.7) -> PositiveInstance:
    P = _random_sparse(rng, m_p, n, density, L, U, nonempty_rows=False)
    C = _random_sparse(rng, m_c, n, density, L, U, nonempty_rows=True)
    return PositiveInstance(P=P, C=C, L=L, U=U, eps=eps)


def restricting_stream(rng: np.random.Generator, inst: NormalizedCoveringInstance,
                       tau: int, halve: bool = False) -> list[SetLine]:
    """Entry decreases on C; ``halve`` makes every step a geometric halving."""
    live = {(i, j): v for i, j, v in inst.C.entries()}
    out: list[SetLine] = []
    keys = list(live.keys())
    floor = 1e-12 * inst.lam
    while len(out) < tau and keys:
        idx = int(rng.integers(len(keys)))
        i, j = keys[idx]
        factor = 0.5 if halve else float(rng.uniform(0.3, 0.95))
        new = live[(i, j)] * factor
        if new < floor:
            new = 0.0
        out.append(SetLine("C", i, j, new))
        if new == 0.0:
            keys.pop(idx)
            del live[(i, j)]
        else:
            live[(i, j)] = new
    return out


def general_restricting_stream(rng: np.random.Generator, gen: GeneralInstance,
                               tau: int) -> list[SetLine]:
    """Mix of C decreases and a/b increases, all kept inside [L, U]; shorter
    than tau once every C entry is at L and every a and b at U."""
    live_C = {(i, j): v for i, j, v in gen.C.entries()}
    live_a = gen.a.copy()
    live_b = gen.b.copy()
    out: list[SetLine] = []
    keys = list(live_C.keys())
    # values that a later draw can still move; none left means no draw appends
    movable = (sum(v > gen.L for v in live_C.values())
               + int(np.sum(live_a < gen.U)) + int(np.sum(live_b < gen.U)))
    while len(out) < tau and movable:
        kind = rng.random()
        if kind < 0.5 and keys:
            idx = int(rng.integers(len(keys)))
            i, j = keys[idx]
            new = max(gen.L, live_C[(i, j)] * float(rng.uniform(0.5, 0.95)))
            if new < live_C[(i, j)]:
                live_C[(i, j)] = new
                out.append(SetLine("C", i, j, new))
                movable -= new == gen.L
        elif kind < 0.75:
            j = int(rng.integers(gen.n))
            new = min(gen.U, live_a[j] * float(rng.uniform(1.05, 1.5)))
            if new > live_a[j]:
                live_a[j] = new
                out.append(SetLine("a", None, j, new))
                movable -= new == gen.U
        else:
            i = int(rng.integers(gen.m))
            new = min(gen.U, live_b[i] * float(rng.uniform(1.05, 1.5)))
            if new > live_b[i]:
                live_b[i] = new
                out.append(SetLine("b", i, None, new))
                movable -= new == gen.U
    return out


def relaxing_stream_positive(rng: np.random.Generator, inst: PositiveInstance,
                             tau: int) -> list[SetLine]:
    """Relaxing events for a positive LP: P entries fall, C entries grow,
    packing RHS grows (`a` lines, indexed by packing row), covering RHS
    falls (`b` lines, indexed by covering row)."""
    live_P = {(i, j): v for i, j, v in inst.P.entries()}
    live_C = {(i, j): v for i, j, v in inst.C.entries()}
    rhs_p = np.ones(inst.m_p)
    rhs_c = np.ones(inst.m_c)
    out: list[SetLine] = []
    pkeys = list(live_P.keys())
    while len(out) < tau:
        roll = rng.random()
        if roll < 0.4 and pkeys:
            idx = int(rng.integers(len(pkeys)))
            i, j = pkeys[idx]
            new = live_P[(i, j)] * float(rng.uniform(0.5, 0.9))
            live_P[(i, j)] = new
            out.append(SetLine("P", i, j, new))
        elif roll < 0.8:
            i, j = int(rng.integers(inst.m_c)), int(rng.integers(inst.n))
            old = live_C.get((i, j), 0.0)
            new = old * float(rng.uniform(1.1, 2.0)) if old else float(rng.uniform(0.2, 1.0))
            live_C[(i, j)] = new
            out.append(SetLine("C", i, j, new))
        elif roll < 0.9:
            i = int(rng.integers(inst.m_p))
            rhs_p[i] *= float(rng.uniform(1.02, 1.3))
            out.append(SetLine("a", None, i, float(rhs_p[i])))
        else:
            j = int(rng.integers(inst.m_c))
            rhs_c[j] *= float(rng.uniform(0.75, 0.98))
            out.append(SetLine("b", j, None, float(rhs_c[j])))
    return out
