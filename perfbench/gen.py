"""Seeded inputs for the benchmark, written in pclp's documented text format.

The benchmark does not use ``pclp.generate``: a change to the program's own
generator must not silently change a workload. Each builder draws from the
``numpy.random.Generator`` it is given, so the same seed gives byte-identical
files, and returns the benchmark's own copy of the arrays next to the text
the program parses; the output checks use that copy.

Every instance is a base instance, drawn once from a constant seed, that
the run's seed jitters (every value moved by a fraction of a percent). The
base fixes how hard the instance is and the order of its rows (scan order
and arrival order); the seed changes the files and the solvers' arithmetic
but not the difficulty. Fresh random draws of the same shapes vary too much
for runs on different seeds to agree: the solvers' phase counts near a
threshold spread 15-25% between seeds (interquartile range), and random
4x4x4 positive instances take anywhere from 1 ms to 2 s in the greedy
solver. Random row and column permutations of the base spread enforcement
counts by 11-12%; jitter alone spreads them by 2-7%.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Matrix:
    """Coordinate copy of one matrix: entries sorted by (row, col)."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        out[self.rows, self.cols] = self.vals
        return out

    def lines(self, name: str) -> list[str]:
        return [f"{name} {i} {j} {v!r}"
                for i, j, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())]


def fixed_support(rng: np.random.Generator, m: int, n: int, k: int,
                  lo: float, hi: float) -> Matrix:
    """m x n matrix, exactly k nonzeros per row, values uniform in [lo, hi]."""
    cols = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1)
    vals = rng.uniform(lo, hi, size=(m, k))
    return Matrix(m, n, np.repeat(np.arange(m), k), cols.ravel(), vals.ravel())


def regular_support(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a k-regular n x n support, sorted by (row, col).

    Row i holds columns sigma((pi(i) + s) mod n) for k distinct random shifts
    s, so every row and every column has exactly k entries. The shifts are
    redrawn until their differences generate Z_n, which keeps the support
    connected.
    """
    while True:
        shifts = rng.choice(n, size=k, replace=False)
        if math.gcd(n, *(int(s - shifts[0]) for s in shifts[1:])) == 1:
            break
    pi, sigma = rng.permutation(n), rng.permutation(n)
    cols = np.sort(sigma[(pi[:, None] + shifts[None, :]) % n], axis=1)
    return np.repeat(np.arange(n), k), cols.ravel()


# -- standard form -------------------------------------------------------------

@dataclass
class StandardForm:
    kind: str  # "covering" or "packing"
    lam: float
    mat: Matrix

    def text(self) -> str:
        name = "C" if self.kind == "covering" else "P"
        head = f"{self.kind} {self.mat.m} {self.mat.n} {self.lam!r}"
        return "\n".join([head] + self.mat.lines(name)) + "\n"


def planted_game(rng: np.random.Generator, kind: str, n: int, k: int, value: float,
                 spread: float = 0.6, lam_ratio: float = 2.6) -> StandardForm:
    """n x n instance A whose game value max_x min_i (A x)_i over the simplex
    is exactly ``value``, with lambda = lam_ratio * value * n / k.

    Random k-regular support and base values B in [0.5, 1]; random
    non-uniform points x* and y* on the simplex (coordinates drawn from
    [1 - spread, 1 + spread] before normalising). Sinkhorn scaling finds
    A = diag(r) B diag(c) with A x* = value 1 and A^T y* = value 1, so x*
    proves the value is at least ``value`` and y* that it is at most.
    Lambda sets the solver's round budget, so it is fixed by the shape
    rather than by the largest entry; a draw with an entry above it, or
    whose scaling does not converge, is redrawn (about one in ten at the
    default ratio).
    """
    lam = lam_ratio * value * n / k
    while True:
        rows, cols = regular_support(rng, n, k)
        base = rng.uniform(0.5, 1.0, size=rows.size)
        x = rng.uniform(1.0 - spread, 1.0 + spread, size=n)
        y = rng.uniform(1.0 - spread, 1.0 + spread, size=n)
        x /= x.sum()
        y /= y.sum()
        # M = diag(u) B diag(w) with row sums y and column sums x
        u, w = np.ones(n), np.ones(n)
        for _ in range(5000):
            u = y / np.bincount(rows, base * w[cols], minlength=n)
            w = x / np.bincount(cols, base * u[rows], minlength=n)
            row_sums = np.bincount(rows, u[rows] * base * w[cols], minlength=n)
            if np.max(np.abs(row_sums / y - 1.0)) < 1e-13:
                vals = value * u[rows] * base * w[cols] / (y[rows] * x[cols])
                if vals.max() <= lam:
                    return StandardForm(kind, lam, Matrix(n, n, rows, cols, vals))
                break


def jittered(rng: np.random.Generator, base: StandardForm, jitter: float) -> StandardForm:
    """The base instance with every value multiplied by a factor in
    [1 - jitter, 1 + jitter]; lambda grows by the same (1 + jitter). The game
    value moves by at most that factor."""
    m = base.mat
    vals = m.vals * rng.uniform(1.0 - jitter, 1.0 + jitter, size=m.vals.size)
    return StandardForm(base.kind, base.lam * (1.0 + jitter), Matrix(m.m, m.n, m.rows, m.cols, vals))


def restricting_stream(rng: np.random.Generator, mat: Matrix,
                       count: int) -> list[tuple[int, int, float]]:
    """Up to ``count`` strictly decreasing entry updates over the live entries.

    Each picks a random live entry and multiplies it by a factor in
    [0.3, 0.95]; an entry that falls below 1e-12 is set to zero and leaves
    the live set. The stream ends early once every entry is zero.
    """
    live = {(int(i), int(j)): float(v) for i, j, v in zip(mat.rows, mat.cols, mat.vals)}
    keys = sorted(live)
    out = []
    for p, f in zip(rng.random(count).tolist(), rng.uniform(0.3, 0.95, size=count).tolist()):
        if not keys:
            break
        idx = int(p * len(keys))
        key = keys[idx]
        new = live[key] * f
        if new < 1e-12:
            new = 0.0
            keys.pop(idx)
            del live[key]
        else:
            live[key] = new
        out.append((key[0], key[1], new))
    return out


def updates_text(stream: list[tuple[int, int, float]]) -> str:
    return "\n".join(f"set C {i} {j} {v!r}" for i, j, v in stream) + "\n"


# -- general LP ----------------------------------------------------------------

@dataclass
class General:
    C: Matrix
    a: np.ndarray
    b: np.ndarray
    opt: float       # exact optimum, a^T x* = b^T y*
    x: np.ndarray    # planted primal optimum x*
    y: np.ndarray    # planted dual optimum y*
    L: float
    U: float

    def text(self) -> str:
        out = [f"general {self.C.m} {self.C.n}"] + self.C.lines("C")
        out += [f"a {j} {v!r}" for j, v in enumerate(self.a.tolist())]
        out += [f"b {i} {v!r}" for i, v in enumerate(self.b.tolist())]
        return "\n".join(out) + "\n"


def general(rng: np.random.Generator, n: int, k: int, eps: float,
            L: float = 0.7, U: float = 1.4, position: float = 0.5) -> General:
    """n x n general LP (min a^T x, C x >= b) with a planted optimum.

    C has a k-regular support with values in [0.85, 1.2], except for one
    entry L and one entry U, which fix the parsed value range and with it
    the program's (1+eps) guess ladder starting at L^2/U. Positive x* and
    y* give b = C x* and a = C^T y*: both are feasible and complementary, so
    OPT = a^T x* = b^T y* exactly. x* and y* are scaled alike so that OPT
    sits at ``position`` between two rungs of the ladder.
    """
    rows, cols = regular_support(rng, n, k)
    vals = rng.uniform(0.85, 1.2, size=rows.size)
    vals[0], vals[1] = L, U
    x = rng.uniform(0.95, 1.05, size=n) / k
    y = rng.uniform(0.95, 1.05, size=n) / k
    opt = float(y @ np.bincount(rows, vals * x[cols], minlength=n))
    rung = float(np.log(opt / (L * L / U)) / np.log1p(eps))
    scale = np.sqrt((1.0 + eps) ** (math.floor(rung) + position - rung))
    return planted_lp(Matrix(n, n, rows, cols, vals), x * scale, y * scale, L, U)


def planted_lp(C: Matrix, x: np.ndarray, y: np.ndarray, L: float, U: float) -> General:
    b = np.bincount(C.rows, C.vals * x[C.cols], minlength=C.m)
    a = np.bincount(C.cols, C.vals * y[C.rows], minlength=C.n)
    if not (b.min() > L and b.max() < U and a.min() > L and a.max() < U):
        raise ValueError("planted right-hand side or objective left [L, U]")
    return General(C, a, b, float(y @ b), x, y, L, U)


def jittered_general(rng: np.random.Generator, base: General, jitter: float) -> General:
    """The base LP with every entry of C other than its L and U entries
    jittered by [1 - jitter, 1 + jitter]; a and b are recomputed from x* and
    y*, so OPT stays exact."""
    C = base.C
    vals = C.vals * rng.uniform(1.0 - jitter, 1.0 + jitter, size=C.vals.size)
    keep = (C.vals == base.L) | (C.vals == base.U)
    vals[keep] = C.vals[keep]
    return planted_lp(Matrix(C.m, C.n, C.rows, C.cols, vals), base.x, base.y, base.L, base.U)


# -- mixed positive ------------------------------------------------------------

@dataclass
class Positive:
    P: Matrix
    C: Matrix
    # relaxing events: ("P" | "C", row, col, value) or ("a" | "b", row, value)
    stream: list = field(default_factory=list)

    def text(self) -> str:
        head = f"positive {self.P.m} {self.C.m} {self.P.n}"
        return "\n".join([head] + self.P.lines("P") + self.C.lines("C")) + "\n"

    def stream_text(self) -> str:
        out = []
        for ev in self.stream:
            if ev[0] in ("P", "C"):
                out.append(f"set {ev[0]} {ev[1]} {ev[2]} {ev[3]!r}")
            else:
                out.append(f"set {ev[0]} {ev[1]} {ev[2]!r}")
        return "\n".join(out) + "\n"


def positive(rng: np.random.Generator, base_seed: int, m_p: int, m_c: int, n: int,
             k: int, jitter: float = 0.02, stream: int = 0) -> Positive:
    """Base pattern from ``base_seed`` (k nonzeros per row, values in
    [0.5, 2]), every value multiplied by a factor in [1 - jitter, 1 + jitter]
    drawn from ``rng``; optionally ``stream`` relaxing events whose choices
    also come from the base seed."""
    base = np.random.default_rng(base_seed)
    P = fixed_support(base, m_p, n, k, 0.5, 2.0)
    C = fixed_support(base, m_c, n, k, 0.5, 2.0)
    P.vals = P.vals * rng.uniform(1.0 - jitter, 1.0 + jitter, size=P.vals.size)
    C.vals = C.vals * rng.uniform(1.0 - jitter, 1.0 + jitter, size=C.vals.size)
    pos = Positive(P, C)
    if stream:
        relaxing_stream(base, pos, stream)
    return pos


def relaxing_stream(rng: np.random.Generator, pos: Positive, count: int) -> None:
    """Append ``count`` relaxing events to ``pos.stream``.

    Packing row 0 and covering row 0 only see right-hand-side moves
    (``set a 0 v`` raises the packing bound by 2-30%, ``set b 0 v`` lowers
    the covering bound by 2-25%; either is past the solver's (1+eps) lag
    for eps <= 1/200, so it applies at once). Every other row only sees
    entry moves (P entries fall by 10-50%, C entries rise by 10-100%).

    The split keeps a known defect from showing: ``translate_packing_rhs``
    and ``translate_covering_rhs`` (pclp/greedy.py) rescale the stored row
    in place, so a later entry move on the same row is compared in the
    rescaled units and rejected (see the FOUND line on greedy.py in
    CHANGES.md). Once that is fixed, drop the split so that rows with both
    kinds of move are measured too.
    """
    P = {(int(i), int(j)): float(v) for i, j, v in zip(pos.P.rows, pos.P.cols, pos.P.vals)}
    C = {(int(i), int(j)): float(v) for i, j, v in zip(pos.C.rows, pos.C.cols, pos.C.vals)}
    pkeys = sorted(key for key in P if key[0] != 0)
    ckeys = sorted(key for key in C if key[0] != 0)
    rhs_p = rhs_c = 1.0
    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.4 and pkeys:
            key = pkeys[int(rng.integers(len(pkeys)))]
            P[key] *= float(rng.uniform(0.5, 0.9))
            pos.stream.append(("P", key[0], key[1], P[key]))
        elif roll < 0.8 and ckeys:
            key = ckeys[int(rng.integers(len(ckeys)))]
            C[key] *= float(rng.uniform(1.1, 2.0))
            pos.stream.append(("C", key[0], key[1], C[key]))
        elif roll < 0.9:
            rhs_p *= float(rng.uniform(1.02, 1.3))
            pos.stream.append(("a", 0, rhs_p))
        else:
            rhs_c *= float(rng.uniform(0.75, 0.98))
            pos.stream.append(("b", 0, rhs_c))
