"""General packing-covering LPs reduced to standard-form solves per guess.

The pipeline: divide each entry by a_j b_i to reach standard form, lay a
geometric grid of guesses over the range the optimum can occupy, scale the
normalized matrix by each guess, and ask the standard solver to decide
that guess. A primal answer at guess mu recovers a covering solution of
objective exactly mu; a dual answer witnesses OPT >= mu/(1+4 eps). The
static and dynamic reductions locate the crossing between the two regions
with one search (``_crossing``): the grid is extended on demand in the
corner cases where its top does not answer primal, then bisected. Every
reduction extends its grid through ``GuessGrid.extend_up``, which gives up
after 64 extensions.

The dynamic, streaming and online wrappers run one standard solver per
guess and translate objective/RHS updates into entry updates against the
scaled matrices, ignoring changes until they accumulate a (1+eps) factor.
Each guess's solver is the one covering scan (``whack_static.WhackState``)
fed a different row source: the static probes and the dynamic solvers scan
the scaled matrix rows, and a dynamic update visits the rows it touched;
the streaming wrapper makes one physical pass over the normalized rows for
all guesses, visiting each row, scaled by the guess, once per guess whose
phase is still running (a guess added above the grid runs the same passes
on its own); the online wrapper's per-guess states visit each arriving row,
which it checks once for all guesses before any guess state changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .certificates import Outcome, OutcomeTag
from .formats import SetLine
from .instances import GeneralInstance, NormalizedCoveringInstance
from .online import OnlineState, check_columns
from .sparse import (IndexOutOfRange, NonMonotoneUpdate, SparseError, SparseNonnegMatrix,
                     UpdateEvent, UpdateKind)
from .whack_dynamic import DynamicWhackState, preprocess
from .whack_static import Step, WhackState, solve_fast


class ZeroScaleFactor(ValueError):
    pass


class GuessLadderExhausted(ValueError):
    """The guess grid was extended MAX_EXTENSIONS times without a primal answer."""


# ---------------------------------------------------------------------------
# normalization and guess grids
# ---------------------------------------------------------------------------

@dataclass
class NormalizedView:
    """C' with C'_ij = C_ij / (a_j b_i); guesses scale it to C'' = mu C'."""

    c_prime: SparseNonnegMatrix
    lam_unit: float  # upper bound U/L^2 on C' entries; lambda per guess is mu*lam_unit

    def instance_for(self, mu: float, eps: float) -> NormalizedCoveringInstance:
        scaled = SparseNonnegMatrix.from_entries(
            self.c_prime.m, self.c_prime.n,
            ((i, j, mu * v) for i, j, v in self.c_prime.entries()))
        return NormalizedCoveringInstance(C=scaled, lam=mu * self.lam_unit, eps=eps)


def normalize(gen: GeneralInstance) -> NormalizedView:
    if np.any(gen.a == 0) or np.any(gen.b == 0):
        raise ZeroScaleFactor("a and b must be strictly positive")
    a, b = gen.a, gen.b
    out = SparseNonnegMatrix.from_entries(
        gen.m, gen.n, ((i, j, v / (a[j] * b[i])) for i, j, v in gen.C.entries()))
    return NormalizedView(out, lam_unit=gen.U / (gen.L * gen.L))


#: extensions a guess grid allows above its top: a dual answer at guess mu
#: certifies OPT >= mu/(1+4eps), so on data in [L, U] a few always suffice
MAX_EXTENSIONS = 64


@dataclass
class GuessGrid:
    guesses: list[float]
    ratio: float
    extensions: int = 0

    def extend_up(self) -> float:
        if self.extensions == MAX_EXTENSIONS:
            raise GuessLadderExhausted(f"no guess answered primal within {MAX_EXTENSIONS} "
                                       "extensions above the guess grid")
        self.extensions += 1
        nxt = self.guesses[-1] * self.ratio
        self.guesses.append(nxt)
        return nxt

    def __len__(self) -> int:
        return len(self.guesses)


def guess_grid(n: int, L: float, U: float, eps: float) -> GuessGrid:
    """Geometric (1+eps) ladder from L^2/U up past n U^2/L."""
    lo = L * L / U
    hi = n * U * U / L
    guesses = [lo]
    while guesses[-1] < hi:
        guesses.append(guesses[-1] * (1.0 + eps))
    return GuessGrid(guesses, 1.0 + eps)


def _crossing(grid: GuessGrid, primal: Callable[[int], bool]) -> tuple[int, int]:
    """Indexes (lo, hi): hi is the smallest probed guess that answers primal,
    lo the largest probed one below it (-1 if none). The top is extended
    until it answers primal, then the grid is bisected."""
    hi = len(grid) - 1
    while not primal(hi):
        grid.extend_up()
        hi = len(grid) - 1
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if primal(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# static reduction
# ---------------------------------------------------------------------------

@dataclass
class GeneralSolution:
    x: np.ndarray
    y: np.ndarray | None
    objective: float
    dual_value: float | None
    primal_guess: float
    dual_guess: float | None
    probes: int
    per_guess: dict[float, str] = field(default_factory=dict)


def _lift_primal(gen: GeneralInstance, mu: float, x_std: np.ndarray) -> np.ndarray:
    # x'' solves the mu-scaled standard form; mu x''_j / a_j solves the original
    return mu * x_std / gen.a


def _lift_dual(gen: GeneralInstance, mu: float, y_std: np.ndarray, eps: float) -> np.ndarray:
    return mu * y_std / (gen.b * (1.0 + 4.0 * eps))


def solve_general_static(gen: GeneralInstance, eps: float) -> GeneralSolution:
    view = normalize(gen)
    grid = guess_grid(gen.n, gen.L, gen.U, eps)
    outcomes: dict[int, Outcome] = {}
    per_guess: dict[float, str] = {}  # one entry per probe: no guess is probed twice

    def probe(mu: float) -> Outcome:
        outcome, _ = solve_fast(view.instance_for(mu, eps))
        per_guess[mu] = outcome.tag.value
        return outcome

    def primal(idx: int) -> bool:
        if idx not in outcomes:
            outcomes[idx] = probe(grid.guesses[idx])
        return outcomes[idx].tag is OutcomeTag.COVERING_PRIMAL

    lo, hi = _crossing(grid, primal)
    mu_hi = grid.guesses[hi]
    x = _lift_primal(gen, mu_hi, outcomes[hi].vector)
    mu_lo, y = None, None
    if lo >= 0:
        mu_lo = grid.guesses[lo]
        y = _lift_dual(gen, mu_lo, outcomes[lo].vector, eps)
    else:
        # the bottom guess answered primal; probe below it for a dual witness
        mu = grid.guesses[0]
        for _ in range(8):
            mu /= grid.ratio
            outcome = probe(mu)
            if outcome.tag is OutcomeTag.PACKING_DUAL:
                mu_lo = mu
                y = _lift_dual(gen, mu, outcome.vector, eps)
                break
    return GeneralSolution(x=x, y=y, objective=float(gen.a @ x),
                           dual_value=None if y is None else float(gen.b @ y),
                           primal_guess=mu_hi, dual_guess=mu_lo, probes=len(per_guess),
                           per_guess=per_guess)


# ---------------------------------------------------------------------------
# dynamic reduction (restricting updates)
# ---------------------------------------------------------------------------

class GeneralDynamicSolver:
    """Per-guess dynamic solvers over C''; updates below a (1+eps) factor are
    absorbed into the applied-value lag and never touch a solver."""

    def __init__(self, gen: GeneralInstance, eps: float):
        self.eps = eps
        self.applied_a = gen.a.copy()
        self.applied_b = gen.b.copy()
        self.applied_C = gen.C.copy()
        self.view = normalize(gen)  # C' of the applied values, kept entry by entry
        self.grid = guess_grid(gen.n, gen.L, gen.U, eps)
        self.solvers: dict[int, DynamicWhackState] = {}
        _, self.hi = _crossing(self.grid, lambda idx: self._solver(idx).terminal is None)
        self.updates_seen = 0
        self.updates_applied = 0

    # -- solver pool ---------------------------------------------------------

    def _solver(self, idx: int) -> DynamicWhackState:
        # a solver built late preprocesses on the current applied matrix,
        # which is a legal starting point for the remaining update suffix
        if idx not in self.solvers:
            while idx >= len(self.grid):
                self.grid.extend_up()
            inst = self.view.instance_for(self.grid.guesses[idx], self.eps)
            state, _ = preprocess(inst)
            self.solvers[idx] = state
        return self.solvers[idx]

    # -- update handling -------------------------------------------------------

    def _push_entry(self, i: int, j: int) -> None:
        """Recompute C'_ij from the applied values and lower it in every live solver."""
        cprime = self.applied_C.get(i, j) / (self.applied_a[j] * self.applied_b[i])
        self.view.c_prime.set(i, j, cprime)
        for idx, solver in self.solvers.items():
            if solver.terminal is None:
                solver.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, i, j,
                                                 self.grid.guesses[idx] * cprime))

    def apply(self, line: SetLine) -> tuple[float, np.ndarray]:
        """Apply one restricting update; returns (objective guess, x)."""
        new, C = line.value, self.applied_C
        if line.target == "C":
            name, falls, index, size = (f"C[{line.row},{line.col}]", True,
                                        (line.row, line.col), (C.m, C.n))
        elif line.target == "a":
            name, falls, index, size = f"a[{line.col}]", False, (line.col,), (C.n,)
        elif line.target == "b":
            name, falls, index, size = f"b[{line.row}]", False, (line.row,), (C.m,)
        else:
            raise NonMonotoneUpdate(f"unknown restricting target {line.target!r}")
        if not all(0 <= k < bound for k, bound in zip(index, size)):
            raise IndexOutOfRange(f"set {line.target}: {name} outside shape {size}")
        self.updates_seen += 1
        if line.target == "C":
            old = C.get(line.row, line.col)
        else:
            old = (self.applied_a if line.target == "a" else self.applied_b)[index[0]]
        low, high = (new, old) if falls else (old, new)
        if low > high:
            raise NonMonotoneUpdate(f"{name} must {'decrease' if falls else 'increase'}: "
                                    f"{new} {'>' if falls else '<'} {old}")
        if low == high or (low > 0 and high / low < 1.0 + self.eps):
            return self.current()  # not meaningful yet
        if line.target == "C" and new == 0.0 and len(C.row_map(line.row)) == 1:
            raise SparseError(f"{name} = 0 empties row {line.row}: the LP becomes infeasible")
        self.updates_applied += 1
        if line.target == "C":
            C.set(line.row, line.col, new)
            touched = [(line.row, line.col)]
        elif line.target == "a":
            self.applied_a[line.col] = new
            touched = [(int(i), line.col) for i in C.col(line.col)[0]]
        else:
            self.applied_b[line.row] = new
            touched = [(line.row, int(j)) for j in C.row(line.row)[0]]
        for i, j in touched:
            self._push_entry(i, j)
        return self.current()

    def current(self) -> tuple[float, np.ndarray]:
        """Smallest guess still holding a primal, and its lifted solution."""
        while self._solver(self.hi).terminal is not None:
            self.hi += 1
        solver = self.solvers[self.hi]
        mu = self.grid.guesses[self.hi]
        x_std = solver.maintained_vector()
        return mu, mu * x_std / self.applied_a


def solve_general_dynamic(gen: GeneralInstance, events: list[SetLine],
                          eps: float) -> tuple[GeneralDynamicSolver, list[tuple[float, np.ndarray]]]:
    solver = GeneralDynamicSolver(gen, eps)
    history = [solver.current()]
    for line in events:
        history.append(solver.apply(line))
    return solver, history


# ---------------------------------------------------------------------------
# streaming reduction
# ---------------------------------------------------------------------------

@dataclass
class GeneralStreamResult:
    x: np.ndarray
    objective: float
    primal_guess: float
    physical_passes: int
    passes_total: int
    per_guess_passes: dict[float, int]


def solve_general_stream(gen: GeneralInstance, eps: float) -> GeneralStreamResult:
    """Lifted primal of the smallest primal guess; no per-guess dual tallies
    are kept, since only the primal answer is lifted."""
    view = normalize(gen)
    grid = guess_grid(gen.n, gen.L, gen.U, eps)
    states = [WhackState(gen.n, mu * view.lam_unit, eps) for mu in grid.guesses]
    outcomes: dict[int, Outcome] = {}
    physical = 0

    def run(live: list[int]) -> None:
        # one physical pass serves every guess still running: each is anchored at
        # the pass start and visits the pass's rows until its phase breaks
        nonlocal physical
        while live:
            physical += 1
            for idx in live:
                states[idx].start_phase()
            running = live
            for i, cols, vals in view.c_prime.rows():
                still = []
                for idx in running:
                    step = states[idx].visit(i, cols, grid.guesses[idx] * vals)
                    if step is Step.BUDGET:
                        outcomes[idx] = states[idx].budget_outcome()
                    elif step is None:
                        still.append(idx)
                running = still
                if not running:
                    break
            for idx in running:
                outcomes[idx] = states[idx].primal_outcome()
            live = [idx for idx in live if idx not in outcomes]

    def primal(idx: int) -> bool:
        return outcomes[idx].tag is OutcomeTag.COVERING_PRIMAL

    run(list(range(len(states))))
    while not any(map(primal, outcomes)):
        # the top guess can sit inside the dual-capable band just above the
        # optimum; a guess added above it runs the same passes on its own
        states.append(WhackState(gen.n, grid.extend_up() * view.lam_unit, eps))
        run([len(states) - 1])
    hi = next(filter(primal, range(len(states))))
    per_guess_passes = {mu: state.stats.phases for mu, state in zip(grid.guesses, states)}
    mu = grid.guesses[hi]
    x = _lift_primal(gen, mu, outcomes[hi].vector)
    return GeneralStreamResult(x=x, objective=float(gen.a @ x), primal_guess=mu,
                               physical_passes=physical,
                               passes_total=sum(per_guess_passes.values()),
                               per_guess_passes=per_guess_passes)


# ---------------------------------------------------------------------------
# online reduction
# ---------------------------------------------------------------------------

class GeneralOnlineSolver:
    """Rows of the general covering LP arrive with their RHS entries."""

    def __init__(self, gen_n: int, a: np.ndarray, L: float, U: float, eps: float):
        self.a = np.asarray(a, dtype=float)
        self.eps = eps
        self.n = gen_n
        self.lam_unit = U / (L * L)
        self.grid = guess_grid(gen_n, L, U, eps)
        self.states = [OnlineState(gen_n, mu * self.lam_unit, eps)
                       for mu in self.grid.guesses]
        self.seen_rows: list[tuple[np.ndarray, np.ndarray]] = []  # (cols, C' entries)

    def insert_constraint(self, cols, vals, b_i: float) -> tuple[float, np.ndarray]:
        """Add the constraint sum_j vals_j x_j >= b_i to every live guess.

        The constraint is checked once for all guesses, before any guess
        state changes. It raises ValueError when the row is empty, a column
        is out of range or repeated, b_i is not positive or an entry
        C'_ij = vals_j / (a_j b_i) is not finite and nonnegative, and when
        some live guess mu cannot take it, mu max C' being above that
        guess's lambda: rounding is monotone, so that is the bound
        ``OnlineState.insert_row`` checks on the row mu C'. Each live guess
        then appends the one shared, never changed column array with its
        own mu C'."""
        cols = np.array(cols, dtype=np.int64)  # a copy: every guess stores it
        vals = np.asarray(vals, dtype=np.float64)
        if not len(cols):
            raise ValueError("an empty row cannot be covered: the LP is infeasible")
        check_columns(cols, self.n)
        if not b_i > 0.0:
            raise ValueError(f"the right-hand side must be positive: {b_i}")
        prime = vals / (self.a[cols] * b_i)
        top = prime.item(prime.argmax())
        # a NaN is the extreme both return, and fails the comparison
        if not (prime.item(prime.argmin()) >= 0.0 and top < math.inf):
            raise ValueError("row entries must be finite and nonnegative")
        live = [(mu, state) for mu, state in zip(self.grid.guesses, self.states)
                if state.terminal is None]
        if any(mu * top > state.lam for mu, state in live):
            raise ValueError("row entries must lie in [0, lambda]")
        self.seen_rows.append((cols, prime))
        for mu, state in live:
            state.append_row(cols, mu * prime)
        while all(s.terminal is not None for s in self.states):
            # every guess answered dual: one above the grid replays the rows seen
            mu = self.grid.extend_up()
            state = OnlineState(self.n, mu * self.lam_unit, self.eps)
            for seen_cols, seen_prime in self.seen_rows:
                if state.terminal is not None:
                    break
                state.insert_row(seen_cols, mu * seen_prime)
            self.states.append(state)
        return self.current()

    def current(self) -> tuple[float, np.ndarray]:
        for idx, state in enumerate(self.states):
            if state.terminal is None:
                mu = self.grid.guesses[idx]
                return mu, mu * state.maintained_vector() / self.a
        raise RuntimeError("no live guess")  # pragma: no cover

    def recourse_total(self) -> int:
        return sum(s.recourse for s in self.states)
