"""General packing-covering LPs reduced to standard-form solves per guess.

The pipeline: divide each entry by a_j b_i to reach standard form, lay a
geometric grid of guesses over the range the optimum can occupy, scale the
normalized matrix by each guess, and ask the standard solver to decide
that guess. A primal answer at guess mu recovers a covering solution of
objective exactly mu; a dual answer witnesses OPT >= mu/(1+4 eps). The
crossing between the two regions is located by bisection, and the grid is
extended on demand in the corner cases where its endpoints do not bracket
the crossing.

The dynamic, streaming and online wrappers run one standard solver per
guess and translate objective/RHS updates into entry updates against the
scaled matrices, ignoring changes until they accumulate a (1+eps) factor.
Each guess's solver is the one covering scan (``whack_static.WhackState``)
fed a different row source: the static probes and the dynamic solvers scan
the scaled matrix rows, and a dynamic update visits the rows it touched;
the streaming wrapper makes one physical pass over the normalized rows for
all guesses, visiting each row, scaled by the guess, once per guess whose
phase is still running (guesses added above the grid stream on their
own); the online wrapper's per-guess states visit each arriving row.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import Outcome, OutcomeTag
from .formats import SetLine
from .instances import GeneralInstance, NormalizedCoveringInstance
from .online import OnlineState
from .sparse import NonMonotoneUpdate, SparseNonnegMatrix, UpdateEvent, UpdateKind
from . import streaming
from .streaming import StreamCursor, StreamMode
from .whack_dynamic import DynamicWhackState, preprocess
from .whack_static import Step, WhackState, solve_fast


class ZeroScaleFactor(ValueError):
    pass


# ---------------------------------------------------------------------------
# normalization and guess grids
# ---------------------------------------------------------------------------

@dataclass
class NormalizedView:
    """C' with C'_ij = C_ij / (a_j b_i); guesses scale it to C'' = mu C'."""

    c_prime: SparseNonnegMatrix
    lam_unit: float  # upper bound U/L^2 on C' entries; lambda per guess is mu*lam_unit

    def instance_for(self, mu: float, eps: float) -> NormalizedCoveringInstance:
        scaled = SparseNonnegMatrix(self.c_prime.m, self.c_prime.n)
        for i, j, v in self.c_prime.entries():
            scaled.set(i, j, mu * v)
        return NormalizedCoveringInstance(C=scaled, lam=mu * self.lam_unit, eps=eps)


def normalize(gen: GeneralInstance) -> NormalizedView:
    if np.any(gen.a == 0) or np.any(gen.b == 0):
        raise ZeroScaleFactor("a and b must be strictly positive")
    out = SparseNonnegMatrix(gen.m, gen.n)
    for i, j, v in gen.C.entries():
        out.set(i, j, v / (gen.a[j] * gen.b[i]))
    return NormalizedView(out, lam_unit=gen.U / (gen.L * gen.L))


@dataclass
class GuessGrid:
    guesses: list[float]
    ratio: float

    def extend_up(self) -> float:
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
    cache: dict[int, Outcome] = {}
    per_guess: dict[float, str] = {}
    probes = 0

    def probe(idx: int) -> Outcome:
        nonlocal probes
        if idx not in cache:
            outcome, _ = solve_fast(view.instance_for(grid.guesses[idx], eps))
            cache[idx] = outcome
            per_guess[grid.guesses[idx]] = outcome.tag.value
            probes += 1
        return cache[idx]

    # ensure the top of the grid decides primal; a dual there certifies
    # OPT >= top/(1+4eps), so at most a few extensions are ever needed
    hi = len(grid) - 1
    for _ in range(64):
        if probe(hi).tag is OutcomeTag.COVERING_PRIMAL:
            break
        grid.extend_up()
        hi = len(grid) - 1
    else:  # pragma: no cover
        raise RuntimeError("guess grid failed to reach a primal answer")

    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid).tag is OutcomeTag.COVERING_PRIMAL:
            hi = mid
        else:
            lo = mid

    mu_hi = grid.guesses[hi]
    x = _lift_primal(gen, mu_hi, cache[hi].vector)
    if lo >= 0:
        mu_lo = grid.guesses[lo]
        y = _lift_dual(gen, mu_lo, cache[lo].vector, eps)
        dual_value = float(gen.b @ y)
    else:
        # the bottom guess answered primal; probe below it for a dual witness
        mu_lo, y, dual_value = None, None, None
        mu = grid.guesses[0]
        for _ in range(8):
            mu /= grid.ratio
            outcome, _ = solve_fast(view.instance_for(mu, eps))
            probes += 1
            per_guess[mu] = outcome.tag.value
            if outcome.tag is OutcomeTag.PACKING_DUAL:
                mu_lo = mu
                y = _lift_dual(gen, mu, outcome.vector, eps)
                dual_value = float(gen.b @ y)
                break
    return GeneralSolution(x=x, y=y, objective=float(gen.a @ x),
                           dual_value=dual_value, primal_guess=mu_hi,
                           dual_guess=mu_lo, probes=probes, per_guess=per_guess)


# ---------------------------------------------------------------------------
# dynamic reduction (restricting updates)
# ---------------------------------------------------------------------------

class GeneralDynamicSolver:
    """Per-guess dynamic solvers over C''; updates below a (1+eps) factor are
    absorbed into the applied-value lag and never touch a solver."""

    def __init__(self, gen: GeneralInstance, eps: float):
        self.eps = eps
        self.gen = gen
        self.applied_a = gen.a.copy()
        self.applied_b = gen.b.copy()
        self.applied_C = gen.C.copy()
        self.lam_unit = gen.U / (gen.L * gen.L)
        self.grid = guess_grid(gen.n, gen.L, gen.U, eps)
        self.solvers: dict[int, DynamicWhackState] = {}
        self.lo = -1  # largest index known dual/terminal
        self.hi = self._find_initial_primal()
        self.updates_seen = 0
        self.updates_applied = 0

    # -- solver pool ---------------------------------------------------------

    def _applied_view(self) -> NormalizedView:
        out = SparseNonnegMatrix(self.gen.m, self.gen.n)
        for i, j, v in self.applied_C.entries():
            out.set(i, j, v / (self.applied_a[j] * self.applied_b[i]))
        return NormalizedView(out, self.lam_unit)

    def _solver(self, idx: int) -> DynamicWhackState:
        # a solver built late preprocesses on the current applied matrix,
        # which is a legal starting point for the remaining update suffix
        if idx not in self.solvers:
            while idx >= len(self.grid):
                self.grid.extend_up()
            inst = self._applied_view().instance_for(self.grid.guesses[idx], self.eps)
            state, _ = preprocess(inst)
            self.solvers[idx] = state
        return self.solvers[idx]

    def _find_initial_primal(self) -> int:
        hi = len(self.grid) - 1
        for _ in range(64):
            if self._solver(hi).terminal is None:
                break
            self.lo = max(self.lo, hi)
            self.grid.extend_up()
            hi = len(self.grid) - 1
        lo, top = -1, hi
        while top - lo > 1:
            mid = (lo + top) // 2
            if self._solver(mid).terminal is None:
                top = mid
            else:
                lo = mid
        self.lo = max(self.lo, lo)
        return top

    # -- update handling -------------------------------------------------------

    def _push_entry(self, i: int, j: int, new_cprime: float) -> None:
        for idx, solver in self.solvers.items():
            if solver.terminal is not None:
                continue
            mu = self.grid.guesses[idx]
            solver.handle_update(UpdateEvent(
                UpdateKind.RESTRICT_COVERING_ENTRY, i, j, mu * new_cprime))

    def _cprime(self, i: int, j: int) -> float:
        return self.applied_C.get(i, j) / (self.applied_a[j] * self.applied_b[i])

    def apply(self, line: SetLine) -> tuple[float, np.ndarray]:
        """Apply one restricting update; returns (objective guess, x)."""
        self.updates_seen += 1
        ratio = 1.0 + self.eps
        if line.target == "C":
            i, j, new = line.row, line.col, line.value
            old = self.applied_C.get(i, j)
            if new > old:
                raise NonMonotoneUpdate(f"C[{i},{j}] must decrease: {new} > {old}")
            if new > 0 and old / new < ratio:
                return self.current()  # not meaningful yet
            self.updates_applied += 1
            self.applied_C.set(i, j, new)
            self._push_entry(i, j, self._cprime(i, j) if new > 0 else 0.0)
        elif line.target == "a":
            j, new = line.col, line.value
            old = self.applied_a[j]
            if new < old:
                raise NonMonotoneUpdate(f"a[{j}] must increase: {new} < {old}")
            if new / old < ratio:
                return self.current()
            self.updates_applied += 1
            self.applied_a[j] = new
            rows, _ = self.applied_C.col(j)
            for i in rows:
                self._push_entry(int(i), j, self._cprime(int(i), j))
        elif line.target == "b":
            i, new = line.row, line.value
            old = self.applied_b[i]
            if new < old:
                raise NonMonotoneUpdate(f"b[{i}] must increase: {new} < {old}")
            if new / old < ratio:
                return self.current()
            self.updates_applied += 1
            self.applied_b[i] = new
            cols, _ = self.applied_C.row(i)
            for j in cols:
                self._push_entry(i, int(j), self._cprime(i, int(j)))
        else:
            raise NonMonotoneUpdate(f"unknown restricting target {line.target!r}")
        return self.current()

    def current(self) -> tuple[float, np.ndarray]:
        """Smallest guess still holding a primal, and its lifted solution."""
        while self._solver(self.hi).terminal is not None:
            self.lo = max(self.lo, self.hi)
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
    C = view.c_prime

    def cursor_for(mu: float) -> StreamCursor:
        def rows():
            for i, cols, vals in C.rows():
                yield i, cols, mu * vals
        return StreamCursor(rows, gen.m, gen.n, mu * view.lam_unit, StreamMode.PRIMAL_ONLY)

    # one physical pass serves every guess still running: each is anchored at
    # the pass start and visits the pass's rows until its phase breaks
    states = [WhackState(gen.n, mu * view.lam_unit, eps) for mu in grid.guesses]
    outcomes: dict[int, Outcome] = {}
    live = list(range(len(states)))
    physical = 0
    while live:
        physical += 1
        for idx in live:
            states[idx].start_phase()
        running = live
        for i, cols, vals in C.rows():
            still = []
            for idx in running:
                step = states[idx].visit(i, cols, grid.guesses[idx] * vals)
                if step is Step.BUDGET:
                    outcomes[idx] = states[idx].budget_outcome()
                elif step is None:
                    still.append(idx)
            running = still
        for idx in running:
            outcomes[idx] = states[idx].primal_outcome()
        live = [idx for idx in live if idx not in outcomes]
    per_guess_passes = {mu: states[idx].stats.phases for idx, mu in enumerate(grid.guesses)}
    passes_total = sum(per_guess_passes.values())

    hi = next((idx for idx in range(len(grid.guesses))
               if outcomes[idx].tag is OutcomeTag.COVERING_PRIMAL), None)
    while hi is None:
        # the top guess can sit inside the dual-capable band just above the
        # optimum; extend the ladder with solo scans until a primal appears
        mu = grid.extend_up()
        outcome, stats = streaming.solve_stream(cursor_for(mu), eps)
        idx = len(grid.guesses) - 1
        outcomes[idx] = outcome
        per_guess_passes[mu] = stats.passes
        passes_total += stats.passes
        physical += stats.passes
        if outcome.tag is OutcomeTag.COVERING_PRIMAL:
            hi = idx
    mu = grid.guesses[hi]
    x = _lift_primal(gen, mu, outcomes[hi].vector)
    return GeneralStreamResult(x=x, objective=float(gen.a @ x), primal_guess=mu,
                               physical_passes=physical, passes_total=passes_total,
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
        self.L, self.U = L, U
        self.lam_unit = U / (L * L)
        self.grid = guess_grid(gen_n, L, U, eps)
        self.states = [OnlineState(gen_n, mu * self.lam_unit, eps)
                       for mu in self.grid.guesses]
        self.seen_rows: list[tuple[np.ndarray, np.ndarray, float]] = []

    def insert_constraint(self, cols, vals, b_i: float) -> tuple[float, np.ndarray]:
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        self.seen_rows.append((cols, vals, b_i))
        prime = vals / (self.a[cols] * b_i) if len(cols) else vals
        for idx, mu in enumerate(self.grid.guesses):
            state = self.states[idx]
            if state.terminal is None:
                state.insert_row(cols, mu * prime)
        while all(s.terminal is not None for s in self.states):
            self._extend_with_replay()
        return self.current()

    def _extend_with_replay(self) -> None:
        mu = self.grid.extend_up()
        state = OnlineState(self.n, mu * self.lam_unit, self.eps)
        for cols, vals, b_i in self.seen_rows:
            if state.terminal is not None:
                break
            prime = vals / (self.a[cols] * b_i) if len(cols) else vals
            state.insert_row(cols, mu * prime)
        self.states.append(state)

    def current(self) -> tuple[float, np.ndarray]:
        for idx, state in enumerate(self.states):
            if state.terminal is None:
                mu = self.grid.guesses[idx]
                return mu, mu * state.maintained_vector() / self.a
        raise RuntimeError("no live guess")  # pragma: no cover

    def recourse_total(self) -> int:
        return sum(s.recourse for s in self.states)
