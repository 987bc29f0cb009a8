import math

import numpy as np
import pytest

from pclp.certificates import OutcomeTag
from pclp.formats import SetLine
from pclp.generate import general_restricting_stream, random_general
from pclp.instances import GeneralInstance
from pclp.oracle import solve_covering_exact
from pclp.reductions import (
    GeneralDynamicSolver,
    GeneralOnlineSolver,
    ZeroScaleFactor,
    guess_grid,
    normalize,
    solve_general_dynamic,
    solve_general_static,
    solve_general_stream,
)
from pclp.sparse import NonMonotoneUpdate, SparseNonnegMatrix
from pclp.streaming import StreamCursor, StreamMode, solve_stream
from pclp.whack_static import weight_cap


def gen_of(dense, a, b, L=None, U=None) -> GeneralInstance:
    C = SparseNonnegMatrix.from_dense(dense)
    vals = [v for _, _, v in C.entries()] + list(a) + list(b)
    return GeneralInstance(C=C, a=np.array(a, float), b=np.array(b, float),
                           L=L if L is not None else min(vals),
                           U=U if U is not None else max(vals))


# -- normalization ---------------------------------------------------------------

def test_normalize_divides_by_scales():
    view = normalize(gen_of([[2.0]], [4.0], [8.0], L=2, U=8))
    assert np.isclose(view.c_prime.get(0, 0), 0.0625)


def test_normalize_identity_scaling():
    gen = gen_of([[1.0, 0.5], [0.25, 1.0]], [1.0, 1.0], [1.0, 1.0])
    view = normalize(gen)
    assert np.allclose(view.c_prime.to_dense(), gen.C.to_dense())


def test_normalized_entries_within_bounds(rng):
    for _ in range(10):
        gen = random_general(rng, 5, 5)
        view = normalize(gen)
        lo, hi = gen.L / gen.U ** 2, gen.U / gen.L ** 2
        for _, _, v in view.c_prime.entries():
            assert lo - 1e-12 <= v <= hi + 1e-12


# -- guess grids --------------------------------------------------------------------

def test_grid_degenerate_range_single_guess():
    grid = guess_grid(1, 1.0, 1.0, 0.1)
    assert grid.guesses == [1.0]


def test_grid_covers_range_with_exact_ratio():
    grid = guess_grid(4, 1.0, 1.0, 0.1)
    assert grid.guesses[0] <= 1.0 <= grid.guesses[-1]
    assert grid.guesses[-1] >= 4.0
    k = math.ceil(math.log(4) / math.log(1.1))
    assert len(grid.guesses) == k + 1
    ratios = [b / a for a, b in zip(grid.guesses, grid.guesses[1:])]
    assert np.allclose(ratios, 1.1, rtol=1e-12)


def test_grid_guess_sandwich(rng):
    # for any opt inside the modeled range some guess is within (1+eps)
    for _ in range(10):
        L, U, n = 0.5, 2.0, int(rng.integers(1, 9))
        eps = 0.1
        grid = guess_grid(n, L, U, eps)
        opt = float(rng.uniform(L * L / U, n * U * U / L))
        assert any(opt / (1 + eps) <= mu <= opt * (1 + eps) for mu in grid.guesses)


# -- static reduction ----------------------------------------------------------------

def test_static_cross_instance_hits_opt_window():
    gen = gen_of([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0], [1.0, 1.0])
    eps = 0.05
    sol = solve_general_static(gen, eps)
    opt = 2.0 / 3.0
    c = 4
    assert opt * (1 - c * eps) <= sol.objective <= opt * (1 + c * eps) / (1 - c * eps)
    # primal is (1-Theta(eps))-feasible and the dual value lower-bounds opt
    assert np.all(gen.C.matvec(sol.x) >= (1 - eps) * gen.b - 1e-9)
    assert sol.dual_value is not None and sol.dual_value <= opt + 1e-9
    assert np.all(gen.C.rmatvec(sol.y) <= gen.a + 1e-9)


def test_static_unit_instance():
    gen = gen_of([[1.0]], [1.0], [1.0])
    sol = solve_general_static(gen, 0.05)
    assert np.isclose(sol.objective, 1.0, rtol=0.3)
    assert np.isclose(sol.x[0], 1.0, rtol=0.3)


def test_static_diagonal_instance():
    gen = gen_of([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0], [1.0, 1.0], L=0.5, U=4.0)
    sol = solve_general_static(gen, 0.05)
    assert abs(sol.objective - 0.75) <= 4 * 0.05 * 0.75 / (1 - 4 * 0.05)


def test_normalized_opt_equals_original_opt(rng):
    for _ in range(8):
        gen = random_general(rng, 4, 4)
        view = normalize(gen)
        orig = solve_covering_exact(gen.C.to_dense(), gen.a, gen.b)
        norm = solve_covering_exact(view.c_prime.to_dense())
        assert orig.status == norm.status == "optimal"
        assert abs(orig.value_float() - norm.value_float()) <= 1e-9


def test_zero_scale_rejected():
    gen = gen_of([[1.0]], [1.0], [1.0])
    gen.a = np.array([0.0])
    with pytest.raises(ZeroScaleFactor):
        normalize(gen)


# -- dynamic reduction ----------------------------------------------------------------

def test_meaningful_filter_skips_small_changes():
    gen = gen_of([[1.0, 0.5], [0.5, 1.0]], [1.0, 1.0], [1.0, 1.0], L=0.5, U=2.0)
    solver = GeneralDynamicSolver(gen, 0.1)
    applied_before = solver.updates_applied
    solver.apply(SetLine("b", 0, None, 1.05))
    assert solver.updates_applied == applied_before  # below the (1+eps) factor
    solver.apply(SetLine("b", 0, None, 1.2))
    assert solver.updates_applied == applied_before + 1


def test_rhs_expansion_touches_whole_row():
    gen = gen_of([[1.0, 0.5], [0.5, 1.0]], [1.0, 1.0], [1.0, 1.0], L=0.5, U=2.0)
    solver = GeneralDynamicSolver(gen, 0.1)
    live = [idx for idx, s in solver.solvers.items() if s.terminal is None]
    before = {idx: solver.solvers[idx].stats.updates for idx in live}
    solver.apply(SetLine("b", 0, None, 1.3))
    row_nnz = len(gen.C.row_map(0))
    for idx in live:
        if solver.solvers[idx].terminal is None:
            assert solver.solvers[idx].stats.updates - before[idx] == row_nnz


def test_non_monotone_general_update_rejected():
    gen = gen_of([[1.0]], [1.0], [1.0])
    solver = GeneralDynamicSolver(gen, 0.1)
    with pytest.raises(NonMonotoneUpdate):
        solver.apply(SetLine("b", 0, None, 0.5))
    with pytest.raises(NonMonotoneUpdate):
        solver.apply(SetLine("C", 0, 0, 2.0))


def test_dynamic_tracks_oracle_under_restricting_stream(rng):
    eps = 0.1
    for _ in range(3):
        gen = random_general(rng, 5, 5)
        stream = general_restricting_stream(rng, gen, 25)
        solver, history = solve_general_dynamic(gen, stream, eps)
        # replay on a fresh copy to evaluate the true data after each event
        live = gen_of(gen.C.to_dense().tolist(), gen.a.tolist(), gen.b.tolist(),
                      L=gen.L, U=gen.U)
        for line, (mu, x) in zip(stream, history[1:]):
            if line.target == "C":
                live.C.set(line.row, line.col, line.value)
            elif line.target == "a":
                live.a[line.col] = line.value
            else:
                live.b[line.row] = line.value
            exact = solve_covering_exact(live.C.to_dense(), live.a, live.b)
            assert exact.status == "optimal"
            opt = exact.value_float()
            # applied-value lag adds one (1+eps)^2 factor on top of the
            # static window
            lo = opt * (1 - 4 * eps) / (1 + eps) ** 2
            hi = opt * (1 + 4 * eps) / (1 - 4 * eps) * (1 + eps) ** 2
            assert lo <= float(live.a @ x) * (1 + 2 * eps) + 1e-9
            assert mu <= hi + 1e-9


# -- streaming reduction -------------------------------------------------------------------

def solo_streams(gen, eps, result):
    """Each guess's outcome and passes from its own stream over its scaled rows."""
    view = normalize(gen)
    return {mu: solve_stream(StreamCursor.from_instance(view.instance_for(mu, eps),
                                                        StreamMode.PRIMAL_ONLY), eps)
            for mu in result.per_guess_passes}


def test_single_guess_grid_passes_match_plain_stream():
    gen = gen_of([[1.0]], [1.0], [1.0], L=1.0, U=1.0)
    result = solve_general_stream(gen, 0.1)
    # the degenerate grid has one guess, so total passes equal that guess's
    mu = guess_grid(1, 1.0, 1.0, 0.1).guesses[0]
    solos = solo_streams(gen, 0.1, result)
    assert list(solos) == [mu]
    outcome, stats = solos[mu]
    assert result.passes_total == result.physical_passes == stats.passes
    assert np.array_equal(result.x, mu * outcome.vector / gen.a)


def test_interleaved_stream_shares_scans(rng):
    gen = random_general(rng, 4, 2)
    eps = 0.1
    per_guess_cap = math.ceil(weight_cap(gen.n, eps) / -math.log(1 - eps / 2)) + 1
    grid = guess_grid(gen.n, gen.L, gen.U, eps).guesses
    result = solve_general_stream(gen, eps)
    assert max(result.per_guess_passes.values()) <= per_guess_cap
    # every guess makes the passes and reaches the answer of a stream of its own
    solos = solo_streams(gen, eps, result)
    assert result.per_guess_passes == {mu: st.passes for mu, (_, st) in solos.items()}
    primal = min(mu for mu, (outcome, _) in solos.items()
                 if outcome.tag is OutcomeTag.COVERING_PRIMAL)
    assert result.primal_guess == primal
    assert np.array_equal(result.x, primal * solos[primal][0].vector / gen.a)
    # the guesses of the first grid share their passes; extensions scan alone
    shared = max(result.per_guess_passes[mu] for mu in grid)
    alone = sum(p for mu, p in result.per_guess_passes.items() if mu not in grid)
    assert result.physical_passes == shared + alone
    assert shared <= per_guess_cap


# -- online reduction ---------------------------------------------------------------------

def test_online_recourse_sums_across_guesses(rng):
    gen = random_general(rng, 5, 3)
    eps = 0.1
    solver = GeneralOnlineSolver(gen.n, gen.a, gen.L, gen.U, eps)
    for i in range(gen.m):
        cols, vals = gen.C.row(i)
        mu, x = solver.insert_constraint(cols, vals, float(gen.b[i]))
    per_guess_cap = math.ceil(weight_cap(gen.n, eps) / -math.log(1 - eps / 2))
    bound = len(solver.grid.guesses) * gen.n * per_guess_cap
    assert solver.recourse_total() == sum(s.recourse for s in solver.states)
    assert solver.recourse_total() <= bound
    # maintained solution nearly covers all seen constraints
    assert np.all(gen.C.matvec(x) >= (1 - 2 * eps) * gen.b - 1e-9)
