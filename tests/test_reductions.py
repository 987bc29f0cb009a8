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
    GuessLadderExhausted,
    MAX_EXTENSIONS,
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


def test_repeated_zero_update_is_absorbed():
    # a second zero on an entry already zeroed leaves the applied value where
    # it is, so it is absorbed like a change inside the (1+eps) band
    gen = gen_of([[1.0, 0.5], [0.5, 1.0]], [1.0, 1.0], [1.0, 1.0], L=0.5, U=2.0)
    zero = SetLine("C", 0, 1, 0.0)
    solver, history = solve_general_dynamic(gen, [zero, zero], 0.1)
    assert (solver.updates_seen, solver.updates_applied) == (2, 1)
    _, once = solve_general_dynamic(gen, [zero], 0.1)
    assert len(history) == 3
    for (mu, x), (mu_ref, x_ref) in zip(history, once + once[-1:]):
        assert mu == mu_ref and np.array_equal(x, x_ref)


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


def assert_monotone_in_bounds(gen, stream):
    live_C = {(i, j): v for i, j, v in gen.C.entries()}
    live = {"a": gen.a.copy(), "b": gen.b.copy()}
    for line in stream:
        assert gen.L <= line.value <= gen.U
        if line.target == "C":
            assert line.value < live_C[(line.row, line.col)]
            live_C[(line.row, line.col)] = line.value
        else:
            k = line.col if line.target == "a" else line.row
            assert line.value > live[line.target][k]
            live[line.target][k] = line.value


def test_general_stream_ends_once_saturated():
    # a 2x2 instance runs every C entry down to L and every a and b up to U
    # before tau events; no later draw can append, so the stream ends short
    rng = np.random.default_rng(1)
    gen = random_general(rng, 2, 2)
    stream = general_restricting_stream(rng, gen, 50)
    assert 0 < len(stream) < 50
    assert_monotone_in_bounds(gen, stream)


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


def _empty_row_instance() -> GeneralInstance:
    # row 1 has no entry, so every guess answers dual (reached without validate)
    C = SparseNonnegMatrix(2, 1)
    C.set(0, 0, 1.0)
    return GeneralInstance(C=C, a=np.ones(1), b=np.ones(2), L=1.0, U=1.0)


def test_stream_reduction_gives_up_after_the_capped_extensions():
    # every guess answers dual: the ladder stops at its cap, short of overflowing mu * lam_unit
    gen = _empty_row_instance()
    with pytest.raises(GuessLadderExhausted):
        solve_general_stream(gen, 0.1)


def test_online_reduction_rejects_an_empty_row_before_any_state_changes():
    gen = _empty_row_instance()
    solver = GeneralOnlineSolver(gen.n, gen.a, gen.L, gen.U, 0.1)
    before = solver.insert_constraint([0], [1.0], 1.0)
    guesses, states = list(solver.grid.guesses), list(solver.states)
    with pytest.raises(ValueError, match="empty row"):
        solver.insert_constraint([], [], 1.0)
    assert solver.grid.guesses == guesses and solver.states == states
    assert len(solver.seen_rows) == 1
    mu, x = solver.current()
    assert mu == before[0] and np.array_equal(x, before[1])


def _online_snapshot(solver):
    return ([(len(st.rows), st.t, st.x_hat.tobytes(), st.terminal) for st in solver.states],
            list(solver.grid.guesses), len(solver.seen_rows))


@pytest.mark.parametrize("cols, vals, b_i", [([0, 1], [1.0, math.nan], 1.0),
                                             ([0, 1], [1.0, -0.5], 1.0),
                                             ([0, 1], [math.inf, 1.0], 1.0),
                                             ([0, 1], [1.0, 1.0], 0.0),
                                             ([1, 1], [1.0, 1.0], 1.0),
                                             ([0, 2], [1.0, 1.0], 1.0),
                                             ([-1, 0], [1.0, 1.0], 1.0)],
                         ids=["nan", "negative", "inf", "zero-rhs", "repeated", "past-n", "below-0"])
def test_online_reduction_rejects_a_bad_constraint_before_any_state_changes(cols, vals, b_i):
    gen = random_general(np.random.default_rng(3), 2, 2)
    solver = GeneralOnlineSolver(gen.n, gen.a, gen.L, gen.U, 0.1)
    solver.insert_constraint(*gen.C.row(0), float(gen.b[0]))
    before = _online_snapshot(solver)
    with pytest.raises(ValueError):
        solver.insert_constraint(cols, vals, b_i)
    assert _online_snapshot(solver) == before


def test_online_reduction_checks_every_live_lambda_before_any_guess_takes_the_row():
    # a constraint that one live guess cannot take reaches no guess at all,
    # where guesses below that one used to store it before it raised
    solver = GeneralOnlineSolver(2, np.ones(2), 1.0, 1.0, 0.1)
    last = solver.states[-1]
    last.lam = math.nextafter(solver.grid.guesses[-1] * solver.lam_unit, 0.0)
    before = _online_snapshot(solver)
    with pytest.raises(ValueError, match="lie in"):
        solver.insert_constraint([0, 1], [1.0, 0.5], 1.0)  # C' tops out at the unit bound
    assert _online_snapshot(solver) == before
    solver.insert_constraint([0, 1], [0.5, 0.5], 1.0)
    assert all(len(st.rows) == 1 for st in solver.states if st.terminal is None)
    # every guess stores the one column array, read-only to them all
    assert len({id(st.rows[0][1]) for st in solver.states if st.rows}) == 1


def test_online_reduction_gives_up_after_the_capped_extensions():
    # an entry far below L moves the optimum past the capped ladder
    solver = GeneralOnlineSolver(1, np.ones(1), 1.0, 1.0, 0.1)
    top = len(solver.grid)
    with pytest.raises(GuessLadderExhausted):
        solver.insert_constraint([0], [1e-30], 1.0)
    assert len(solver.grid) == top + MAX_EXTENSIONS


# -- golden outputs -------------------------------------------------------------------------

def golden_instance(case):
    if case == "random":
        return random_general(np.random.default_rng(31), 3, 4), 0.1
    if case == "below":
        # the bottom guess answers primal, so the static reduction probes below the grid
        return random_general(np.random.default_rng(0), 1, 1, L=0.9, U=1.0), 0.2
    # a and b beyond the declared U put OPT above the guess grid, so every
    # reduction extends the grid; no small seeded random_general does that
    return gen_of([[1.0, 0.5, 0.0], [0.5, 1.0, 0.7], [0.0, 0.6, 0.9]],
                  [3.0, 2.0, 4.0], [1.0, 1.5, 2.5], L=0.5, U=1.0), 0.1


def golden_events(case, gen):
    if case == "random":
        return general_restricting_stream(np.random.default_rng(41), gen, 12)
    if case == "below":
        return [SetLine("b", 0, None, 1.3), SetLine("C", 0, 0, 0.5), SetLine("a", None, 0, 2.0)]
    return [SetLine("b", 0, None, 2.0), SetLine("a", None, 1, 2.1),
            SetLine("C", 1, 2, 0.3), SetLine("C", 1, 2, 0.29), SetLine("b", 2, None, 3.0)]


def observe_static(gen, eps):
    sol = solve_general_static(gen, eps)
    return (sol.x.tolist(), None if sol.y is None else sol.y.tolist(), sol.objective,
            sol.dual_value, sol.primal_guess, sol.dual_guess, sol.probes, sol.per_guess)


def observe_stream(gen, eps):
    res = solve_general_stream(gen, eps)
    return (res.x.tolist(), res.primal_guess, res.physical_passes, res.passes_total,
            list(res.per_guess_passes), list(res.per_guess_passes.values()))


def observe_online(gen, eps):
    solver = GeneralOnlineSolver(gen.n, gen.a, gen.L, gen.U, eps)
    inserts = []
    for i in range(gen.m):
        cols, vals = gen.C.row(i)
        mu, x = solver.insert_constraint(cols, vals, float(gen.b[i]))
        inserts.append((mu, x.tolist()))
    return inserts, solver.recourse_total(), len(solver.states)


def observe_dynamic(gen, eps, events):
    solver, history = solve_general_dynamic(gen, events, eps)
    return ([(mu, x.tolist()) for mu, x in history], solver.updates_seen,
            solver.updates_applied, list(solver.solvers), solver.hi)


# per case: static (x, y, objective, dual value, primal and dual guess, probes,
# per_guess); stream (x, primal guess, physical and total passes, the guesses and
# their passes);
# online (each insert's guess and x, recourse, states); dynamic over a restricting
# stream of C, a and b updates (history, updates seen and applied, solver indexes
# in build order, the primal index). Captured before the reductions shared one
# guess layer; every value must stay exactly as it is.
GOLDEN_REDUCTIONS = {'random': (([0.3617010519539086, 0.9233546795357814, 0.06159853653746333,
              0.03398186413504488],
             [0.03193492252737481, 0.17261691964299888, 0.6557890681553263],
             1.982886621464369, 1.287588715236603, 1.9828866214643686, 1.802624201331244, 7,
             {34.60018631152493: 'covering_primal',
              1.9828866214643686: 'covering_primal',
              0.47468729197905185: 'packing_dual',
              0.9250312430322715: 'packing_dual',
              1.3543382429235489: 'packing_dual',
              1.6387492739374943: 'packing_dual',
              1.802624201331244: 'packing_dual'}),
            ([0.3617010519539086, 0.9233546795357814, 0.06159853653746333,
              0.03398186413504488],
             1.9828866214643686, 146, 708,
             [0.125, 0.1375, 0.15125000000000002, 0.16637500000000005, 0.18301250000000008,
              0.2013137500000001, 0.22144512500000013, 0.24358963750000018,
              0.2679486012500002, 0.29474346137500024, 0.3242178075125003,
              0.35663958826375036, 0.39230354709012544, 0.43153390179913803,
              0.47468729197905185, 0.522156021176957, 0.5743716232946527, 0.631808785624118,
              0.6949896641865299, 0.7644886306051829, 0.8409374936657013,
              0.9250312430322715, 1.0175343673354986, 1.1192878040690486,
              1.2312165844759535, 1.3543382429235489, 1.4897720672159038,
              1.6387492739374943, 1.802624201331244, 1.9828866214643686, 2.1811752836108056,
              2.399292811971886, 2.639222093169075, 2.9031443024859827, 3.193458732734581,
              3.5128046060080393, 3.8640850666088435, 4.250493573269728, 4.675542930596701,
              5.143097223656372, 5.657406946022009, 6.2231476406242106, 6.845462404686632,
              7.530008645155296, 8.283009509670826, 9.11131046063791, 10.022441506701702,
              11.024685657371872, 12.127154223109061, 13.339869645419968,
              14.673856609961966, 16.141242270958163, 17.75536649805398, 19.53090314785938,
              21.48399346264532, 23.632392808909852, 25.99563208980084, 28.595195298780926,
              31.45471482865902, 34.60018631152493],
             [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10, 13, 17, 23, 35, 60,
              113, 40, 48, 82, 146, 25, 8, 6, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
              1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
            ([(1.2312165844759535,
               [1.0661693880836281e-05, 0.7513823659108068, 0.1866735356861988,
                0.000626778054853124]),
              (1.802624201331244,
               [0.29603770827627013, 0.9454587092228559, 0.020311713882215934,
                0.014376978145059425]),
              (1.9828866214643686,
               [0.3617010519539086, 0.9233546795357814, 0.06159853653746333,
                0.03398186413504488])],
             2592, 60),
            ([(1.9828866214643686,
               [0.3617010519539086, 0.9233546795357814, 0.06159853653746333,
                0.03398186413504488]),
              (2.1811752836108056,
               [0.4274334440897249, 0.987346865107895, 0.06836309750423525,
                0.023557730315096594]),
              (2.9031443024859827,
               [0.5393626398654244, 1.3105870762534226, 0.13649277097401238,
                0.026310669226059877]),
              (2.9031443024859827,
               [0.5393626398654244, 1.3105870762534226, 0.13649277097401238,
                0.026310669226059877]),
              (2.9031443024859827,
               [0.5393626398654244, 1.3105870762534226, 0.13649277097401238,
                0.026310669226059877]),
              (3.193458732734581,
               [0.9497018055572012, 0.8621951442465747, 0.12644325736385373,
                0.014026191183036546]),
              (3.5128046060080393,
               [1.1195507602913821, 0.6527577844248756, 0.31633286517057246,
                0.05921567961347519]),
              (3.5128046060080393,
               [1.1195507602913821, 0.6527577844248756, 0.31633286517057246,
                0.05921567961347519]),
              (3.5128046060080393,
               [1.1195507602913821, 0.6527577844248756, 0.31633286517057246,
                0.05921567961347519]),
              (3.5128046060080393,
               [1.1195507602913821, 0.6527577844248756, 0.31633286517057246,
                0.05921567961347519]),
              (3.8640850666088435,
               [1.2445059333357524, 0.48877422437948403, 0.49792420788800745,
                0.12851214383600093]),
              (3.8640850666088435,
               [1.2445059333357524, 0.48877422437948403, 0.49792420788800745,
                0.12851214383600093]),
              (3.8640850666088435,
               [1.2445059333357524, 0.48877422437948403, 0.49792420788800745,
                0.12851214383600093])],
             12, 7, [59, 29, 14, 21, 25, 27, 28, 30, 31, 32, 33, 34, 35, 36], 36)),
 'below': (([0.8959212167312576], [0.41590290093756066], 0.81, 0.375, 0.81, 0.675, 3,
            {1.1663999999999999: 'covering_primal',
             0.81: 'covering_primal',
             0.675: 'packing_dual'}),
           ([0.8959212167312576], 0.81, 1, 3, [0.81, 0.972, 1.1663999999999999], [1, 1, 1]),
           ([(0.81, [0.8959212167312576])], 0, 3),
           ([(0.81, [0.8959212167312576]), (1.1663999999999999, [1.2901265520930107]),
             (2.4186470399999993, [2.6752064184200663]),
             (5.015306502143998, [2.507653251071999])],
            3, 3, [2, 0, 1, 3, 4, 5, 6, 7, 8, 9, 10], 10)),
 'above': (([0.022358298137930967, 3.1933691549928542, 0.5117934855349888],
            [0.0, 0.0, 2.208048609490768], 8.500987146539456, 5.520121523726919,
            8.500987146539456, 7.728170133217687, 7,
            {6.386917465469162: 'packing_dual',
             7.025609212016079: 'packing_dual',
             7.728170133217687: 'packing_dual',
             8.500987146539456: 'covering_primal',
             1.3899793283730597: 'packing_dual',
             3.2774985478749885: 'packing_dual',
             5.27844418633815: 'packing_dual'}),
           ([0.022358298137930967, 3.1933691549928542, 0.5117934855349888],
            8.500987146539456, 237, 672,
            [0.25, 0.275, 0.30250000000000005, 0.3327500000000001, 0.36602500000000016,
             0.4026275000000002, 0.44289025000000026, 0.48717927500000036,
             0.5358972025000004, 0.5894869227500005, 0.6484356150250006, 0.7132791765275007,
             0.7846070941802509, 0.8630678035982761, 0.9493745839581037, 1.044312042353914,
             1.1487432465893055, 1.263617571248236, 1.3899793283730597, 1.5289772612103658,
             1.6818749873314025, 1.850062486064543, 2.0350687346709972, 2.238575608138097,
             2.462433168951907, 2.7086764858470977, 2.9795441344318077, 3.2774985478749885,
             3.605248402662488, 3.965773242928737, 4.362350567221611, 4.798585623943772,
             5.27844418633815, 5.806288604971965, 6.386917465469162, 7.025609212016079,
             7.728170133217687, 8.500987146539456],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10, 14, 19, 29,
             51, 96, 102, 60, 26, 17, 14, 12, 15, 21, 34, 66, 35]),
           ([(2.9795441344318077,
              [0.8262293091328812, 0.24846570458396333, 0.0009811994663093855]),
             (3.605248402662488,
              [0.3330902053059363, 1.2357785224879567, 0.033605185442191404]),
             (8.500987146539456,
              [0.022358298137930967, 3.1933691549928542, 0.5117934855349888])],
            1902, 38),
           ([(8.500987146539456,
              [0.022358298137930967, 3.1933691549928542, 0.5117934855349888]),
             (8.500987146539456,
              [0.03809290064563194, 3.9275338676141365, 0.23630808650248758]),
             (8.500987146539456,
              [0.03809290064563194, 3.9275338676141365, 0.23630808650248758]),
             (8.500987146539456,
              [0.03809290064563194, 3.9275338676141365, 0.23630808650248758]),
             (8.500987146539456,
              [0.03809290064563194, 3.9275338676141365, 0.23630808650248758]),
             (10.286194447312743,
              [0.07183553000802152, 4.093661115156171, 0.6046565101916687])],
            5, 3, [34, 35, 36, 37, 18, 27, 32, 38, 39], 39))}


@pytest.mark.parametrize("case", ["random", "below", "above"])
def test_golden_reductions(case):
    gen, eps = golden_instance(case)
    static, stream, online, dynamic = GOLDEN_REDUCTIONS[case]
    assert observe_static(gen, eps) == static
    assert observe_stream(gen, eps) == stream
    assert observe_online(gen, eps) == online
    assert observe_dynamic(gen, eps, golden_events(case, gen)) == dynamic
