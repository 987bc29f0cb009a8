import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering
from pclp import whack_static
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.generate import random_covering, random_general, random_packing, restricting_stream
from pclp.instances import NormalizedCoveringInstance, PackingInstanceView
from pclp.online import OnlineState
from pclp.oracle import solve_covering_exact
from pclp.packing import solve_packing_fast
from pclp.reductions import solve_general_stream
from pclp.sparse import UpdateEvent, UpdateKind
from pclp.streaming import StreamCursor, StreamMode, solve_stream
from pclp.whack_dynamic import preprocess
from pclp.whack_static import (
    PreconditionViolated,
    Step,
    StoredRowsState,
    WhackState,
    anchor_log_ratio,
    covering_floor,
    covering_step,
    first_step,
    jensen_guess,
    run_phases,
    solve_basic,
    solve_fast,
    total_rounds,
    weight_cap,
)
from reference import (brute_force_step_size, diagonal_with_column, replay_fast_as_basic,
                       row_step_size)


def state_for(inst):
    return WhackState(inst.n, inst.lam, inst.eps, np.zeros(inst.m, dtype=np.int64))


def visit(state, inst, i):
    return state.visit(i, *inst.C.row(i))


def start_phase_at_written_weights(state):
    """Start a phase after the test wrote x_hat directly: a phase anchors
    at the total the last enforcement left, so the test sets it first."""
    state.total = float(state.x_hat.sum())
    state.start_phase()


def residual(state, inst, i):
    return inst.C.dot_row(i, state.x_hat) / state.W


# -- step size ----------------------------------------------------------------

def test_step_size_linear_scan_example():
    # 1.1^d * 0.5 >= 1 first at d = 8
    d = row_step_size(np.array([1.0]), np.array([0.5]), 1.0, 0.1, 1.0, total_rounds(1.0, 1, 0.1))
    assert d == 8


def test_step_size_single_support_column():
    inst = covering([[0.0, 1.0]], lam=1.0, eps=0.1)
    x_hat = np.array([5.0, 0.001])
    T = 10 ** 4
    cols, vals = inst.C.row(0)
    d = row_step_size(vals, x_hat[cols], 1.0, 0.1, 1.0, T)
    ref = brute_force_step_size(vals, x_hat[cols], 1.0, 0.1, 1.0, T)
    assert d == ref


def test_step_size_all_zero_row_caps():
    inst = covering([[1.0], [1.0]], lam=1.0, eps=0.1)
    inst.C.set(1, 0, 0.0)
    T = total_rounds(1.0, 1, 0.1)
    cols, vals = inst.C.row(1)
    assert row_step_size(vals, np.ones(1)[cols], 1.0, 0.1, 1.0, T) == T


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_step_size_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    eps = float(rng.choice([0.1, 0.2, 0.3]))
    vals = rng.uniform(0.05, 1.0, size=n)
    x_hat = rng.uniform(0.05, 1.0, size=n)
    W = float(rng.uniform(1.0, 4.0))
    if float(vals @ x_hat) >= (1 - eps / 2) * W:
        return
    # small budgets put the answer at or near the cap, where the search
    # evaluates the budget itself; large ones put the Jensen guess far below it
    for T in (*range(1, 21), 5000, 10 ** 6, 10 ** 12):
        d = row_step_size(vals, x_hat, 1.0, eps, W, T)
        ref = brute_force_step_size(vals, x_hat, 1.0, eps, W, T)
        # allow a one-step slip only when the residual sits on the float boundary
        if d != ref:
            z = vals * x_hat * (1 + eps * vals) ** min(d, ref)
            assert abs(float(z.sum()) - W) <= 1e-9 * W


def unguided_first_step(reaches, budget):
    """The step search before it took a guess: double from 1, then bisect."""
    hi = 1
    while hi < budget and not reaches(hi):
        hi *= 2
    lo = hi // 2
    if hi >= budget:
        hi = budget
        if not reaches(hi):
            return budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_first_step_matches_unguided_search(data):
    budget = data.draw(st.integers(1, 10 ** 6))
    k = data.draw(st.integers(1, budget + 5))
    guess = data.draw(st.integers(-3, budget + 5))
    # every d at or below the floor is known to fail and is never evaluated
    floor = data.draw(st.one_of(st.just(0), st.integers(0, k - 1)))
    calls = []

    def reaches(d):
        assert floor < d <= budget
        calls.append(d)
        return d >= k

    d = first_step(reaches, budget, guess, floor)
    assert d == unguided_first_step(lambda d: d >= k, budget) == min(k, budget)
    # the same evidence as the unguided search: d holds and d - 1 fails (or
    # is at the floor), or the budget itself failed
    assert d in calls or floor >= budget
    assert d == 1 or d - 1 in calls or d - 1 == floor or k > budget
    assert len(calls) <= 2 * budget.bit_length() + 2


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_first_step_confirms_a_right_guess_in_two_evaluations(data):
    budget = data.draw(st.integers(1, 10 ** 6))
    k = data.draw(st.integers(1, budget))
    floor = data.draw(st.one_of(st.just(0), st.integers(0, k - 1)))
    calls = []

    def reaches(d):
        calls.append(d)
        return d >= k

    assert first_step(reaches, budget, k, floor) == k
    # d - 1 is evaluated only when the floor does not already rule it out
    assert calls == ([k] if k - 1 <= floor else [k, k - 1])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_jensen_guess_bounds_the_step(seed):
    # covering rows rise to W: the guess is a power at which the row reaches W;
    # packing rows fall to W: one power below the guess the row is still above W
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    eps = float(rng.choice([0.05, 0.1, 0.3]))
    vals = rng.uniform(0.05, 1.0, size=n)
    xh = rng.uniform(0.05, 1.0, size=n)
    base, dot = vals * xh, float(vals @ xh)
    budget = 10 ** 9
    for sign, W in ((1.0, dot * float(rng.uniform(1.01, 50.0))),
                    (-1.0, dot / float(rng.uniform(1.01, 50.0)))):
        growth = np.log1p(sign * eps * vals)
        d = jensen_guess(float(base @ growth), dot, anchor_log_ratio(dot, W), budget)
        assert 1 <= d < budget
        if sign > 0:
            assert float(base @ np.exp(d * growth)) >= W * (1 - 1e-9)
        elif d > 1:
            assert float(base @ np.exp((d - 1) * growth)) >= W * (1 - 1e-9)


def test_jensen_guess_falls_back_to_one():
    def guess(base, growth, dot, W, budget):
        return jensen_guess(float(base @ growth), dot, anchor_log_ratio(dot, W), budget)

    base, growth = np.array([0.5]), np.array([0.1])
    assert guess(base, growth, 0.5, 0.4, 100) == 1   # W on the wrong side
    assert guess(base, growth, 0.0, 1.0, 100) == 1   # no dot
    assert guess(base, np.zeros(1), 0.5, 1.0, 100) == 1  # no growth
    assert guess(base, growth, 0.5, 1e300, 100) == 100  # clamped to the budget


@st.composite
def covering_rows(draw):
    """A violated covering row: entries spread over up to 12 decades, W up to
    1e250, dots from just below W to e^-705 W, and budgets from 1 to far past
    the point where exp(d rate) overflows."""
    n = draw(st.integers(1, 6))
    lam = draw(st.floats(1.0, 150.0))
    eps = draw(st.floats(0.003, 0.3))
    spread = draw(st.floats(0.0, 12.0))
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    vals = lam * 10.0 ** (-spread * shares)
    xh = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    W = 10.0 ** draw(st.floats(-10.0, 250.0))
    log_ratio = draw(st.one_of(st.floats(1e-9, 10.0), st.floats(10.0, 690.0),
                               st.floats(690.0, 705.0)))
    xh *= W * math.exp(-log_ratio) / float(vals @ xh)
    budget = draw(st.one_of(st.integers(1, 3000), st.integers(3000, 10 ** 12)))
    rate = np.log1p(eps * vals / lam)
    return vals * xh, rate, float(rate.max()), float(vals @ xh), W, budget


def covers(base, rate, W, d):
    with np.errstate(over="ignore"):
        return float(base @ np.exp(d * rate)) >= W


@given(covering_rows())
@settings(max_examples=300, deadline=None)
def test_no_power_at_or_below_the_floor_passes(row):
    base, rate, g_max, dot, W, _ = row
    floor = covering_floor(anchor_log_ratio(dot, W), g_max)
    # S(d) is monotone in d, so failing at the floor means failing below it
    assert floor == 0 or not covers(base, rate, W, floor)
    if floor > 1:
        assert not covers(base, rate, W, floor // 2)


@given(covering_rows())
@settings(max_examples=200, deadline=None)
def test_covering_step_matches_unguided_and_brute_force_searches(row):
    base, rate, g_max, dot, W, budget = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the search contains its own overflows
        d, power = covering_step(base, rate, g_max, dot, W, budget)
    assert d == unguided_first_step(lambda k: covers(base, rate, W, k), budget)
    if budget <= 3000:
        brute = next((k for k in range(1, budget + 1) if covers(base, rate, W, k)), budget)
        assert d == brute
    with np.errstate(over="ignore"):
        assert power.tobytes() == np.exp(d * rate).tobytes()


@given(covering_rows())
@settings(max_examples=100, deadline=None)
def test_covering_step_with_a_power_table_answers_the_same(row):
    # a second search on the same row reads the power the first one kept
    base, rate, g_max, dot, W, budget = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, power = covering_step(base, rate, g_max, dot, W, budget)
        powers = {}
        first = covering_step(base, rate, g_max, dot, W, budget, powers)
        again = covering_step(base, rate, g_max, dot, W, budget, powers)
    assert first[0] == again[0] == d
    assert again[1] is first[1] is powers[d]
    assert first[1].tobytes() == power.tobytes()
    assert not any(p.flags.writeable for p in powers.values())


def count_evaluations(monkeypatch) -> list:
    """A list that gains an item at each step test ``powered_step`` evaluates."""
    seen = []
    powered = whack_static.powered_step

    def counting(base, rate, W, holds, *args):
        return powered(base, rate, W, lambda s, w: seen.append(1) or holds(s, w), *args)

    monkeypatch.setattr(whack_static, "powered_step", counting)
    return seen


@pytest.mark.parametrize("rate, log_ratio, d, evaluations",
                         [([0.1, 0.1], 3.05, 31, 0),   # (a): the floor is 30, Jensen is exact
                          ([0.1, 0.09], 3.0, 32, 1)],  # (b): the floor is 29, the chord rules out 31
                         ids=["jensen", "chord"])
def test_a_settled_step_evaluates_at_most_the_guess(monkeypatch, rate, log_ratio, d, evaluations):
    seen = count_evaluations(monkeypatch)
    base, rate = np.ones(2), np.array(rate)
    dot = 2.0
    W = dot * math.exp(log_ratio)
    assert covering_step(base, rate, 0.1, dot, W, 1000)[0] == d
    assert len(seen) == evaluations
    assert not covers(base, rate, W, d - 1) and covers(base, rate, W, d)


@st.composite
def wide_covering_rows(draw):
    """A covering row of up to 2,000 entries whose rates run from identical
    to 12 decades apart; in near ties W sits a few ulps from the float sum
    S(d) at some power d, so a settle without its margin would answer d
    where the float test fails (or d + 1 where it holds)."""
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = draw(st.floats(1.0, 150.0))
    eps = draw(st.floats(0.003, 0.3))
    spread = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 12.0)))
    vals = lam * 10.0 ** (-spread * rng.random(k))
    xh = 10.0 ** rng.uniform(-3.0, 3.0, k)
    xh *= 10.0 ** draw(st.floats(-10.0, 200.0)) / float(vals @ xh)
    rate = np.log1p(eps * vals / lam)
    base, dot, g_max = vals * xh, float(vals @ xh), float(rate.max())
    budget = draw(st.one_of(st.integers(1, 3000), st.integers(3000, 10 ** 12)))
    if draw(st.booleans()):
        # a near tie at a power d whose weights stay finite
        room = (700.0 - max(math.log(dot), 0.0)) / g_max
        d = draw(st.integers(1, max(1, min(3000, int(room)))))
        W = float(base @ np.exp(d * rate))
        for _ in range(abs(ulps := draw(st.integers(-3, 3)))):
            W = math.nextafter(W, math.copysign(math.inf, ulps))
    else:
        W = dot * math.exp(draw(st.floats(1e-9, 690.0)))
    return base, rate, g_max, dot, W, budget


@given(wide_covering_rows())
@settings(max_examples=150, deadline=None)
def test_settled_steps_on_wide_rows_match_unguided_and_brute_force_searches(row):
    base, rate, g_max, dot, W, budget = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, power = covering_step(base, rate, g_max, dot, W, budget)
    assert d == unguided_first_step(lambda k: covers(base, rate, W, k), budget)
    if budget <= 3000:
        brute = next((k for k in range(1, budget + 1) if covers(base, rate, W, k)), budget)
        assert d == brute
    with np.errstate(over="ignore"):
        assert power.tobytes() == np.exp(d * rate).tobytes()


def test_overflowing_search_emits_no_warning():
    # the Jensen guess (about 1.4e8) powers the 1.0 entry past e^709; the
    # answer is near 4832, where that weight reaches W = 1
    state = WhackState(2, 1.0, 0.1)
    state.T = 10 ** 12
    state.x_hat[0] = 1e-200
    start_phase_at_written_weights(state)
    cols, vals = np.array([0, 1]), np.array([1.0, 1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state.visit(0, cols, vals) is Step.BROKE
    d = state.t
    assert state.T * math.log1p(0.1) >= 700
    assert float(vals @ state.x_hat) >= state.W
    assert 4000 < d < 6000 and np.all(np.isfinite(state.x_hat))
    assert d == row_step_size(vals, np.array([1e-200, 1.0]), 1.0, 0.1, state.W, state.T)


def test_overflowing_dot_emits_no_warning():
    # budget * g_max is 667, so exp stays finite, but the budget's power lifts
    # the 1e30 weight past the float range and the dot overflows
    vals, xh = np.array([1.0, 1e-6]), np.array([1e30, 1e206])
    rate = np.log1p(0.1 * vals)
    base, dot, W = vals * xh, float(vals @ xh), 1e201
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, _ = covering_step(base, rate, float(rate.max()), dot, W, 7000)
    assert 7000 * rate.max() < 700
    assert d == unguided_first_step(lambda k: covers(base, rate, W, k), 7000)


# -- enforce -------------------------------------------------------------------

def test_enforce_matches_repeated_whacks():
    # x_hat = (0.5, 0.5) anchors W = 1; row 0 needs 0.5 * 1.1^d >= 1, d = 8
    inst = covering([[1.0, 0.0]], lam=1.0, eps=0.1)
    state = state_for(inst)
    state.x_hat[:] = 0.5
    start_phase_at_written_weights(state)
    assert visit(state, inst, 0) is Step.BROKE  # 1.57 passes the cap 1/(1 - 0.05)
    assert state.t == 8
    assert state.whack_counts[0] == 8
    assert np.isclose(state.x_hat[0], 0.5 * 1.1 ** 8)


def test_enforce_cap_branch_sets_t_to_T():
    inst = covering([[1.0], [1.0]], lam=1.0, eps=0.1)
    inst.C.set(1, 0, 0.0)
    state = state_for(inst)
    state.start_phase()
    assert visit(state, inst, 1) is Step.BUDGET  # zero row: capped at T
    assert state.t == state.T


def test_enforce_refreshes_neighbor_dots():
    inst = covering([[1.0, 0.0], [0.6, 0.7]], lam=1.0, eps=0.1)
    state = state_for(inst)
    state.x_hat[:] = [0.4, 0.4]
    start_phase_at_written_weights(state)
    visit(state, inst, 0)
    dense = inst.C.to_dense()
    resid = [residual(state, inst, i) for i in range(inst.m)]
    assert np.allclose(resid, dense @ state.x_hat / state.W, rtol=1e-12)


def test_nan_dot_is_skipped():
    state = WhackState(2, 1.0, 0.1)
    state.start_phase()
    assert state.visit(0, np.array([0]), np.array([np.nan])) is None
    assert state.t == 0 and state.stats.enforcements == 0


# -- stored rows' power tables -----------------------------------------------------

def test_cached_powers_are_read_only():
    inst = random_covering(np.random.default_rng(7), 12, 12, eps=0.1, density=0.4)
    state = StoredRowsState(inst.n, inst.lam, inst.eps, np.zeros(inst.m, dtype=np.int64))
    run_phases(state, inst.C)
    powers = [power for _, (_, _, table) in state._rates.values() for power in table.values()]
    assert powers and not any(power.flags.writeable for power in powers)
    with pytest.raises(ValueError):
        powers[0][0] = 1.0


def exp_calls_per_run(monkeypatch, run):
    """np.exp calls made by ``run()`` and the enforcements it returns."""
    calls = []
    real = np.exp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    enforcements = run()
    monkeypatch.setattr(np, "exp", real)
    return len(calls), enforcements


# Each run below makes its setting's enforcements first on lambda = 1 draws
# (packing: 14 x 29 draws at lambda = 20), whose tallies certify a dual after
# one to a few dozen enforcements, then on a deep run that no tallies can stop
# (``diagonal_with_column``), where rows are enforced again and again.

def deep_covering():
    return NormalizedCoveringInstance(diagonal_with_column(24, 21.6, 1.3), 21.6, 0.1)


def static_run():
    insts = (random_covering(np.random.default_rng(7), 12, 12, eps=0.1, density=0.4),
             deep_covering())
    return sum(solve_fast(inst)[1].enforcements for inst in insts)


def dynamic_run():
    rng = np.random.default_rng(8)
    enforcements = 0
    for inst, spared in ((random_covering(rng, 8, 8, eps=0.1, density=0.5, hot_column=True),
                          None), (deep_covering(), 24)):
        state, _ = preprocess(inst)
        for line in restricting_stream(rng, inst, 300 if spared is None else 100):
            if state.terminal is not None:
                break
            if line.col != spared:
                state.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY,
                                                line.row, line.col, line.value))
        enforcements += state.stats.enforcements
    return enforcements


def online_run():
    enforcements = 0
    for inst in (random_covering(np.random.default_rng(9), 20, 10, eps=0.1, density=0.4),
                 deep_covering()):
        state = OnlineState(inst.n, inst.lam, inst.eps)
        for i in range(inst.m):
            if state.insert_row(*inst.C.row(i)).terminal is not None:
                break
        enforcements += state.stats.enforcements
    return enforcements


def packing_run():
    insts = [random_packing(np.random.default_rng(seed), 14, 29, eps=0.05, lam=20.0)
             for seed in range(3)]
    insts.append(PackingInstanceView(diagonal_with_column(24, 28.8, 0.8), 28.8, 0.05))
    return sum(solve_packing_fast(inst)[1].enforcements for inst in insts)


# before the power tables every enforcement computed at least one power:
# 107, 146, 55 and 9,288 np.exp calls for 96, 136, 48 and 5,010 enforcements
@pytest.mark.parametrize("run", [static_run, dynamic_run, online_run, packing_run],
                         ids=["static", "dynamic", "online", "packing"])
def test_stored_rows_reuse_their_powers(monkeypatch, run):
    calls, enforcements = exp_calls_per_run(monkeypatch, run)
    assert enforcements >= 40
    assert calls * 4 <= enforcements


def stream_run():
    for inst in (random_covering(np.random.default_rng(7), 12, 12, eps=0.1, density=0.4),
                 deep_covering()):
        solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), inst.eps)


@pytest.mark.parametrize("run, most", [(static_run, 0.6), (stream_run, 0.6), (online_run, 0.6),
                                       (dynamic_run, 1.0)],
                         ids=["static", "stream", "online", "dynamic"])
def test_most_covering_steps_settle_without_a_search(monkeypatch, run, most):
    # before the closed-form settles every enforcement evaluated S at its
    # guess: 1.13, 1.13, 1.13 and 1.07 evaluations per enforcement here
    enforcements, searches = [], []
    step, search = WhackState._step, whack_static.first_step

    def counting_step(*args):
        enforcements.append(1)
        return step(*args)

    def counting_search(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr(WhackState, "_step", staticmethod(counting_step))
    monkeypatch.setattr(whack_static, "first_step", counting_search)
    evaluations = count_evaluations(monkeypatch)
    run()
    assert len(enforcements) >= 40
    assert len(evaluations) <= most * len(enforcements)
    assert len(searches) <= 0.1 * len(enforcements)


# -- solvers -------------------------------------------------------------------

def test_solve_examples_match_template_classes():
    for dense, want in ([[1.0]], OutcomeTag.COVERING_PRIMAL), \
                       ([[0.4]], OutcomeTag.PACKING_DUAL), \
                       ([[1.0, 0.0], [0.0, 1.0]], OutcomeTag.PACKING_DUAL):
        inst = covering(dense, lam=1.0, eps=0.1)
        basic, _ = solve_basic(inst)
        fast, _ = solve_fast(inst)
        assert basic.tag is want
        assert fast.tag is want


def test_unit_instance_primal_is_exact():
    outcome, stats = solve_fast(covering([[1.0]], eps=0.1))
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    assert np.allclose(outcome.vector, [1.0])
    assert stats.enforcements == 0


def test_two_column_row_needs_no_enforcement():
    outcome, stats = solve_fast(covering([[1.0, 1.0]], eps=0.1))
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    assert stats.enforcements == 0


def test_single_small_entry_goes_dual_with_unit_mass():
    outcome, _ = solve_fast(covering([[0.4]], eps=0.1))
    assert outcome.tag is OutcomeTag.PACKING_DUAL
    assert np.isclose(outcome.vector.sum(), 1.0)


def test_fast_whack_sequence_is_a_legal_basic_run(rng):
    # criterion-2 style synchronized replay on random small instances
    for _ in range(25):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        inst = random_covering(rng, m, n, eps=0.2, density=0.6,
                               nonempty_rows=False)
        outcome, stats = solve_fast(inst, record_trace=True)
        replay_fast_as_basic(inst, outcome, stats)


def test_certificates_and_oracle_soundness(rng):
    slackf = CertificateSlack.whack_static
    for _ in range(20):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        eps = float(rng.choice([0.1, 0.2]))
        inst = random_covering(rng, m, n, eps=eps, density=0.5)
        outcome, stats = solve_fast(inst)
        assert check_certificate(inst, outcome, slackf(eps)).ok
        exact = solve_covering_exact(inst.C.to_dense())
        if outcome.tag is OutcomeTag.PACKING_DUAL:
            # y/(1+4eps) is dual feasible, so OPT >= 1/(1+4eps)
            assert exact.status == "optimal"
            assert exact.value_float() >= 1.0 / (1 + 4 * eps) - 1e-9
        else:
            assert exact.status == "optimal"
            assert exact.value_float() <= 1.0 / (1 - eps) + 1e-9


def test_monotone_weights_and_weight_cap(rng):
    for _ in range(10):
        inst = random_covering(rng, 6, 5, eps=0.2, density=0.5)
        state = state_for(inst)
        eps = inst.eps
        prev = [np.log(state.x_hat) + state.log_scale]
        ratios = [math.log(inst.n) / weight_cap(inst.n, eps)]

        def rows():
            # resumed after each visit: no true weight ever falls
            for row in inst.C.rows():
                yield row
                cur = np.log(state.x_hat) + state.log_scale
                assert np.all(cur >= prev[0] - 1e-12)
                prev[0] = cur
                ratios.append((math.log(state.x_hat.sum()) + state.log_scale)
                              / weight_cap(inst.n, eps))

        run_phases(state, SimpleNamespace(rows=rows))
        # the ratio is taken once, at the end, which is where it peaks
        assert state.stats.max_weight_ratio >= max(ratios)
        assert state.stats.max_weight_ratio <= 1.0 + 1e-9
        cap = math.ceil(weight_cap(inst.n, eps) / -math.log(1 - eps / 2)) + 1
        assert state.stats.phases <= cap


def test_phase_cap_on_dual_runs():
    inst = covering([[0.4]], eps=0.1)
    _, stats = solve_fast(inst)
    cap = math.ceil(weight_cap(1, 0.1) / -math.log(0.95)) + 1
    assert stats.phases <= cap


def test_shared_exponent_rescale_preserves_run_state():
    # weights past the rescale trigger: the enforcing visit moves the shared
    # exponent, and every true weight and the enforced row's cover survive it
    inst = covering([[0.7, 0.2, 0.0], [0.3, 0.9, 0.0]], eps=0.1)
    state = state_for(inst)
    state.x_hat *= 1e150
    start_phase_at_written_weights(state)
    assert residual(state, inst, 0) < 1 - 0.05
    visit(state, inst, 0)
    assert state.log_scale > 0
    assert float(state.x_hat.max()) <= 1e120
    assert np.isclose(state.x_hat[2] * math.exp(state.log_scale), 1e150, rtol=1e-12)
    assert state.threshold == (1 - 0.05) * state.W
    assert state.cap == state.W / (1 - 0.05)
    assert residual(state, inst, 0) >= 1 - 1e-9


def test_rescale_before_a_power_past_the_float_range():
    # one enforcement lifts a weight from 1 to about 1e126 = e^290: the state
    # divides before it powers, so no weight leaves the float range
    state = WhackState(2, 1.0, 0.1)
    state.T = 10 ** 12
    state.x_hat[0] = 1e119
    start_phase_at_written_weights(state)
    with np.errstate(all="raise"):
        assert state.visit(0, np.array([1]), np.array([1e-7])) is Step.BROKE
    assert state.log_scale > 150
    assert np.all(np.isfinite(state.x_hat)) and float(state.x_hat.max()) <= 1e120
    assert np.isclose(state.x_hat[0] * math.exp(state.log_scale), 1e119, rtol=1e-9)
    assert 1e-7 * state.x_hat[1] >= state.W * (1 - 1e-9)


def test_basic_rejects_bad_pick():
    # row 1 sits exactly at 1.0 and is not violated; forcing it must error
    inst = covering([[0.4], [1.0]], eps=0.1)
    with pytest.raises(PreconditionViolated):
        solve_basic(inst, pick=lambda resid, t: 1)


# -- golden outputs --------------------------------------------------------------------------

def scan_instance(case):
    if case in ("primal", "forced"):
        # a planted full column: at lambda = 1 the tallies certify at the first
        # phase break; at lambda = 2 the column admits no dual
        return random_covering(np.random.default_rng(21), 5, 4, eps=0.2,
                               lam=2.0 if case == "forced" else 1.0, density=0.5,
                               hot_column=True)
    if case == "dual":
        return random_covering(np.random.default_rng(22), 3, 3, eps=0.2, density=0.5,
                               lo_frac=0.1, hi_frac=0.3)
    return covering([[0.9, 0.0, 0.0, 0.0]], eps=0.004)  # rescales the shared exponent


# per case: solve_fast (tag, vector, stats, trace or its length, max_weight_ratio);
# solve_stream in FULL_DUAL and PRIMAL_ONLY (tag, vector, passes); OnlineState fed
# the rows in order (last maintained vector, terminal tag and vector, recourse,
# phase transitions). Captured before the settings shared one scan; "primal" and
# "rescale" were re-captured when the runs began to stop where their tallies
# certify, here at the first phase break ("primal" answered its primal after 18
# phases, "rescale" its dual after 2,857); "forced" was captured before that
# change, and no tallies stop it. Every value must stay exactly as it is.
GOLDEN = {
    "primal": (
        ("packing_dual", [1.0, 0.0, 0.0, 0.0, 0.0],
         {"phases": 1, "enforcements": 1, "whacks": 5, "outcome": "packing_dual"},
         [(0, 5)], 0.27260934809446796),
        [("packing_dual", [1.0, 0.0, 0.0, 0.0, 0.0], 1), ("null", None, 1)],
        (None, "packing_dual", [1.0], 0, 0),
    ),
    "forced": (
        ("covering_primal",
         [0.22011494821878147, 0.2430179675749696, 0.34006829967316654, 0.19679878453308247],
         {"phases": 2, "enforcements": 2, "whacks": 3, "outcome": "covering_primal"},
         [(1, 2), (3, 1)], 0.23452067845430827),
        [("covering_primal", [0.22011494821878147, 0.2430179675749696, 0.34006829967316654,
                              0.19679878453308247], 2)] * 2,
        ([0.2392538737039541, 0.26414830338638623, 0.36963713132218734, 0.21391037692256212],
         None, None, 4, 1),
    ),
    "dual": (
        ("packing_dual", [1.0, 0.0, 0.0],
         {"phases": 1, "enforcements": 1, "whacks": 28, "outcome": "packing_dual"},
         [(0, 28)], 0.4322697487221106),
        [("packing_dual", [1.0, 0.0, 0.0], 1), ("null", None, 1)],
        (None, "packing_dual", [1.0], 0, 0),
    ),
    "rescale": (
        ("packing_dual", [1.0],
         {"phases": 1, "enforcements": 1, "whacks": 416, "outcome": "packing_dual"},
         [(0, 416)], 0.005797940730432653),
        [("packing_dual", [1.0], 1), ("null", None, 1)],
        (None, "packing_dual", [1.0], 0, 0),
    ),
}

# a 4x4 replay of 22 halving updates that spare the planted column, until the
# dual freezes, per planted lambda: outcome tag and vector, dynamic stats,
# per-row enforcements. At lambda = 1 preprocessing now freezes the dual at its
# first phase break (re-captured; it kept its primal through all 22 updates,
# with 31 enforcements); at lambda = 2 no tallies stop it
GOLDEN_DYNAMIC = {
    1.0: ("packing_dual", [1.0, 0.0, 0.0, 0.0],
          {"updates": 0, "enforcements": 1, "phases": 1, "column_touches": 2}, [1, 0, 0, 0]),
    2.0: ("covering_primal",
          [0.4669721257962285, 0.16351557135907402, 0.14879171029039587, 0.2207205925543016],
          {"updates": 22, "enforcements": 7, "phases": 6, "column_touches": 19}, [2, 0, 0, 5]),
}

# a 3x3 general LP through the streaming reduction: x, primal guess, physical and
# total passes (re-captured when guesses began to stop where their column sums
# certify: 146 and 502 passes before)
GOLDEN_GENERAL_STREAM = ([0.8012552718009457, 0.4395628260596938, 1.0645000014011579],
                         2.639222093169075, 8, 73)


def same_vector(got, want):
    return (got is None) == (want is None) and (want is None or np.array_equal(got, want))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(case):
    inst = scan_instance(case)
    fast, streams, online = GOLDEN[case]
    outcome, stats = solve_fast(inst, record_trace=True)
    assert (outcome.tag.value, stats.as_dict(), stats.max_weight_ratio) == \
        (fast[0], fast[2], fast[4])
    assert same_vector(outcome.vector, fast[1])
    assert (stats.trace if isinstance(fast[3], list) else len(stats.trace)) == fast[3]
    for mode, (tag, vector, passes) in zip((StreamMode.FULL_DUAL, StreamMode.PRIMAL_ONLY),
                                           streams):
        got, st = solve_stream(StreamCursor.from_instance(inst, mode), inst.eps)
        assert (got.tag.value, st.passes) == (tag, passes)
        assert same_vector(got.vector, vector)
    state = OnlineState(inst.n, inst.lam, inst.eps)
    for i in range(inst.m):
        result = state.insert_row(*inst.C.row(i))
        if result.terminal is not None:
            break
    maintained, tag, dual, recourse, transitions = online
    assert same_vector(result.maintained, maintained)
    assert (None if result.terminal is None else result.terminal.tag.value) == tag
    assert same_vector(None if result.terminal is None else result.terminal.vector, dual)
    assert (state.recourse, state.phase_transitions) == (recourse, transitions)


def test_golden_dynamic_replay():
    for lam, (tag, vector, stats, enforce_log) in GOLDEN_DYNAMIC.items():
        rng = np.random.default_rng(28)
        inst = random_covering(rng, 4, 4, eps=0.1, lam=lam, density=0.6, hot_column=0)
        events = [ev for ev in restricting_stream(rng, inst, 30, halve=True) if ev.col != 0]
        state, outcome = preprocess(inst)
        for line in events:
            if state.terminal is not None:
                break
            outcome = state.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY,
                                                      line.row, line.col, line.value))
        assert (outcome.tag.value, state.stats.as_dict(), state.enforce_log.tolist()) == \
            (tag, stats, enforce_log)
        assert np.array_equal(outcome.vector, vector)


def test_golden_general_stream():
    gen = random_general(np.random.default_rng(25), 3, 3)
    result = solve_general_stream(gen, 0.1)
    x, guess, physical, total = GOLDEN_GENERAL_STREAM
    assert (result.primal_guess, result.physical_passes, result.passes_total) == \
        (guess, physical, total)
    assert np.array_equal(result.x, x)
