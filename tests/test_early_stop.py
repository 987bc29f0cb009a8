"""The stop rule: a run answers its dual at the first phase start with t > 0
where the column sums z of its tallies certify, max z <= (1 + 2 eps) t for
covering and min z >= (1 - 2 eps) t for packing.

An early y = tallies / t keeps the dual's promise with 2 eps to spare, in
every setting; static and streaming stop at the same phase; a dual frozen
by the dynamic setting stays valid under later restricting updates; at
lambda <= 1 + 2 eps every y certifies, so every run answers at its first
phase start with t > 0; and a run whose tallies never certify is bit for
bit the run of the T-round rule alone.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclp.certificates import ABS_TOL, CertificateSlack, Outcome, OutcomeTag, check_certificate
from pclp.generate import random_covering, random_packing, restricting_stream
from pclp.instances import NormalizedCoveringInstance, PackingInstanceView
from pclp.online import OnlineState
from pclp.packing import PackingState, solve_packing_fast
from pclp.sparse import UpdateEvent, UpdateKind
from pclp.streaming import StreamCursor, StreamMode, solve_stream
from pclp.whack_dynamic import UpdateAfterTerminal, preprocess
from pclp.whack_static import WhackState, solve_fast, total_rounds
from reference import diagonal_with_column

CASES = dict(seed=st.integers(0, 2 ** 16), m=st.integers(1, 12), n=st.integers(1, 12),
             eps=st.sampled_from([0.05, 0.1, 0.2]), lam=st.sampled_from([1.0, 2.0, 3.0, 8.0]),
             density=st.sampled_from([0.3, 0.6, 1.0]), hot=st.booleans())


def covering_case(seed, m, n, eps, lam, density, hot):
    return random_covering(np.random.default_rng(seed), m, n, eps=eps, lam=lam,
                           density=density, hot_column=hot)


def assert_early_dual(inst, y, eps):
    """y certifies with today's slacks, and C^T y keeps 2 eps of headroom."""
    assert check_certificate(inst, Outcome.packing_dual(y), CertificateSlack.whack_static(eps)).ok
    assert float(inst.C.rmatvec(y).max()) <= 1.0 + 2.0 * eps + ABS_TOL


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_early_covering_duals_certify_with_headroom(seed, m, n, eps, lam, density, hot):
    inst = covering_case(seed, m, n, eps, lam, density, hot)
    T = total_rounds(inst.lam, inst.n, eps)
    outcome, stats = solve_fast(inst)
    if outcome.tag is OutcomeTag.PACKING_DUAL and stats.whacks < T:
        assert_early_dual(inst, outcome.vector, eps)
    online = OnlineState(inst.n, inst.lam, eps)
    for i in range(inst.m):
        result = online.insert_row(*inst.C.row(i))
        if result.terminal is not None:
            if online.t < T:
                # over the rows seen; the rows still to come hold no mass
                assert_early_dual(inst, np.append(result.terminal.vector, np.zeros(inst.m - i - 1)),
                                  eps)
            break
    state, outcome = preprocess(inst)
    if outcome.tag is OutcomeTag.PACKING_DUAL and state.t < T:
        assert_early_dual(inst, outcome.vector, eps)


@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 10), n=st.integers(1, 10),
       eps=st.sampled_from([0.05, 0.1, 0.2]), lam=st.sampled_from([1.0, 2.0, 4.0]),
       density=st.sampled_from([0.5, 0.7]), lo=st.sampled_from([0.1, 0.3, 0.5]))
@settings(max_examples=60, deadline=None)
def test_early_packing_duals_certify_with_headroom(seed, m, n, eps, lam, density, lo):
    inst = random_packing(np.random.default_rng(seed), m, n, eps=eps, lam=lam,
                          density=density, lo_frac=lo)
    outcome, stats = solve_packing_fast(inst)
    if outcome.tag is OutcomeTag.COVERING_DUAL and stats.whacks < total_rounds(lam, n, eps):
        assert check_certificate(inst, outcome, CertificateSlack.packing_template(eps)).ok
        assert float(inst.P.rmatvec(outcome.vector).min()) >= 1.0 - 2.0 * eps - ABS_TOL


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_static_and_stream_stop_at_the_same_phase(seed, m, n, eps, lam, density, hot):
    inst = covering_case(seed, m, n, eps, lam, density, hot)
    fast, fast_stats = solve_fast(inst)
    for mode in StreamMode:
        stream, stream_stats = solve_stream(StreamCursor.from_instance(inst, mode), eps)
        assert stream_stats.passes == fast_stats.phases
        if mode is StreamMode.PRIMAL_ONLY and fast.tag is OutcomeTag.PACKING_DUAL:
            assert stream.tag is OutcomeTag.NULL
        else:
            assert stream.tag is fast.tag
            assert stream.vector.tobytes() == fast.vector.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_a_frozen_dynamic_dual_survives_later_updates(seed):
    # at lambda = 1 preprocessing freezes the dual; at lambda = 2 the planted
    # column admits none until updates halve it, so an update freezes the
    # dual, with z summed over entries that have fallen since
    rng = np.random.default_rng(seed)
    inst = random_covering(rng, 6, 6, eps=0.1, lam=1.0 + seed % 2, density=0.6, hot_column=0)
    state, outcome = preprocess(inst)
    assert (state.terminal is None) == (seed % 2 == 1)
    stream = restricting_stream(rng, inst, 400, halve=True)
    lines = iter(stream)
    for line in lines:
        if state.terminal is not None:
            break
        state.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY,
                                        line.row, line.col, line.value))
    assert state.terminal is not None and state.t < state.T
    frozen = state.terminal
    slack = CertificateSlack.whack_dynamic(inst.eps)
    later = 0
    for line in lines:
        event = UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, line.row, line.col, line.value)
        with pytest.raises(UpdateAfterTerminal):
            state.handle_update(event)
        # the matrix takes the update the frozen state refuses
        inst.C.set(line.row, line.col, line.value)
        later += 1
        assert check_certificate(inst, frozen, slack).ok
        assert float(inst.C.rmatvec(frozen.vector).max()) <= 1.0 + 2.0 * inst.eps + ABS_TOL
    assert later > 0


@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 12), n=st.integers(1, 12),
       eps=st.sampled_from([0.05, 0.1, 0.2]), density=st.sampled_from([0.3, 0.6, 1.0]),
       hot=st.booleans())
@settings(max_examples=60, deadline=None)
def test_lambda_within_two_eps_answers_at_the_first_phase_start(seed, m, n, eps, density, hot):
    # C x >= 1 needs entries up to lambda = 1, so every y on the simplex has
    # C^T y <= 1: the first phase start with t > 0 stops the run
    inst = covering_case(seed, m, n, eps, 1.0, density, hot)
    outcome, stats = solve_fast(inst)
    assert stats.phases == 1
    if outcome.tag is OutcomeTag.PACKING_DUAL:
        assert 0 < stats.whacks < total_rounds(1.0, inst.n, eps)


class NoStop:
    """A state that never tests its tallies: the T-round rule alone."""

    def certifies(self, t):
        return False


class NoStopCovering(NoStop, WhackState):
    pass


class NoStopPacking(NoStop, PackingState):
    pass


def deep_cases():
    for n, big, c, eps in ((6, 5.4, 1.3, 0.1), (12, 10.8, 1.5, 0.2), (24, 21.6, 1.3, 0.1)):
        yield NormalizedCoveringInstance(diagonal_with_column(n, big, c), big, eps)
    for n, big, c, eps in ((6, 7.2, 0.7, 0.1), (16, 19.2, 0.5, 0.2)):
        yield PackingInstanceView(diagonal_with_column(n, big, c), big, eps)
    for seed in range(12):
        yield random_covering(np.random.default_rng(seed), 10, 10, eps=0.1, lam=2.0,
                              density=0.5, hot_column=True)


@pytest.mark.parametrize("inst", list(deep_cases()))
def test_runs_no_tallies_stop_are_the_t_round_rule_alone(inst):
    packing = isinstance(inst, PackingInstanceView)
    M = inst.P if packing else inst.C
    got = []
    for cls in ((PackingState, NoStopPacking) if packing else (WhackState, NoStopCovering)):
        state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m, record_trace=True)
        budget = state.scan(M.rows)
        outcome = state.budget_outcome() if budget else state.primal_outcome()
        got.append((outcome.tag, outcome.vector.tobytes(), state.x_hat.tobytes(),
                    state.z.tobytes(), state.t, state.stats.as_dict(), state.stats.trace))
    assert got[0] == got[1]
