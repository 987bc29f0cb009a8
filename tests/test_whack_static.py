import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.generate import random_covering
from pclp.oracle import brute_force_step_size, solve_covering_exact
from pclp.whack_static import (
    PreconditionViolated,
    WhackState,
    solve_basic,
    solve_fast,
    step_size,
    total_rounds,
    weight_cap,
    whack,
)


# -- whack -------------------------------------------------------------------

def test_whack_scales_by_entry_share():
    inst = covering([[1.0, 0.0]], lam=1.0, eps=0.1)
    out = whack(inst, 0, np.array([1.0, 1.0]))
    assert np.allclose(out, [1.1, 1.0])


def test_whack_zero_row_is_identity():
    inst = covering([[1.0], [1.0]], lam=1.0, eps=0.1)
    inst.C.set(1, 0, 0.0)
    assert np.allclose(whack(inst, 1, np.array([2.0])), [2.0])


def test_whack_half_lambda():
    inst = covering([[0.5]], lam=1.0, eps=0.2)
    assert np.allclose(whack(inst, 0, np.array([1.0])), [1.1])


# -- step size ----------------------------------------------------------------

def test_step_size_linear_scan_example():
    inst = covering([[1.0]], lam=1.0, eps=0.1)
    # 1.1^d * 0.5 >= 1 first at d = 8
    d = step_size(inst, 0, 0, np.array([0.5]), 1.0, total_rounds(1.0, 1, 0.1))
    assert d == 8


def test_step_size_single_support_column():
    inst = covering([[0.0, 1.0]], lam=1.0, eps=0.1)
    x_hat = np.array([5.0, 0.001])
    T = 10 ** 4
    d = step_size(inst, 0, 0, x_hat, 1.0, T)
    cols, vals = inst.C.row(0)
    ref = brute_force_step_size(vals, x_hat[cols], 1.0, 0.1, 1.0, T)
    assert d == ref


def test_step_size_all_zero_row_caps():
    inst = covering([[1.0], [1.0]], lam=1.0, eps=0.1)
    inst.C.set(1, 0, 0.0)
    T = total_rounds(1.0, 1, 0.1)
    assert step_size(inst, 1, 0, np.array([1.0]), 1.0, T) == T


def test_step_size_precondition():
    inst = covering([[1.0]], lam=1.0, eps=0.1)
    with pytest.raises(PreconditionViolated):
        step_size(inst, 0, 0, np.array([1.0]), 1.0, 10)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_step_size_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    eps = float(rng.choice([0.1, 0.2, 0.3]))
    vals = rng.uniform(0.05, 1.0, size=n)
    inst = covering([vals.tolist()], lam=1.0, eps=eps)
    x_hat = rng.uniform(0.05, 1.0, size=n)
    W = float(rng.uniform(1.0, 4.0))
    if float(vals @ x_hat) >= (1 - eps / 2) * W:
        return
    # small budgets put the answer at or near the cap, where the search
    # evaluates the budget itself
    for T in (*range(1, 21), 5000):
        d = step_size(inst, 0, 0, x_hat, W, T)
        ref = brute_force_step_size(vals, x_hat, 1.0, eps, W, T)
        # allow a one-step slip only when the residual sits on the float boundary
        if d != ref:
            z = vals * x_hat * (1 + eps * vals) ** min(d, ref)
            assert abs(float(z.sum()) - W) <= 1e-9 * W


# -- enforce -------------------------------------------------------------------

def test_enforce_matches_repeated_whacks():
    inst = covering([[1.0]], lam=1.0, eps=0.1)
    state = WhackState(inst)
    state.x_hat[0] = 0.5
    state.start_phase()
    state.W = 1.0
    delta = state.enforce(0)
    assert delta == 8
    assert state.t == 8
    assert state.whack_counts[0] == 8
    assert np.isclose(state.x_hat[0], 0.5 * 1.1 ** 8)


def test_enforce_cap_branch_sets_t_to_T():
    inst = covering([[1.0], [1.0]], lam=1.0, eps=0.1)
    inst.C.set(1, 0, 0.0)
    state = WhackState(inst)
    state.start_phase()
    state.enforce(1)  # zero row: capped at T
    assert state.t == state.T


def test_enforce_refreshes_neighbor_dots():
    inst = covering([[1.0, 0.0], [0.6, 0.7]], lam=1.0, eps=0.1)
    state = WhackState(inst)
    state.x_hat[:] = [0.4, 0.4]
    state.start_phase()
    state.W = 1.0
    state.enforce(0)
    dense = inst.C.to_dense()
    resid = [state.residual(i) for i in range(state.m)]
    assert np.allclose(resid, dense @ state.x_hat / state.W, rtol=1e-12)


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
        replay_trace_as_basic(inst, outcome, stats)


def replay_trace_as_basic(inst, outcome, stats):
    """Expand the fast trace round-for-round and check it obeys the
    one-whack-per-round template rules."""
    C, lam, eps = inst.C, inst.lam, inst.eps
    x_hat = np.ones(inst.n)
    rounds = 0
    for i, delta in stats.trace:
        cols, vals = C.row(i)
        for _ in range(delta):
            x = x_hat / x_hat.sum()
            assert C.dot_row(i, x) < 1.0 + 1e-12  # whacked rows are violated
            if len(cols):
                x_hat[cols] *= 1.0 + eps * vals / lam
            rounds += 1
    if outcome.tag is OutcomeTag.PACKING_DUAL:
        assert rounds == total_rounds(lam, inst.n, eps)
    else:
        x = x_hat / x_hat.sum()
        assert np.all(C.matvec(x) >= 1.0 - eps - 1e-9)  # conclude-primal rule


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
        state = WhackState(inst)
        prev = state.x_hat.copy()
        prev_scale = state.log_scale
        eps = inst.eps
        while True:
            state.start_phase()
            broke = False
            for i in range(state.m):
                if state.residual(i) < 1 - eps / 2:
                    state.enforce(i)
                    cur = np.log(state.x_hat) + state.log_scale
                    assert np.all(cur >= np.log(prev) + prev_scale - 1e-12)
                    prev, prev_scale = state.x_hat.copy(), state.log_scale
                    if state.t >= state.T:
                        broke = True
                        break
                    if state.phase_exceeded():
                        break
            else:
                break
            if broke and state.t >= state.T:
                break
        assert state.stats.max_weight_ratio <= 1.0 + 1e-9
        cap = math.ceil(weight_cap(inst.n, eps) / -math.log(1 - eps / 2)) + 1
        assert state.phase_count <= cap


def test_phase_cap_on_dual_runs():
    inst = covering([[0.4]], eps=0.1)
    _, stats = solve_fast(inst)
    cap = math.ceil(weight_cap(1, 0.1) / -math.log(0.95)) + 1
    assert stats.phases <= cap


def test_shared_exponent_rescale_preserves_run_state():
    # force the offset machinery directly: residual ratios, the phase anchor
    # and the reported vectors must be invariant under the shared rescale
    inst = covering([[0.7, 0.2], [0.3, 0.9]], eps=0.1)
    state = WhackState(inst)
    state.start_phase()
    state.x_hat *= 1e150  # beyond the rescale trigger
    state.W *= 1e150
    before_resid = [state.residual(i) for i in range(state.m)]
    before_primal = state.anchored_primal_vector().copy()
    state._maybe_rescale()
    assert state.log_scale > 0
    assert float(state.x_hat.max()) <= 1.0 + 1e-12
    assert np.allclose([state.residual(i) for i in range(state.m)], before_resid, rtol=1e-12)
    assert np.allclose(state.anchored_primal_vector(), before_primal, rtol=1e-12)
    # enforcement still works on the rescaled representation
    if state.residual(0) < 1 - 0.05:
        state.enforce(0)
        assert state.residual(0) >= 1 - 1e-9


def test_basic_rejects_bad_pick():
    # row 1 sits exactly at 1.0 and is not violated; forcing it must error
    inst = covering([[0.4], [1.0]], eps=0.1)
    with pytest.raises(PreconditionViolated):
        solve_basic(inst, pick=lambda resid, t: 1)
