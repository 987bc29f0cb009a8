import math

import numpy as np
import pytest

from conftest import covering
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.generate import random_covering, restricting_stream
from pclp.sparse import NonMonotoneUpdate, UpdateEvent, UpdateKind
from pclp.whack_dynamic import (
    DynamicWhackState,
    UpdateAfterTerminal,
    enforcement_budget,
    preprocess,
)


def restrict(i, j, v):
    return UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, i, j, v)


def test_preprocess_case_two_keeps_primal():
    state, outcome = preprocess(covering([[1.0]], eps=0.1))
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    assert np.allclose(outcome.vector, [1.0])
    assert state.terminal is None


def test_preprocess_case_one_freezes_dual():
    state, outcome = preprocess(covering([[0.4]], eps=0.1))
    assert outcome.tag is OutcomeTag.PACKING_DUAL
    assert state.terminal is not None
    with pytest.raises(UpdateAfterTerminal):
        state.handle_update(restrict(0, 0, 0.1))


def test_identity_preprocess_goes_terminal():
    state, outcome = preprocess(covering([[1.0, 0.0], [0.0, 1.0]], eps=0.1))
    assert outcome.tag is OutcomeTag.PACKING_DUAL


def test_mild_restrict_keeps_certificate():
    inst = covering([[1.0]], eps=0.1)
    state, _ = preprocess(inst)
    outcome = state.handle_update(restrict(0, 0, 0.97))
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    assert check_certificate(inst, outcome, CertificateSlack.whack_dynamic(0.1)).ok


def test_update_within_slack_is_noop():
    inst = covering([[1.0, 1.0]], eps=0.1)
    state, _ = preprocess(inst)
    before = state.stats.enforcements
    outcome = state.handle_update(restrict(0, 1, 0.995))
    assert state.stats.enforcements == before  # residual still above trigger
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL


def test_halving_stream_reaches_frozen_dual():
    inst = covering([[1.0]], eps=0.1)
    state, outcome = preprocess(inst)
    v = 1.0
    while outcome.tag is OutcomeTag.COVERING_PRIMAL:
        v /= 2
        outcome = state.handle_update(restrict(0, 0, v))
    assert outcome.tag is OutcomeTag.PACKING_DUAL
    assert check_certificate(inst, outcome, CertificateSlack.whack_dynamic(0.1)).ok
    # frozen-dual permanence: residual updates keep the certificate passing
    inst.C.set(0, 0, v / 2)
    assert check_certificate(inst, outcome, CertificateSlack.whack_dynamic(0.1)).ok


def test_non_monotone_update_rejected():
    state, outcome = preprocess(covering([[1.0]], eps=0.1))
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    with pytest.raises(NonMonotoneUpdate):
        state.handle_update(restrict(0, 0, 1.05))


def test_enforcement_budget_and_certificates_on_halving_streams(rng):
    for _ in range(8):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        inst = random_covering(rng, m, n, eps=0.2, density=0.6)
        state, outcome = preprocess(inst)
        budget = enforcement_budget(inst)
        slack = CertificateSlack.whack_dynamic(inst.eps)
        for line in restricting_stream(rng, inst, 400, halve=True):
            if state.terminal is not None:
                break
            outcome = state.handle_update(restrict(line.row, line.col, line.value))
            assert check_certificate(inst, outcome, slack).ok
            assert int(state.enforce_log.max()) <= budget
        assert check_certificate(inst, state.current_outcome(), slack).ok


def test_update_rebuilds_the_row_power_table():
    # an update hands the row out as a new array, so its rates and power table
    # are built again from the new entries: an enforcement after the update
    # applies exp(d log1p(eps vals / lam)) of the new vals, also at a d the
    # old table held
    rng = np.random.default_rng(22)
    inst = random_covering(rng, 5, 5, eps=0.1, lam=2.0, density=0.6)
    state, _ = preprocess(inst)
    checked = reused = 0
    for line in restricting_stream(rng, inst, 400):
        if state.terminal is not None:
            break
        i = line.row
        held = set(state._rates[i][1][2]) if i in state._rates else set()
        x_hat, log_scale, phases = state.x_hat.copy(), state.log_scale, state.stats.phases
        enforced, whacks = int(state.enforce_log[i]), int(state.whack_counts[i])
        state.handle_update(restrict(i, line.col, line.value))
        cols, vals = inst.C.row(i)
        rate = np.log1p(inst.eps * vals / inst.lam)
        if state.enforce_log[i] > enforced:
            rated, (_, _, powers) = state._rates[i]
            assert rated is vals
            for d, power in powers.items():
                assert power.tobytes() == np.exp(d * rate).tobytes()
        if (state.enforce_log[i] == enforced + 1 and state.stats.phases == phases
                and state.log_scale == log_scale):
            # one enforcement and nothing after it: x_hat moved by its power alone
            d = int(state.whack_counts[i]) - whacks
            assert state.x_hat[cols].tobytes() == (x_hat[cols] * np.exp(d * rate)).tobytes()
            checked += 1
            reused += d in held
    assert checked >= 1 and reused >= 1


def test_column_touch_accounting(rng):
    # total propagation work stays within c(N log n / eps^2 log^2T + tau)
    # measured as operation counters, audit constant c = 16
    for _ in range(6):
        m, n = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        eps = 0.2
        inst = random_covering(rng, m, n, eps=eps, density=0.6, hot_column=0)
        N = inst.C.nnz
        state, _ = preprocess(inst)
        events = restricting_stream(rng, inst, 2000)
        tau = 0
        for line in events:
            if state.terminal is not None:
                break
            state.handle_update(restrict(line.row, line.col, line.value))
            tau += 1
        from pclp.whack_static import total_rounds
        T = total_rounds(inst.lam, n, eps)
        bound = 16 * (N * math.log(max(n, 2)) / eps ** 2 * math.log2(T) ** 3 + tau)
        assert state.stats.column_touches <= bound
