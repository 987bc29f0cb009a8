import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packing
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.cli import main
from pclp.formats import emit_instance
from pclp.generate import random_packing
from pclp.instances import PackingInstanceView
from pclp.oracle import solve_packing_exact
from pclp.packing import PackingState, packing_floor, solve_packing_fast
from pclp.whack_static import (WhackState, anchor_log_ratio, jensen_guess, run_phases,
                               solve_basic)
from reference import diagonal_with_column


def test_unit_and_stacked_instances_primal():
    for dense in ([[1.0]], [[1.0, 1.0]], [[1.0], [1.0]]):
        inst = packing(dense, eps=0.1)
        basic, _ = solve_basic(inst)
        fast, _ = solve_packing_fast(inst)
        assert basic.tag is OutcomeTag.PACKING_PRIMAL
        assert fast.tag is OutcomeTag.PACKING_PRIMAL
        slack = CertificateSlack.packing_template(0.1)
        assert check_certificate(inst, basic, slack).ok
        assert check_certificate(inst, fast, slack).ok


def test_weights_nonincreasing_and_positive(rng):
    inst = random_packing(rng, 4, 4, eps=0.2, density=0.8)
    P, lam, eps = inst.P, inst.lam, inst.eps
    x_hat = np.ones(4)
    for t in range(200):
        load = P.matvec(x_hat / x_hat.sum())
        if np.all(load <= 1 + eps):
            break
        i = int(np.argmax(load > 1.0))
        cols, vals = P.row(i)
        new = x_hat.copy()
        new[cols] *= 1.0 - eps * vals / lam
        assert np.all(new <= x_hat + 1e-15)
        assert np.all(new > 0)
        x_hat = new


def test_random_instances_certified_and_oracle_sound(rng):
    from pclp.oracle import solve_covering_exact

    eps = 0.1
    slack = CertificateSlack.packing_template(eps)
    for _ in range(15):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        inst = random_packing(rng, m, n, eps=eps, density=0.7)
        # exact value of max 1^T x s.t. P x <= 1 equals, by strong duality,
        # min 1^T y s.t. P^T y >= 1
        exact = solve_covering_exact(inst.P.to_dense().T)
        assert exact.status == "optimal"
        opt = exact.value_float()
        for outcome in (solve_basic(inst)[0], solve_packing_fast(inst)[0]):
            assert check_certificate(inst, outcome, slack).ok
            if outcome.tag is OutcomeTag.PACKING_PRIMAL:
                # x/(1+eps) is strictly feasible for the packing max
                assert opt >= float(outcome.vector.sum()) / (1 + eps) - 1e-9
            else:
                # y/(1-4eps) is feasible for the covering min
                assert opt <= 1.0 / (1 - 4 * eps) + 1e-9


@st.composite
def packing_rows(draw):
    """A violated packing row: entries spread over up to 12 decades, W up to
    1e250, and dots from just above W to e^700 W."""
    n = draw(st.integers(1, 6))
    lam = draw(st.floats(1.0, 150.0))
    eps = draw(st.floats(0.003, 0.3))
    spread = draw(st.floats(0.0, 12.0))
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    vals = lam * 10.0 ** (-spread * shares)
    xh = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    W = 10.0 ** draw(st.floats(-10.0, 250.0))
    log_ratio = draw(st.one_of(st.floats(1e-9, 10.0), st.floats(10.0, 700.0)))
    xh *= W * math.exp(log_ratio) / float(vals @ xh)
    rate = np.log1p(-eps * vals / lam)
    return vals * xh, rate, float(vals @ xh), W


@given(packing_rows(), st.integers(1, 10 ** 12))
@settings(max_examples=300, deadline=None)
def test_no_power_at_or_below_the_packing_floor_passes(row, budget):
    base, rate, dot, W = row
    bg = float(base @ rate)
    floor = packing_floor(bg, dot, anchor_log_ratio(dot, W), budget)
    guess = jensen_guess(bg, dot, anchor_log_ratio(dot, W), budget)
    assert floor < guess or floor == budget
    # S(d) falls with d, so passing nowhere at the floor means nowhere below it
    for d in {floor, floor // 2} - {0}:
        assert not float(base @ np.exp(d * rate)) <= W


def test_packing_floor_divides_before_it_multiplies():
    # log_ratio * dot overflows to -inf at a dot of 1.2e306; the floor must
    # still come out one below the first power that passes, not clamp to
    # the budget although S(budget) passes
    base, rate, W = np.full(5, 2.4769e305), np.full(5, -0.28768), 1e234
    dot, bg = float(base.sum()), float(base @ rate)
    floor = packing_floor(bg, dot, anchor_log_ratio(dot, W), 578)
    assert floor == 577
    assert not float(base @ np.exp(floor * rate)) <= W
    assert float(base @ np.exp((floor + 1) * rate)) <= W


def test_jensen_guess_divides_before_it_multiplies():
    # the packing row above: log_ratio * dot is -inf, which would clamp the
    # guess to the budget; the bound itself is 578, the first power that passes
    base, rate, W = np.full(5, 2.4769e305), np.full(5, -0.28768), 1e234
    dot, bg = float(base.sum()), float(base @ rate)
    assert jensen_guess(bg, dot, anchor_log_ratio(dot, W), 10 ** 12) == 578
    assert float(base @ np.exp(578 * rate)) <= W


def test_fast_packing_min_weight_positive():
    inst = packing([[1.0], [1.0]], lam=1.0, eps=0.1)
    outcome, stats = solve_packing_fast(inst)
    assert stats.min_weight > 0.0


def test_packing_row_enforced_twice_is_rated_once(monkeypatch):
    # packing rows are the matrix's own, so the stored-rows cache holds
    # their rates across enforcements
    rated = []
    fresh = WhackState._row_rates

    def counting(self, i, vals):
        rated.append(i)
        return fresh(self, i, vals)

    monkeypatch.setattr(WhackState, "_row_rates", counting)
    # the draw's tallies certify after a few enforcements; the last column of
    # the second admits no covering dual, and its rows are enforced again and again
    enforced = []
    for inst in (random_packing(np.random.default_rng(33), 4, 4, eps=0.2, lam=2.0,
                                density=0.7, lo_frac=0.3),
                 PackingInstanceView(diagonal_with_column(4, 4.8, 0.7), 4.8, 0.1)):
        state = PackingState(inst.n, inst.lam, inst.eps, np.zeros(inst.m, dtype=np.int64),
                             record_trace=True)
        rated.clear()
        run_phases(state, inst.P)
        enforced = [i for i, _ in state.stats.trace]
        assert sorted(rated) == sorted(set(enforced))
    assert len(enforced) > len(set(enforced))


def test_nan_dot_is_skipped():
    state = PackingState(2, 1.0, 0.1)
    state.start_phase()
    assert state.visit(0, np.array([0]), np.array([np.nan])) is None
    assert state.t == 0 and state.stats.enforcements == 0


# -- golden outputs ------------------------------------------------------------

# per case: random_packing arguments (seed, m, n, eps, lam, lo_frac; density 0.7),
# or the arguments of ``diagonal_with_column`` (n, big, c) with eps, then
# solve_packing_fast's tag, vector, stats and min_weight. "rescale" drove a
# weight below _RESCALE_BELOW. Captured before the scan computed its own row
# dots and seeded its step search; "primal", "dual" and "rescale" were
# re-captured when runs began to stop where their tallies certify ("primal"
# answered its primal after 16 phases, "dual" and "rescale" their duals after
# 48 and 3,755); "deep" was captured before that change, and no tallies stop
# it. Every value must stay exactly as it is.
GOLDEN = {
    "primal": ((30, 4, 4, 0.2, 2.0, 0.3),
               ("covering_dual", [0.0, 0.0, 0.6666666666666666, 0.3333333333333333],
                {"phases": 3, "enforcements": 3, "whacks": 3, "outcome": "covering_dual"},
                0.6448875180527485)),
    "dual": ((33, 4, 4, 0.2, 2.0, 0.3),
             ("covering_dual", [0.25, 0.0, 0.0, 0.75],
              {"phases": 2, "enforcements": 2, "whacks": 4, "outcome": "covering_dual"},
              0.45452703758758256)),
    "rescale": ((35, 3, 3, 0.005, 4.0, 0.5),
                ("covering_dual", [0.0, 0.6517509727626459, 0.34824902723735407],
                 {"phases": 7, "enforcements": 7, "whacks": 514, "outcome": "covering_dual"},
                 0.20148354168743615)),
    "deep": ((6, 7.2, 0.7, 0.1),
             ("packing_primal",
              [0.10530264304338817, 0.11700293671487577, 0.11700293671487573,
               0.1170029367148757, 0.11700293671487573, 0.11700293671487577, 0.2950853287968911],
              {"phases": 28, "enforcements": 68, "whacks": 121, "outcome": "packing_primal"},
              0.10941898913151232)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(case):
    args, (tag, vector, stats, min_weight) = GOLDEN[case]
    if case == "deep":
        n, big, c, eps = args
        inst = PackingInstanceView(diagonal_with_column(n, big, c), big, eps)
    else:
        seed, m, n, eps, lam, lo = args
        inst = random_packing(np.random.default_rng(seed), m, n, eps=eps, lam=lam,
                              density=0.7, lo_frac=lo)
    outcome, got = solve_packing_fast(inst)
    assert (outcome.tag.value, got.as_dict(), got.min_weight) == (tag, stats, min_weight)
    assert np.array_equal(outcome.vector, vector)


@pytest.mark.parametrize("seed", [0, 3, 4, 5])
def test_weights_flushed_to_zero_keep_a_certificate(seed, tmp_path):
    # one enforcement powers a heavy column past the float range, so a
    # weight reads zero; the smallest weight is then reported at its e^-745
    # clamp, and the run ends with a certificate that checks. The draw's
    # tallies now certify a dual before any weight gets that low. On the row
    # (0, lam, 4) the empty column admits no covering dual, and the one
    # enforcement that brings 4 x_2 under W powers x_1 by (1 - eps)^(1.44 lam)
    draw = random_packing(np.random.default_rng(seed), 14, 29, eps=0.05, lam=20.0)
    lam = 5000.0 * (1 + seed)
    flushed = packing([[0.0, lam, 4.0]], lam=lam, eps=0.05)
    for inst in (draw, flushed):
        outcome, stats = solve_packing_fast(inst)
        assert check_certificate(inst, outcome, CertificateSlack.packing_template(0.05)).ok
        path = tmp_path / "p.txt"
        path.write_text(emit_instance(inst))
        assert main(["packing", str(path), "--eps", "0.05", "--verify"]) == 0
    assert stats.min_weight == math.exp(-745.0)
