import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import positive
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.formats import SetLine
from pclp.generate import random_positive, relaxing_stream_positive
from pclp.greedy import (
    _MANT_HI,
    GreedyState,
    NotInfeasibleYet,
    _logsumexp,
    problem1_relaxing_state,
    solve_static_positive,
)
from pclp.oracle import positive_feasible_exact
from pclp.sparse import NonMonotoneUpdate, SparseNonnegMatrix
from reference import (UnboundedCost, apply_relaxing, brute_force_delta, cheap,
                       cost_gradient_logs, exact_cost_log, exact_delta, invariant_report,
                       wstar_sandwich_ok)


# -- potentials -----------------------------------------------------------------

def soft_potentials(state: GreedyState) -> tuple[float, float]:
    """Smoothed max of packing loads and min of covering loads."""
    eta = state.eta
    f_p = _logsumexp([eta * s for s in state.S_p]) / eta
    f_c = -_logsumexp([-eta * s for s in state.S_c]) / eta
    return f_p, f_c


def test_soft_max_is_zero_at_origin_single_row():
    st = GreedyState(positive([[1.0]], [[1.0]]))
    f_p, _ = soft_potentials(st)
    assert f_p == 0.0


def test_soft_max_single_term():
    st = GreedyState(positive([[1.0]], [[1.0]]))
    st.S_p[0] = 1.0  # P x = 1
    f_p, _ = soft_potentials(st)
    assert np.isclose(f_p, 1.0)


def test_soft_max_two_equal_terms():
    st = GreedyState(positive([[1.0], [1.0]], [[1.0]]))
    st.S_p[0] = st.S_p[1] = 1.0
    f_p, _ = soft_potentials(st)
    assert np.isclose(f_p, 1.0 + math.log(2) / st.eta)


def test_potential_sandwich_through_a_run(rng):
    inst = random_positive(rng, 3, 3, 2, density=0.8)
    events = []

    def hook(st, k, delta):
        if st.stats.boosts_total % 997 == 0:
            f_p, f_c = soft_potentials(st)
            events.append((f_p - max(st.S_p), min(st.S_c) - f_c))

    out, st = solve_static_positive(inst, audit_hook=hook)
    f_p, f_c = soft_potentials(st)
    assert max(st.S_p) - 1e-9 <= f_p <= max(st.S_p) + st.eps + 1e-9
    assert min(st.S_c) - st.eps - 1e-9 <= f_c <= min(st.S_c) + 1e-9
    for gap_p, gap_c in events:
        assert -1e-9 <= gap_p <= st.eps + 1e-9
        assert -1e-9 <= gap_c <= st.eps + 1e-9


def test_potential_chain_with_initial_offsets(rng):
    # cumulative form of the per-boost step bound: the smoothed max never
    # outruns (1+50 eps) times the smoothed min beyond the starting offsets
    for _ in range(4):
        inst = random_positive(rng, 3, 3, 3, density=0.8)
        samples = []

        def hook(st, k, delta):
            if st.stats.boosts_total % 1009 == 0:
                samples.append(soft_potentials(st))

        out, st = solve_static_positive(inst, audit_hook=hook)
        samples.append(soft_potentials(st))
        band = 1 + 50 * st.eps
        offset = math.log(inst.m_p) / st.eta + band * math.log(inst.m_c) / st.eta
        for f_p, f_c in samples:
            assert f_p <= band * f_c + offset + 1e-9


# -- coordinate cost ---------------------------------------------------------------

def test_cost_is_one_at_origin_unit_instance():
    st = GreedyState(positive([[1.0]], [[1.0]]))
    assert np.isclose(math.exp(exact_cost_log(st, 0)), 1.0)
    assert np.isclose(math.exp(st._llam0()), 1.0)
    assert cheap(st, 0)


def test_cost_unbounded_off_covering_support():
    P = SparseNonnegMatrix.from_dense([[1.0, 1.0]])
    C = SparseNonnegMatrix.from_dense([[1.0, 0.0]])
    from pclp.instances import PositiveInstance
    st = GreedyState(PositiveInstance(P=P, C=C, L=1.0, U=1.0, eps=1 / 200))
    with pytest.raises(UnboundedCost):
        exact_cost_log(st, 1)
    assert not cheap(st, 1)


def test_cost_matches_gradient_ratio(rng):
    # lambda(x, k) = (grad f_p . e_k / grad f_c . e_k) * lambda_0(x), with the
    # gradients taken by central differences
    for _ in range(20):
        m_p, m_c, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_positive(rng, m_p, m_c, n, density=1.0)
        st = GreedyState(inst)
        x = rng.uniform(0.0, 0.4, size=n)
        for got, want in cost_gradient_logs(st, inst, x):
            # relative agreement checked in log space so huge costs stay exact
            assert abs(got - want) <= 1e-5


# -- boost ------------------------------------------------------------------------

def test_exact_delta_closed_form_and_heap_range():
    st = GreedyState(positive([[2.0]], [[1.0]]))
    dk = exact_delta(st, 0)
    assert np.isclose(dk, st.eps / (2 * st.eta))  # binding magnitude is 2
    top = st._top(0)
    delta = st.eps / (2 * st.eta * top)
    assert dk / 4 - 1e-15 <= delta <= dk + 1e-15
    ref = brute_force_delta(st.P, st.C, st.x[:st.n], 0, st.eps, st.eta)
    assert np.isclose(dk, ref)


def test_boost_early_return_on_satisfied():
    st = GreedyState(positive([[1.0]], [[1.0]]))
    st.S_c[0] = 0.999999999
    weights_before = st.mant_c[0]
    solved = st._boost_run(0)
    assert solved and st.solved
    assert st.mant_c[0] == weights_before  # returned before weight updates


def test_monotone_totals_across_boosts(rng):
    inst = random_positive(rng, 3, 3, 2, density=0.9)
    st = GreedyState(inst)
    hist = []

    def hook(state, k, delta):
        if state.stats.boosts_total % 491 == 0:
            hist.append((math.log(state.tot_p) + state.off_p,
                         math.log(state.tot_c) + state.off_c))
    st.audit_hook = hook
    st.run_static()
    for (p0, c0), (p1, c1) in zip(hist, hist[1:]):
        assert p1 >= p0 - 1e-9
        assert c1 <= c0 + 1e-9


# -- static solve -------------------------------------------------------------------

def test_unit_feasible_instance():
    inst = positive([[1.0]], [[1.0]])
    out, st = solve_static_positive(inst)
    assert out.tag is OutcomeTag.POSITIVE_SOLUTION
    assert np.isclose(out.vector[0], 1.0, rtol=1e-3)
    assert check_certificate(inst, out, CertificateSlack.greedy_positive(inst.eps)).ok


def test_half_scale_instance():
    inst = positive([[1.0]], [[2.0]])
    out, _ = solve_static_positive(inst)
    assert out.tag is OutcomeTag.POSITIVE_SOLUTION
    assert np.isclose(out.vector[0], 0.5, rtol=1e-3)


def test_clearly_infeasible_instance():
    inst = positive([[1.0]], [[0.4]])
    out, st = solve_static_positive(inst)
    assert out.tag is OutcomeTag.INFEASIBLE
    feasible, _ = positive_feasible_exact(inst.P, inst.C, 0)
    assert not feasible


def test_random_instances_verdicts_are_sound(rng):
    for _ in range(10):
        m_p, m_c, n = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        inst = random_positive(rng, m_p, m_c, n)
        out, st = solve_static_positive(inst)
        if out.tag is OutcomeTag.POSITIVE_SOLUTION:
            assert check_certificate(inst, out,
                                     CertificateSlack.greedy_positive(inst.eps)).ok
        else:
            feasible, _ = positive_feasible_exact(inst.P, inst.C, 0)
            assert not feasible


# -- relaxing updates ------------------------------------------------------------------

def test_relax_covering_revives_infeasible_instance():
    inst = positive([[1.0]], [[0.4]])
    st = GreedyState(inst)
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    out = st.relax_covering_entry(0, 0, 1.1)
    assert out.tag is OutcomeTag.POSITIVE_SOLUTION
    assert check_certificate(inst, out, CertificateSlack.greedy_positive(inst.eps)).ok
    feasible, _ = positive_feasible_exact([[1.0]], [[1.1]], 0)
    assert feasible


def assert_unchanged(st, before):
    """``st`` and its instance read as ``before``, a deep copy taken earlier."""
    for name in ("P", "C"):
        assert (sorted(getattr(st.instance, name).entries())
                == sorted(getattr(before, name).entries()))
    skip = ("instance", "P", "C")
    assert ({k: v for k, v in vars(st).items() if k not in skip}
            == {k: v for k, v in vars(before).items() if k not in skip})


@pytest.mark.parametrize("new", [math.inf, math.nan])
def test_relax_covering_rejects_a_non_finite_entry(new):
    inst = positive([[1.0]], [[0.4]])
    st = GreedyState(inst)
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    before = copy.deepcopy(st)
    with pytest.raises(NonMonotoneUpdate):
        st.relax_covering_entry(0, 0, new)
    assert_unchanged(st, before)
    # the largest finite entry is an ordinary relax
    assert st.relax_covering_entry(0, 0, 1e308).tag is OutcomeTag.POSITIVE_SOLUTION


def test_covering_translation_that_overflows_an_entry_is_rejected():
    # 0.4 scaled by 1 / 5e-324 is inf: the translation used to store it,
    # leaving S_c = [nan] and still reporting infeasible
    st = GreedyState(positive([[1.0]], [[0.4]]))
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    before = copy.deepcopy(st)
    with pytest.raises(NonMonotoneUpdate, match=r"C\[0,0\] must stay finite"):
        st.translate_covering_rhs(0, 5e-324)
    assert_unchanged(st, before)


def test_relax_covering_that_overflows_in_stored_units_is_rejected():
    # after b falls to 1e-300 the stored row is the instance's times 1e300
    # (C[0,0] = 1e290), so a finite 1e10 would be stored as inf
    st = GreedyState(positive([[1.0, 1.0]], [[1e-10, 0.0]]))
    st.translate_covering_rhs(0, 1e-300)
    before = copy.deepcopy(st)
    with pytest.raises(NonMonotoneUpdate, match=r"C\[0,1\] must stay finite"):
        st.relax_covering_entry(0, 1, 1e10)
    assert_unchanged(st, before)


def test_relax_packing_with_zero_coordinate_is_pure_bookkeeping():
    inst = positive([[1.0, 1.0]], [[0.2, 0.0]])
    st = GreedyState(inst)
    st.run_static()
    assert st.x[1] == 0.0
    ext_before = st.ext_col[0]
    sp_before = st.S_p[0]
    st.relax_packing_entry(0, 1, 0.5)
    assert st.ext_col[0] == ext_before  # delta * x_k with x_k = 0
    assert st.S_p[0] == sp_before


def test_pseudo_update_keeps_packing_dot_fixed():
    # one column: boosting it shifts the packing weight onto row 0, so its
    # cost rises past the bar well short of C x = 1
    inst = positive([[1.0], [0.1]], [[0.9]])
    st = GreedyState(inst)
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    assert st.x[0] > 0 and not st.solved
    x_at_update = st.x[0]
    st.relax_packing_entry(0, 0, 0.5)
    # the padding entry absorbed exactly delta * x_k, so the row dot identity
    # S_p = P x + ext holds with the new entry value
    assert np.isclose(st.ext_col[0], 0.5 * x_at_update)
    assert np.isclose(st.S_p[0], st.P.get(0, 0) * st.x[0] + st.ext_col[0])


def _replay(st, inst, stream):
    """Apply a relaxing stream event by event until solved; yields after each."""
    for ev in stream:
        if st.solved:
            break
        apply_relaxing(st, inst, ev)
        yield ev


def test_invariants_hold_after_every_relaxing_event(rng):
    for _ in range(4):
        inst = random_positive(rng, 3, 3, 3, density=0.6)
        st = GreedyState(inst)
        st.run_static()
        for _ in _replay(st, inst, relaxing_stream_positive(rng, inst, 30)):
            if not st.solved:
                rep = invariant_report(st)
                for key in ("c_lo", "c_hi", "p_hi", "p_lo"):
                    assert rep[key] >= -1e-9, (key, rep)
                assert rep["hat_lam_consistency"] <= 1e-6
                assert wstar_sandwich_ok(st)


def test_a_hat_that_falls_far_resums_its_columns():
    # event 7 inserts C[2,0] and moves S_c[2] from 0.003 to 0.81 at once.
    # Subtracting row 2's refreshed hat from column 0's covering sum left
    # rounding residue (-1.2e-164), so column 0, which packs nothing, read
    # as never cheap and the replay stopped with row 2 at 0.81; resummed,
    # column 0 is boosted until its rows reach 2 and then drops out
    rng = np.random.default_rng(1032)
    inst = random_positive(rng, 3, 3, 3, density=0.6)
    stream = relaxing_stream_positive(rng, inst, 30)
    st = GreedyState(inst)
    st.run_static()
    for _ in itertools.islice(_replay(st, inst, stream), 8):
        pass
    assert inst.P.col_map(0) == {} and inst.C.get(2, 0) > 0.0
    assert st.exhausted[0] and st.S_c[2] >= 2.0


def test_non_monotone_relaxing_rejected():
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    with pytest.raises(NonMonotoneUpdate):
        st.relax_packing_entry(0, 0, 1.5)
    with pytest.raises(NonMonotoneUpdate):
        st.relax_covering_entry(0, 0, 0.1)


def _greedy_snapshot(st, outcome) -> tuple:
    vector = None if outcome.vector is None else outcome.vector.tobytes()
    return (outcome.tag, vector, list(st.x), list(st.S_p), list(st.S_c),
            sorted(st.P.entries()), sorted(st.C.entries()), st.stats.as_dict())


@pytest.mark.parametrize("line, method, args", [
    (SetLine("P", 0, 1, 0.5), "relax_packing_entry", (0, 1, 0.5)),
    (SetLine("C", 0, 1, 0.6), "relax_covering_entry", (0, 1, 0.6)),
    (SetLine("a", None, 0, 1.5), "translate_packing_rhs", (0, 1.5)),
    (SetLine("b", 0, None, 0.8), "translate_covering_rhs", (0, 0.8)),
], ids=["P", "C", "a", "b"])
def test_apply_sends_each_target_to_its_method(line, method, args):
    got, want = (GreedyState(positive([[1.0, 1.0]], [[0.4, 0.4]])) for _ in range(2))
    got.run_static(), want.run_static()
    assert _greedy_snapshot(got, got.apply(line)) == \
        _greedy_snapshot(want, getattr(want, method)(*args))
    assert got.stats.translations_applied == (line.target in "ab")


@pytest.mark.parametrize("line, match", [(SetLine("P", 0, 0, 1.5), r"P\[0,0\] must decrease"),
                                         (SetLine("C", 0, 0, 0.1), r"C\[0,0\] must increase")])
def test_apply_rejects_a_line_that_does_not_relax(line, match):
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    with pytest.raises(NonMonotoneUpdate, match=match):
        st.apply(line)


def test_relax_then_translate():
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    out = st.relax_covering_entry(0, 0, 0.6)
    assert out.tag is OutcomeTag.INFEASIBLE  # still short of coverable
    st.translate_packing_rhs(0, 2.5)
    assert np.isclose(st.P.get(0, 0), 1.0 / 2.5)


def test_translation_after_solved_rescales_the_relaxed_packing_entry():
    # a relax after the solved verdict writes the instance's P; a later
    # translation rescales that value, so a stale copy cannot accept 0.8
    st = GreedyState(positive([[1.0, 1.0]], [[1.0, 1.0]]))
    assert st.run_static().tag is OutcomeTag.POSITIVE_SOLUTION
    st.relax_packing_entry(0, 0, 0.5)
    st.translate_packing_rhs(0, 2.0)
    assert st.P.get(0, 0) == 0.25 and st.P.get(0, 1) == 0.5
    with pytest.raises(NonMonotoneUpdate, match=r"P\[0,0\] must decrease"):
        st.relax_packing_entry(0, 0, 0.8)


def test_translation_after_solved_rescales_the_relaxed_covering_entry():
    st = GreedyState(positive([[1.0, 1.0]], [[1.0, 1.0]]))
    assert st.run_static().tag is OutcomeTag.POSITIVE_SOLUTION
    st.relax_covering_entry(0, 0, 2.0)
    st.translate_covering_rhs(0, 0.5)
    assert st.C.get(0, 0) == 4.0 and st.C.get(0, 1) == 2.0


@given(hst.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_stored_entries_track_instance_units_through_solved(seed):
    # replay every event, past the solved verdict too: each stored entry
    # times its row's applied right-hand side is the instance's value
    rng = np.random.default_rng(seed)
    m_p, m_c, n = (int(rng.integers(1, 4)) for _ in range(3))
    inst = random_positive(rng, m_p, m_c, n, density=0.8)
    stream = relaxing_stream_positive(rng, inst, 20)
    live = {("P", i, j): v for i, j, v in inst.P.entries()}
    live.update({("C", i, j): v for i, j, v in inst.C.entries()})
    st = GreedyState(inst)
    st.run_static()
    for ev in stream:
        if ev.target == "P":
            st.relax_packing_entry(ev.row, ev.col, ev.value)
        elif ev.target == "C":
            st.relax_covering_entry(ev.row, ev.col, ev.value)
        elif ev.target == "a":
            st.translate_packing_rhs(ev.col, ev.value)
        else:
            st.translate_covering_rhs(ev.row, ev.value)
        if ev.target in ("P", "C"):
            live[(ev.target, ev.row, ev.col)] = ev.value
    stored = {("P", i, j): v * st.rhs_applied_p[i] for i, j, v in inst.P.entries()}
    stored.update({("C", i, j): v * st.rhs_applied_c[i] for i, j, v in inst.C.entries()})
    assert stored.keys() == live.keys()
    for key, value in live.items():
        assert stored[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


# -- translations -----------------------------------------------------------------------

def test_translation_below_factor_is_noop():
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    before = st.P.get(0, 0)
    st.translate_packing_rhs(0, 1.004)
    assert st.P.get(0, 0) == before
    assert st.stats.translations_applied == 0


def test_translation_expands_to_row_scaling():
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    st.translate_packing_rhs(0, 1.004)
    st.translate_packing_rhs(0, 1.21)  # cumulative factor over (1+eps)
    assert np.isclose(st.P.get(0, 0), 1.0 / 1.21)
    assert st.stats.translations_applied == 1


def test_covering_translation_scales_row_up():
    st = GreedyState(positive([[1.0]], [[0.4]]))
    st.run_static()
    st.translate_covering_rhs(0, 1.0 / 1.21)
    assert np.isclose(st.C.get(0, 0), 0.4 * 1.21)


def test_translation_counter_stays_logarithmic(rng):
    inst = random_positive(rng, 2, 2, 2, density=1.0)
    st = GreedyState(inst)
    st.run_static()
    rhs = 1.0
    for _ in range(60):
        if st.solved:
            break
        rhs *= 1.04
        st.translate_packing_rhs(0, rhs)
    # factors in [1/poly, poly]: applications are log_{1+eps} of the range
    cap = math.ceil(math.log(rhs) / math.log1p(st.eps)) + 1
    assert st.translation_counts[0] <= cap


# -- dual extraction -----------------------------------------------------------------------

def test_uniform_dual_at_origin():
    st = GreedyState(positive([[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]))
    st.infeasible_declared = True  # weights untouched: x = 0
    y = st.extract_packing_dual()
    assert np.allclose(y, [(1 + st.eps) / 2] * 2)
    assert y.sum() >= 1.0


def test_dual_requires_infeasible_verdict():
    st = GreedyState(positive([[1.0]], [[1.0]]))
    with pytest.raises(NotInfeasibleYet):
        st.extract_packing_dual()


def test_problem1_encoding_dual_certificate():
    C = SparseNonnegMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
    st = problem1_relaxing_state(C, 1 / 200)
    out = st.run_static()
    assert out.tag is OutcomeTag.INFEASIBLE  # covering OPT is 2 > 1
    y = st.extract_packing_dual()
    assert y.sum() >= 1.0 - 1e-12
    assert np.all(C.rmatvec(y) <= 1 + 5 * st.eps + 1e-9)
    assert wstar_sandwich_ok(st)


def test_problem1_relaxing_flip_to_primal():
    C = SparseNonnegMatrix.from_dense([[0.5, 0.5]])
    st = problem1_relaxing_state(C, 1 / 200)
    out = st.run_static()
    assert out.tag is OutcomeTag.INFEASIBLE  # needs mass 2, packing caps at 1
    out = st.relax_covering_entry(0, 0, 1.5)
    assert out.tag is OutcomeTag.POSITIVE_SOLUTION
    x = out.vector
    assert x.sum() <= 1 + 200 * st.eps + 1e-9
    assert float(C.matvec(x)[0]) >= 1 - 1e-9


def test_packing_free_column_exhausts_and_verdict_stays_sound():
    # column 0 never touches the packing side, so boosting it is free; its
    # only covering row saturates at 2, the column drops out of the scans,
    # and the remaining system decides infeasibility
    inst = positive([[0.0, 1.0]], [[2.0, 0.0], [0.0, 0.4]])
    out, st = solve_static_positive(inst)
    assert out.tag is OutcomeTag.INFEASIBLE
    assert st.exhausted[0]
    assert st.S_c[0] >= 2.0 - 1e-9  # its row got satisfied for free
    feasible, _ = positive_feasible_exact(inst.P, inst.C, 0)
    assert not feasible


def test_relax_inserting_new_covering_entry_revives():
    # the revival path goes through a support insertion: column 1 starts
    # absent from the covering row and is added by the relaxing update
    inst = positive([[1.0, 0.2]], [[0.2, 0.0]])
    st = GreedyState(inst)
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    out = st.relax_covering_entry(0, 1, 1.5)
    assert out.tag is OutcomeTag.POSITIVE_SOLUTION
    x = out.vector
    assert inst.C.matvec(x)[0] >= 1 - 1e-9
    assert inst.P.matvec(x)[0] <= 1 + 200 * st.eps + 1e-9


# -- Farkas gate on infeasible verdicts ------------------------------------------------------

def farkas_ratio(st: GreedyState) -> float:
    """min_k (P^T y_p)_k / (C^T y_c)_k over the columns that C touches, for the
    state's exact weights normalized to sum one per side: y_p ~ exp(eta S_p)
    and y_c ~ exp(-eta S_c). The rows are the caller's instance (the state's
    storage) scaled by rhs_applied / rhs_true, so pending translations
    count. Above 1 it proves that no x >= 0 has P x <= 1 and C x >= 1: any x
    with C x >= 1 has max_i (P x)_i >= y_p . P x >= r y_c . C x >= r."""
    lp = [st.eta * s for s in st.S_p]
    lc = [-st.eta * s for s in st.S_c]
    y_p = np.exp(np.array(lp) - _logsumexp(lp))
    y_c = np.exp(np.array(lc) - _logsumexp(lc))
    P = st.P.to_dense() * (np.array(st.rhs_applied_p) / np.array(st.rhs_true_p))[:, None]
    C = st.C.to_dense() * (np.array(st.rhs_applied_c) / np.array(st.rhs_true_c))[:, None]
    num, den = P.T @ (y_p / y_p.sum()), C.T @ (y_c / y_c.sum())
    return min((a / b for a, b in zip(num, den) if b > 0.0), default=math.inf)


def infeasible_ratios(inst, stream) -> list[float]:
    """The Farkas ratio of every infeasible verdict of a static solve and of
    the replay of ``stream`` after it, one per verdict."""
    st = GreedyState(inst)
    st.run_static()
    ratios = [] if st.solved else [farkas_ratio(st)]
    for _ in _replay(st, inst, stream):
        if not st.solved:
            ratios.append(farkas_ratio(st))
    return ratios


def test_farkas_ratio_of_the_two_row_witness():
    # P = [1], C = [0.4]: y_p = y_c = 1 and r = 1 / 0.4
    st = GreedyState(positive([[1.0]], [[0.4]]))
    assert st.run_static().tag is OutcomeTag.INFEASIBLE
    assert farkas_ratio(st) == pytest.approx(2.5)


def test_farkas_gate_on_the_goldens():
    ratios = {case: infeasible_ratios(*golden_inputs(case)) for case in GOLDEN}
    assert ratios["feasible"] == [] and len(ratios["infeasible"]) == 1
    assert len(ratios["relaxing"]) > 1
    for case, rs in ratios.items():
        assert all(r > 1.0 for r in rs), (case, rs)


def gate_input(seed):
    """The Farkas gate's inputs: seeds 0-59 are static solves, seeds
    1000-1039 relaxing replays. A replay writes into its instance, so each
    call draws a fresh copy."""
    rng = np.random.default_rng(seed)
    if seed < 1000:
        m_p, m_c, n = (int(v) for v in rng.integers(2, 5, size=3))
        return random_positive(rng, m_p, m_c, n), []
    inst = random_positive(rng, 3, 3, 3, density=0.6)
    return inst, relaxing_stream_positive(rng, inst, 30)


GATE_SEEDS = [*range(60), *range(1000, 1040)]


def verdicts(st, inst, stream):
    """Solve, then replay ``stream``; yields the outcome after the static
    solve and after each event."""
    st.run_static()
    yield st.current_outcome()
    for _ in _replay(st, inst, stream):
        yield st.current_outcome()


@pytest.fixture(scope="module")
def gate_runs():
    """Each gate seed solved twice, by the back-off and by the every-boost
    reference (EveryBoostAttempts below). Per seed: the instance, the
    back-off's verdicts with the Farkas ratio of each infeasible one and
    the check_certificate verdict of each solution, its state, the bits of
    its state at each verdict, its per-run log of _try_jump calls, and the
    reference's verdicts and state.

    The per-run log keys on the run serial and holds [singles made so far,
    [(singles, accepted) at each _try_jump call]]; a refusal by the b_hi
    cap is a call too. A run's singles so far are the boosts it made
    outside jumps: the growth of boosts_total - jump_boosts since the run
    began."""
    boost_run, try_jump = GreedyState._boost_run, GreedyState._try_jump
    began = {}

    def singles(st):
        return st.stats.boosts_total - st.stats.jump_boosts

    def logged_run(self, k, stale=None):
        began[self] = singles(self)
        out = boost_run(self, k, stale)
        made = singles(self) - began.pop(self)
        if made and type(self) is GreedyState:
            runs.setdefault(self._run, [0, []])[0] = made
        return out

    def logged_jump(self, k, delta):
        out = try_jump(self, k, delta)
        if type(self) is GreedyState:
            run = runs.setdefault(self._run, [0, []])
            run[1].append((singles(self) - began[self], out[0]))
        return out

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GreedyState, "_boost_run", logged_run)
        mp.setattr(GreedyState, "_try_jump", logged_jump)
        for seed in GATE_SEEDS:
            runs = {}
            inst, stream = gate_input(seed)
            slack = CertificateSlack.greedy_positive(inst.eps)
            st = GreedyState(inst)
            tags, ratios, certified, snaps = [], [], [], []
            for got in verdicts(st, inst, stream):
                tags.append(got.tag)
                snaps.append(state_bits(st))
                if got.tag is OutcomeTag.POSITIVE_SOLUTION:
                    certified.append(check_certificate(inst, got, slack).ok)
                else:
                    ratios.append(farkas_ratio(st))
            ref_inst, ref_stream = gate_input(seed)
            ref = EveryBoostAttempts(ref_inst)
            ref_tags = [got.tag for got in verdicts(ref, ref_inst, ref_stream)]
            out[seed] = dict(inst=inst, tags=tags, ratios=ratios, certified=certified,
                             state=st, snaps=snaps, runs=runs, ref_tags=ref_tags, ref=ref)
    return out


def test_farkas_gate_on_static_verdicts(gate_runs):
    ratios = []
    for seed in range(60):
        run = gate_runs[seed]
        if run["ratios"]:
            inst = run["inst"]
            assert not positive_feasible_exact(inst.P, inst.C, 0)[0], seed
        ratios += [(seed, r) for r in run["ratios"]]
    assert len(ratios) > 30
    assert all(r > 1.0 for _, r in ratios), min(ratios, key=lambda sr: sr[1])


def test_farkas_gate_on_relaxing_replays(gate_runs):
    ratios = [(seed, r) for seed in range(1000, 1040) for r in gate_runs[seed]["ratios"]]
    assert len(ratios) > 300
    assert all(r > 1.0 for _, r in ratios), min(ratios, key=lambda sr: sr[1])


# -- budgets ----------------------------------------------------------------------------------

def test_boost_budget_within_audit_constant(rng):
    for _ in range(5):
        inst = random_positive(rng, 2, 2, 2)
        out, st = solve_static_positive(inst)
        logn = math.log(inst.m_p + inst.m_c + inst.U / inst.L)
        budget = 64 * logn ** 2 / inst.eps ** 2
        assert max(st.boosts) <= budget


# -- certified jumps ---------------------------------------------------------------------

def test_every_accepted_jump_stays_cheap(monkeypatch):
    # the certified segment keeps the exact cost within (1+5 eps) of the
    # exact lambda_0 at 17 evenly spaced lengths from 1 to B
    jump = GreedyState._jump
    checked = []

    def checked_jump(self, k, delta, B):
        assert B >= 16
        for b in sorted({max(1, B * i // 16) for i in range(17)}):
            trial = copy.deepcopy(self)
            if jump(trial, k, delta, b):
                trial._resync()  # a solving jump returns before the rebuild
            gap = exact_cost_log(trial, k) - trial._llam0()
            assert gap <= math.log1p(5.0 * self.eps) + 1e-9, (k, B, b, gap)
        checked.append(B)
        return jump(self, k, delta, B)

    monkeypatch.setattr(GreedyState, "_jump", checked_jump)
    for seed in (7, 9, 15):  # infeasible, and two feasible ones
        inst = random_positive(np.random.default_rng(seed), 3, 3, 3)
        _, st = solve_static_positive(inst)
        assert st.stats.jumps > 0
    assert len(checked) > 100


def test_jump_counters_add_up():
    inst = random_positive(np.random.default_rng(15), 3, 3, 3)
    _, st = solve_static_positive(inst)
    s = st.stats
    assert 0 < s.jumps <= s.jump_attempts
    assert 16 * s.jumps <= s.jump_boosts <= s.boosts_total
    stats = s.as_dict()
    assert stats["boosts"] == s.boosts_total and "boosts_total" not in stats
    for key in ("wstar_refreshes", "jump_attempts", "jumps", "jump_boosts"):
        assert stats[key] == getattr(s, key)


def grid_search_from_16(state, k, delta, b_hi):
    """The cold search the warm start replaces: certify B = 16, 64, 256, ...
    up to b_hi, stop at the first failure, then probe b_hi when the last
    certified B is within a factor four of it; 0 when nothing certifies."""
    parts = state._segment_profile(k, delta)
    p0 = parts(0.0)

    def certified(b):
        return state._segment_certified(p0, parts(float(b)), float(b))

    best, b = 0, 16
    while b <= b_hi and certified(b):
        best, b = b, b * 4
    if best and best * 4 > b_hi and best != b_hi and certified(b_hi):
        best = b_hi
    return best


def record_jump_attempts(monkeypatch, look):
    """Call ``look(state, k, delta, b_hi)`` before every jump attempt and
    collect (its answer, the B the attempt executed or 0)."""
    try_jump = GreedyState._try_jump
    seen = []

    def recorded(self, k, delta):
        b_hi = self._segment_cap(k, delta)
        if not b_hi >= 16:
            return try_jump(self, k, delta)
        want = look(self, k, delta, b_hi)
        before = self.stats.jump_boosts
        out = try_jump(self, k, delta)
        seen.append((want, self.stats.jump_boosts - before))
        return out

    monkeypatch.setattr(GreedyState, "_try_jump", recorded)
    return seen


def golden_inputs(case):
    if case == "relaxing":
        rng = np.random.default_rng(19)
        inst = random_positive(rng, 3, 3, 3, density=0.6)
        return inst, relaxing_stream_positive(rng, inst, 30)
    return random_positive(np.random.default_rng(15 if case == "feasible" else 7), 3, 3, 3), []


def golden_run(case):
    inst, stream = golden_inputs(case)
    st = GreedyState(inst)
    st.run_static()
    for _ in _replay(st, inst, stream):
        pass
    return st, inst


@pytest.mark.parametrize("case", ["feasible", "infeasible", "relaxing"])
def test_warm_started_search_picks_the_cold_grid_answer(monkeypatch, case):
    seen = record_jump_attempts(monkeypatch, grid_search_from_16)
    st, _ = golden_run(case)
    assert len(seen) == st.stats.jump_attempts > 0
    assert sum(b > 0 for b, _ in seen) == st.stats.jumps
    mismatches = [(want, got) for want, got in seen if want != got]
    assert not mismatches, mismatches[:5]


def test_segment_profile_matches_a_fresh_build(monkeypatch):
    # the per-run profile is reused across attempts; at every attempt it
    # must give the endpoints a build from the current state gives. Columns
    # 0 and 2 of the first instance share their increment, so a profile
    # keyed without the run would be reused across coordinates. Criterion
    # 8's first 50 draws add the attempts that certified jumps no longer
    # need on the two fixed runs
    profile = GreedyState._segment_profile
    compared = []

    def checked(self, k, delta):
        parts = profile(self, k, delta)
        got = [parts(b) for b in (0.0, 16.0, 1024.0)]
        self._profile_key = None
        fresh = profile(self, k, delta)
        compared.append(got == [fresh(b) for b in (0.0, 16.0, 1024.0)])
        return fresh

    monkeypatch.setattr(GreedyState, "_segment_profile", checked)
    solve_static_positive(positive([[0.5, 0.2, 0.1], [0.1, 0.5, 0.4]],
                                   [[1.0, 0.3, 1.0], [0.3, 1.0, 0.5]]))
    golden_run("relaxing")
    rng = np.random.default_rng(808)
    for _ in range(50):
        m_p, m_c, n = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        solve_static_positive(random_positive(rng, m_p, m_c, n,
                                              density=float(rng.uniform(0.4, 1.0))))
    assert len(compared) > 2000 and all(compared)


@given(hst.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_certification_is_monotone_on_the_grid(seed):
    # the warm start's premise: at every attempt, the grid lengths up to
    # b_hi that certify are a prefix 16, 64, ..., so starting anywhere and
    # walking to the boundary finds the cold search's answer
    def certified_grid(state, k, delta, b_hi):
        parts = state._segment_profile(k, delta)
        p0 = parts(0.0)
        marks, b = [], 16
        while b <= min(b_hi, 16 * 4 ** 10):
            marks.append(state._segment_certified(p0, parts(float(b)), float(b)))
            b *= 4
        assert marks == sorted(marks, reverse=True), (k, delta, b_hi, marks)
        return sum(marks)

    with pytest.MonkeyPatch.context() as mp:
        seen = record_jump_attempts(mp, certified_grid)
        rng = np.random.default_rng(seed)
        inst = random_positive(rng, *rng.integers(1, 4, size=3), density=0.7)
        st = GreedyState(inst)
        st.run_static()
        for _ in _replay(st, inst, relaxing_stream_positive(rng, inst, 10)):
            pass
    assert len(seen) == st.stats.jump_attempts


def reference_certified(eps, p0, pB, B):
    """The segment test the chord/tangent bound replaced: h's larger endpoint
    against u's minimum under its two endpoint tangents. Kept as the
    reference the new bound must never fall short of."""
    h0, _, u0, us0 = p0
    hB, _, uB, usB = pB
    max_h = max(h0, hB)
    if us0 >= 0.0:
        min_u = u0
    elif usB <= 0.0:
        min_u = uB
    elif us0 < usB:
        bstar = (uB - usB * B - u0) / (us0 - usB)
        min_u = u0 + us0 * min(max(bstar, 0.0), B)
    else:
        min_u = min(u0, uB)
    return max_h - min_u <= math.log1p(5.0 * eps) - 1e-12


@given(hst.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_chord_tangent_bound_is_sound_and_keeps_every_old_segment(seed):
    # at every attempt and every grid length B up to b_hi (and b_hi when it
    # is finite): the exact g = h - u stays under the bar at 33 evenly
    # spaced points of [0, B] and at the tangents' crossing b* whenever
    # the bound certifies B, and every B the old test certified certifies.
    # A run in the infeasible regime can make 20,000 attempts, so only a
    # run's first 1,000 are checked, which keeps an example under a second
    certified = []

    def check(state, k, delta, b_hi):
        if state.stats.jump_attempts >= 1000:
            return None
        parts = state._segment_profile(k, delta)
        p0 = parts(0.0)
        bar = math.log1p(5.0 * state.eps) + 1e-9
        grid = [16 * 4 ** i for i in range(11) if 16 * 4 ** i <= b_hi]
        if b_hi < math.inf and b_hi not in grid:
            grid.append(b_hi)
        for B in map(float, grid):
            pB = parts(B)
            ok = state._segment_certified(p0, pB, B)
            assert ok or not reference_certified(state.eps, p0, pB, B), (k, delta, B)
            if not ok:
                continue
            points = list(np.linspace(0.0, B, 33))
            (_, _, u0, us0), (_, _, uB, usB) = p0, pB
            if us0 < usB:
                points.append(min(max((uB - usB * B - u0) / (us0 - usB), 0.0), B))
            for b in points:
                h, _, u, _ = parts(float(b))
                assert h - u <= bar, (k, delta, B, b, h - u)
            certified.append(B)

    with pytest.MonkeyPatch.context() as mp:
        seen = record_jump_attempts(mp, check)
        rng = np.random.default_rng(seed)
        inst = random_positive(rng, *rng.integers(1, 4, size=3), density=0.7)
        st = GreedyState(inst)
        st.run_static()
        for _ in _replay(st, inst, relaxing_stream_positive(rng, inst, 10)):
            pass
    assert len(seen) == st.stats.jump_attempts
    assert len(certified) >= sum(got > 0 for _, got in seen[:1000])


# -- the per-boost chain ----------------------------------------------------------------

class ReferenceBoosts(GreedyState):
    """The boost run as a chain of calls, one frame per layer: _boost_run
    calls _boost_once per single boost, which reads the factor table
    through _factors (cached on the state across runs) and refreshes each
    stale hat through _refresh_hat_p / _refresh_hat_c before it returns.
    A stale row handed to a run is refreshed first, as the covering relax
    once did before its runs. The production loop must leave every bit
    and count where this chain does.

    ``rescales`` counts the rescale checks that fired inside a run and
    ``handoffs`` the stale rows handed to a run, so a test can show that
    its inputs reach both."""

    _fcache_key = _fcache = None
    rescales = handoffs = 0

    def _boost_run(self, k, stale=None):
        if stale is not None:
            self.handoffs += 1
            self._refresh_hat_c(stale)
        if self.exhausted[k]:
            return False
        self._run += 1
        scale = self.eps / (2.0 * self.eta)
        singles = 0
        next_try, gap = 24, 1
        while cheap(self, k):
            top = self._top(k)
            if top == 0.0:
                self.exhausted[k] = True
                return False
            delta = scale / top
            if singles >= next_try and self.audit_hook is None:
                jumped, solved = self._try_jump(k, delta)
                if solved:
                    return True
                if jumped:
                    gap = 1
                    continue
                next_try, gap = singles + gap, 2 * gap
            if self._boost_once(k, delta):
                return True
            singles += 1
        lwc = math.log(self.tot_c) + self.off_c
        if self.log_wstar_c > lwc + math.log1p(self.eps):
            self.log_wstar_c = lwc
            self.stats.wstar_refreshes += 1
        return False

    def _factors(self, k, delta):
        key = (k, delta, self.colver[k])
        if self._fcache_key != key:
            eta = self.eta
            fp = [(i, v, math.exp(eta * v * delta)) for i, v in self.pcol[k].items()]
            fc = [(j, v, math.exp(-eta * v * delta)) for j, v in self.ccol[k].items()]
            self._fcache_key = key
            self._fcache = (fp, fc)
        return self._fcache

    def _boost_once(self, k, delta):
        self.stats.boosts_total += 1
        self.boosts[k] += 1
        if self.audit_hook is not None:
            self.audit_hook(self, k, delta)
        self.x[k] += delta
        fp, fc = self._factors(k, delta)
        S_c = self.S_c
        crossed_two = None
        for j, v, _ in fc:
            old = S_c[j]
            new = old + v * delta
            S_c[j] = new
            if old < 1.0 <= new:
                self.unsat -= 1
            if old < 2.0 <= new and self.active[j]:
                if crossed_two is None:
                    crossed_two = [j]
                else:
                    crossed_two.append(j)
        if self.unsat == 0:
            self.solved = True
            return True
        S_p = self.S_p
        mant_p = self.mant_p
        pending_p = None
        for i, v, f in fp:
            S_p[i] += v * delta
            m = mant_p[i]
            mant_p[i] = m * f
            self.tot_p += mant_p[i] - m
            if S_p[i] > self.sthr_p[i]:
                if pending_p is None:
                    pending_p = [i]
                else:
                    pending_p.append(i)
        mant_c = self.mant_c
        pending_c = None
        for j, v, f in fc:
            m = mant_c[j]
            mant_c[j] = m * f
            self.tot_c += mant_c[j] - m
            if S_c[j] > self.sthr_c[j]:
                if pending_c is None:
                    pending_c = [j]
                else:
                    pending_c.append(j)
        if pending_p is not None:
            for i in pending_p:
                self._refresh_hat_p(i)
        if pending_c is not None:
            for j in pending_c:
                self._refresh_hat_c(j)
        if crossed_two is not None:
            for j in crossed_two:
                self._deactivate(j)
        if self.tot_p > _MANT_HI or self.tot_c < 1e-9 * self.anchor_c:
            self.rescales += 1
            self._maybe_rescale()
        return False

    def _refresh_hat_p(self, i):
        self.hat_lw_p[i] = self.eta * self.S_p[i]
        new = math.exp(self.hat_lw_p[i] - self.off_p)
        d = new - self.hm_p[i]
        self.hm_p[i] = new
        self.sthr_p[i] = self._sthr_p(i)
        for k, v in self.prow[i].items():
            self.hatN[k] += d * v
        self.stats.weight_refreshes += 1

    def _refresh_hat_c(self, j):
        self.hat_lw_c[j] = -self.eta * self.S_c[j]
        new = math.exp(self.hat_lw_c[j] - self.off_c)
        d = new - self.hm_c[j]
        self.hm_c[j] = new
        self.sthr_c[j] = self._sthr_c(j)
        for k, v in self.crow[j].items():
            self.hatD[k] += d * v
            if self.hatD[k] < 1e-9 * self.peakD[k]:
                self.hatD[k] = self.peakD[k] = self._column_hatD(k)
        self.stats.weight_refreshes += 1


FLOAT_LISTS = ("x", "S_p", "S_c", "mant_p", "mant_c", "hm_p", "hm_c", "hat_lw_p", "hat_lw_c",
               "sthr_p", "sthr_c", "hatN", "hatD", "peakD")
FLOATS = ("tot_p", "tot_c", "off_p", "off_c", "log_wstar_c")


def state_bits(st) -> dict:
    """Every float the boost run writes, as raw bytes, plus its counts."""
    out = {name: np.asarray(getattr(st, name), dtype=np.float64).tobytes()
           for name in FLOAT_LISTS}
    out.update((name, float.hex(getattr(st, name))) for name in FLOATS)
    out["boosts"] = list(st.boosts)
    out["stats"] = st.stats.as_dict()
    return out


# -- jump back-off ----------------------------------------------------------------------

class EveryBoostAttempts(ReferenceBoosts):
    """The attempt rule the back-off replaced: once a run has made 24 single
    boosts, every further boost first tries a jump. Kept as the reference
    the back-off must match in verdicts and never exceed in attempts."""

    def _boost_run(self, k, stale=None):
        if stale is not None:
            self._refresh_hat_c(stale)
        if self.exhausted[k]:
            return False
        self._run += 1
        scale = self.eps / (2.0 * self.eta)
        singles = 0
        while cheap(self, k):
            top = self._top(k)
            if top == 0.0:
                self.exhausted[k] = True
                return False
            delta = scale / top
            if singles >= 24 and self.audit_hook is None:
                jumped, solved = self._try_jump(k, delta)
                if solved:
                    return True
                if jumped:
                    continue
            if self._boost_once(k, delta):
                return True
            singles += 1
        lwc = math.log(self.tot_c) + self.off_c
        if self.log_wstar_c > lwc + math.log1p(self.eps):
            self.log_wstar_c = lwc
            self.stats.wstar_refreshes += 1
        return False


def test_back_off_keeps_verdicts_and_spaces_refused_attempts(gate_runs):
    windows = 0
    for seed, run in gate_runs.items():
        st, ref = run["state"], run["ref"]
        assert run["tags"] == run["ref_tags"], seed
        assert all(run["certified"]), seed
        assert all(r > 1.0 for r in run["ratios"]), seed
        assert st.stats.jump_attempts <= ref.stats.jump_attempts, seed
        assert sum(len(a) for _, a in run["runs"].values()) >= st.stats.jump_attempts
        # an accepted jump resets the wait; between resets, the r-th refusal
        # comes 2^(r-1) - 1 singles after the first and is followed by one
        # single, so r refusals span at least 2^(r-1) singles
        for singles, attempts in run["runs"].values():
            first, refused = None, 0
            for at, accepted in attempts + [(singles, True)]:
                if accepted:
                    if refused:
                        windows += 1
                        assert refused <= 1 + int(math.log2(at - first)), (seed, first, at)
                    first, refused = None, 0
                else:
                    first = at if first is None else first
                    refused += 1
    assert windows > 1000


def test_audit_mode_never_jumps():
    inst = random_positive(np.random.default_rng(15), 3, 3, 3)
    _, st = solve_static_positive(inst, audit_hook=lambda *_: None)
    assert st.stats.jump_attempts == 0 and st.stats.jump_boosts == 0


# -- the one-frame boost run against the per-boost chain ------------------------------------

def test_boost_run_matches_the_per_boost_chain(gate_runs):
    # every gate input, compared at every verdict; between them the inputs
    # rescale inside a run and hand a covering relax's stale row to a run
    rescales = handoffs = 0
    for seed in GATE_SEEDS:
        inst, stream = gate_input(seed)
        ref = ReferenceBoosts(inst)
        snaps = [state_bits(ref) for _ in verdicts(ref, inst, stream)]
        assert snaps == gate_runs[seed]["snaps"], seed
        rescales += ref.rescales
        handoffs += ref.handoffs
    assert rescales >= 40 and handoffs >= 100, (rescales, handoffs)


def test_audit_mode_matches_the_per_boost_chain():
    # relaxing gate input 1009 single-steps 192,707 boosts in audit mode,
    # with 23 rescales inside runs and 3 stale rows handed over; the hook
    # sees the same state in both, with the hat sandwiches intact
    def audited(cls):
        inst, stream = gate_input(1009)
        seen = []

        def hook(st, k, delta):
            if st.stats.boosts_total % 997 == 0:
                rep = invariant_report(st)
                assert min(rep[key] for key in ("c_lo", "c_hi", "p_hi", "p_lo")) >= -1e-9, rep
                seen.append((k, float.hex(delta), state_bits(st)))

        st = cls(inst, audit_hook=hook)
        return st, [state_bits(st) for _ in verdicts(st, inst, stream)], seen

    st, snaps, seen = audited(GreedyState)
    ref, ref_snaps, ref_seen = audited(ReferenceBoosts)
    assert snaps == ref_snaps
    assert seen == ref_seen and len(seen) > 100
    assert st.stats.jump_attempts == 0
    assert ref.rescales > 0 and ref.handoffs > 0


# -- golden outputs --------------------------------------------------------------------------

# (tag, boosts_total, phases, weight_refreshes, wstar_refreshes, heap_readjusts,
#  translations_applied, x); refactors of the boost and jump code must leave
# every one of these exactly as it is
GOLDEN = {
    "feasible": ("positive_solution", 275871, 15, 4004, 44, 0, 0,
                 [0.07631903549985919, 0.4489963110197058, 0.25011399871250517]),
    "infeasible": ("infeasible", 6097, 10, 1382, 25, 0, 0,
                   [0.0030639733345597968, 0.004021726710399496, 0.010096802555202757]),
    "relaxing": ("positive_solution", 214009, 12, 648, 14, 1, 5,
                 [0.0, 0.0014633091729982174, 0.971135162162719]),
}
# final sorted (row, col, value) entries of the instance's P and C after the
# relaxing replay: the state writes its updates into the instance's matrices
RELAXING_ENTRIES = (
    [(0, 0, 1.5332890654354971), (0, 1, 0.47900805303801286), (0, 2, 0.6728793348796784),
     (1, 1, 0.6826751203401731), (2, 1, 1.1145389036232025)],
    [(0, 0, 0.25020086577621936), (0, 1, 1.3702343396379202), (0, 2, 1.1628471311678257),
     (1, 0, 0.3870436833697548), (1, 1, 0.22949493183310993), (1, 2, 1.0293775802272112),
     (2, 1, 1.853254474823346), (2, 2, 1.3270753335440457)],
)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(case):
    st, inst = golden_run(case)
    s = st.stats
    got = (st.current_outcome().tag.value, s.boosts_total, s.phases, s.weight_refreshes,
           s.wstar_refreshes, s.heap_readjusts, s.translations_applied)
    assert got == GOLDEN[case][:-1]
    assert np.array_equal(np.asarray(st.x), np.asarray(GOLDEN[case][-1]))
    if case == "relaxing":
        assert (sorted(inst.P.entries()), sorted(inst.C.entries())) == RELAXING_ENTRIES
