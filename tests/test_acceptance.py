"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, none is calibrated elsewhere.
"""
import math

import numpy as np
import pytest

from conftest import covering, positive
from pclp.certificates import CertificateSlack, OutcomeTag, check_certificate
from pclp.generate import (
    random_covering,
    random_general,
    random_positive,
    relaxing_stream_positive,
    restricting_stream,
)
from pclp.greedy import GreedyState, problem1_relaxing_state, solve_static_positive
from pclp.online import OnlineState
from pclp.oracle import (
    positive_feasible_exact,
    solve_covering_exact,
)
from pclp.reductions import solve_general_static
from pclp.sparse import SparseNonnegMatrix, UpdateEvent, UpdateKind
from pclp.streaming import StreamCursor, StreamMode, solve_stream
from pclp.whack_dynamic import enforcement_budget, preprocess
from pclp.whack_static import solve_fast, weight_cap
from reference import (apply_relaxing, cost_gradient_logs, exact_delta, invariant_report,
                       replay_fast_as_basic)


def phase_cap(n: int, eps: float) -> int:
    return math.ceil(weight_cap(n, eps) / -math.log(1.0 - eps / 2.0)) + 1


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# -- criterion 1: static certificate soundness ---------------------------------

def test_criterion_1_static_certificates():
    rng = np.random.default_rng(101)
    epss = [0.05, 0.1, 0.2]
    primal = dual = 0
    for trial in range(500):
        eps = epss[trial % 3]
        m, n = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        inst = random_covering(rng, m, n, eps=eps, density=float(rng.uniform(0.1, 0.7)),
                               nonempty_rows=False, hot_column=trial % 3 == 0)
        outcome, _ = solve_fast(inst)
        report = check_certificate(inst, outcome, CertificateSlack.whack_static(eps))
        assert report.ok, f"trial {trial}: {report.worst()}"
        assert abs(float(outcome.vector.sum()) - 1.0) <= 1e-9
        if outcome.tag is OutcomeTag.COVERING_PRIMAL:
            primal += 1
        else:
            dual += 1
    assert primal >= 50 and dual >= 50, "both certificate classes must occur"
    _report("criterion 1", f"500 instances certified, {primal} primal / {dual} dual")


# -- criterion 2: template equivalence ------------------------------------------

def test_criterion_2_template_equivalence():
    rng = np.random.default_rng(202)
    eps = 0.2
    count = 0
    # exhaustive 0/lambda patterns for m, n <= 3
    for m in range(1, 4):
        for n in range(1, 4):
            for mask in range(2 ** (m * n)):
                dense = [[1.0 if (mask >> (i * n + j)) & 1 else 0.0
                          for j in range(n)] for i in range(m)]
                inst = covering(dense, lam=1.0, eps=eps)
                outcome, stats = solve_fast(inst, record_trace=True)
                replay_fast_as_basic(inst, outcome, stats)
                count += 1
    # 200 random small instances
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        inst = random_covering(rng, m, n, eps=eps, density=0.5, nonempty_rows=False)
        outcome, stats = solve_fast(inst, record_trace=True)
        replay_fast_as_basic(inst, outcome, stats)
        count += 1
    _report("criterion 2", f"{count} synchronized replays round-for-round consistent")


# -- criterion 3: weight and phase caps -------------------------------------------

def test_criterion_3_weight_and_phase_caps():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(200):
        eps = [0.05, 0.1, 0.2][trial % 3]
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        inst = random_covering(rng, m, n, eps=eps, density=0.4, nonempty_rows=False)
        _, stats = solve_fast(inst)
        assert stats.max_weight_ratio <= 1.0 + 1e-12, "weight cap breached"
        assert stats.phases <= phase_cap(n, eps), "phase cap breached"
        checked += 1
    _report("criterion 3", f"{checked} runs within n^(1/eps) weight and phase caps")


# -- criterion 4: dynamic enforcement budget ----------------------------------------

def test_criterion_4_dynamic_budget():
    rng = np.random.default_rng(404)
    streams = 0
    max_tau = 0
    maintained_updates = 0
    while streams < 100:
        eps = [0.1, 0.2][streams % 2]
        m, n = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        # streams alternate between halving everything (drives the run to the
        # frozen dual) and sparing one planted column (keeps maintenance live
        # for the whole stream)
        inst = random_covering(rng, m, n, eps=eps, density=0.6, hot_column=0)
        state, outcome = preprocess(inst)
        budget = enforcement_budget(inst)
        slack = CertificateSlack.whack_dynamic(eps)
        events = restricting_stream(rng, inst, 10 ** 4, halve=True)
        if streams % 2 == 0:
            events = [ev for ev in events if ev.col != 0]
        max_tau = max(max_tau, len(events))
        for line in events:
            if state.terminal is not None:
                break
            outcome = state.handle_update(UpdateEvent(
                UpdateKind.RESTRICT_COVERING_ENTRY, line.row, line.col, line.value))
            maintained_updates += 1
            assert check_certificate(inst, outcome, slack).ok
            assert int(state.enforce_log.max()) <= budget
        streams += 1
    assert maintained_updates >= 500, "streams must exercise live maintenance"
    _report("criterion 4", f"100 halving streams (longest {max_tau}, "
                           f"{maintained_updates} maintained updates), "
                           "budget & certificates held")


# -- criterion 5: streaming passes and space ------------------------------------------

def test_criterion_5_streaming():
    rng = np.random.default_rng(505)
    a, b = 2, 32  # fixed space-audit constants
    for trial in range(60):
        eps = [0.1, 0.2][trial % 2]
        m, n = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        inst = random_covering(rng, m, n, eps=eps, density=0.4, nonempty_rows=False)
        _, fast_stats = solve_fast(inst)
        for mode in (StreamMode.FULL_DUAL, StreamMode.PRIMAL_ONLY):
            cursor = StreamCursor.from_instance(inst, mode)
            outcome, stats = solve_stream(cursor, eps)
            assert stats.passes == fast_stats.phases
            assert stats.passes <= phase_cap(n, eps)
            if mode is StreamMode.FULL_DUAL:
                assert stats.peak_live_words <= a * (m + n) + b
            else:
                assert stats.peak_live_words <= a * n + b
    _report("criterion 5", "60 instances x 2 modes: pass=phase, space within a*(m+n)+b")


# -- criterion 6: online recourse -------------------------------------------------------

def test_criterion_6_online_recourse():
    rng = np.random.default_rng(606)
    for trial in range(40):
        eps = [0.1, 0.2][trial % 2]
        n = int(rng.integers(2, 15))
        lam = 1.0
        state = OnlineState(n, lam, eps)
        bound = n * math.ceil(weight_cap(n, eps) / -math.log(1.0 - eps / 2.0))
        for _ in range(int(rng.integers(5, 40))):
            size = int(rng.integers(1, n + 1))
            cols = rng.choice(n, size=size, replace=False)
            vals = rng.uniform(0.2, 1.0, size=size)
            result = state.insert_row(cols, vals)
            assert state.recourse == n * state.phase_transitions
            assert state.recourse <= bound
            if result.terminal is not None:
                break
    _report("criterion 6", "40 online runs: recourse == n * transitions, under cap")


# -- criterion 7: reduction optimality gap ------------------------------------------------

def test_criterion_7_reduction_gap():
    rng = np.random.default_rng(707)
    eps, c = 0.05, 4
    worst = 0.0
    for trial in range(200):
        m, n = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        gen = random_general(rng, m, n, L=0.5, U=2.0,
                             density=float(rng.uniform(0.4, 0.9)))
        sol = solve_general_static(gen, eps)
        exact = solve_covering_exact(gen.C.to_dense(), gen.a, gen.b)
        assert exact.status == "optimal"
        opt = exact.value_float()
        lo = opt * (1 - c * eps)
        hi = opt * (1 + c * eps) / (1 - c * eps)
        assert lo - 1e-9 <= sol.objective <= hi + 1e-9, \
            f"trial {trial}: {sol.objective} vs opt {opt}"
        worst = max(worst, abs(sol.objective - opt) / opt)
    _report("criterion 7", f"200 general instances inside the c=4 window "
                           f"(worst relative gap {worst:.3f})")


# -- criterion 8: greedy static positive ---------------------------------------------------

def test_criterion_8_greedy_static():
    rng = np.random.default_rng(808)
    eps = 1 / 200
    feasible = infeasible = 0
    for trial in range(300):
        m_p = int(rng.integers(1, 7))
        m_c = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        inst = random_positive(rng, m_p, m_c, n, eps=eps,
                               density=float(rng.uniform(0.4, 1.0)))
        outcome, state = solve_static_positive(inst)
        if outcome.tag is OutcomeTag.POSITIVE_SOLUTION:
            feasible += 1
            x = outcome.vector
            assert np.all(inst.P.matvec(x) <= 1 + 200 * eps + 1e-9)
            assert np.all(inst.C.matvec(x) >= 1 - 1e-9)
        else:
            infeasible += 1
            ok, _ = positive_feasible_exact(inst.P, inst.C, 2 * eps)
            assert not ok, f"trial {trial}: infeasible verdict not oracle-confirmed"
    _report("criterion 8", f"300 instances: {feasible} solutions certified, "
                           f"{infeasible} infeasibility verdicts oracle-confirmed")


# -- criterion 9: greedy dynamic audits ------------------------------------------------------

def test_criterion_9_greedy_dynamic():
    rng = np.random.default_rng(909)
    eps = 1 / 200
    audited_boosts = 0
    events_total = 0
    for stream_no in range(20):
        m_p = int(rng.integers(1, 4))
        m_c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        inst = random_positive(rng, m_p, m_c, n, eps=eps, density=0.7)
        if stream_no % 2 == 0:
            # shrink the covering side (rebuilding the magnitude bounds) so
            # the replay starts infeasible and the relaxing events drive
            # live maintenance for longer
            from pclp.instances import PositiveInstance

            for i, j, v in list(inst.C.entries()):
                inst.C.set(i, j, 0.25 * v)
            vals = ([v for _, _, v in inst.P.entries()]
                    + [v for _, _, v in inst.C.entries()])
            inst = PositiveInstance(P=inst.P, C=inst.C, L=min(vals),
                                    U=max(vals), eps=eps)

        audits = [0]

        def hook(st, k, delta):
            dk = exact_delta(st, k)
            assert dk / 4 - 1e-12 <= delta <= dk * (1 + 1e-12), (k, delta, dk)
            audits[0] += 1

        state = GreedyState(inst, audit_hook=hook)
        state.run_static()
        logn = math.log(m_p + m_c + inst.U / inst.L)
        boost_budget = 64 * logn ** 2 / eps ** 2
        for ev in relaxing_stream_positive(rng, inst, 40):
            if state.solved:
                break
            if not apply_relaxing(state, inst, ev):
                continue
            events_total += 1
            assert max(state.boosts) <= boost_budget
            if not state.solved:
                rep = invariant_report(state)
                for key in ("c_lo", "c_hi", "p_hi", "p_lo"):
                    assert rep[key] >= -1e-9, (stream_no, key, rep)
                assert rep["hat_lam_consistency"] <= 1e-6
        audited_boosts += audits[0]
    assert events_total >= 100, "streams must exercise live maintenance"
    _report("criterion 9", f"20 relaxing streams ({events_total} events, "
                           f"{audited_boosts} per-boost heap audits) clean")


# -- criterion 10: dual extraction -------------------------------------------------------------

def test_criterion_10_dual_extraction():
    rng = np.random.default_rng(1010)
    eps = 1 / 200
    fired = 0
    for trial in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        # entries below one keep the covering optimum above one, so the
        # problem-1 encoding is infeasible and extraction fires
        C = SparseNonnegMatrix(m, n)
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.7:
                    C.set(i, j, float(rng.uniform(0.2, 0.95)))
            if not C.row_map(i):
                C.set(i, int(rng.integers(n)), float(rng.uniform(0.2, 0.95)))
        state = problem1_relaxing_state(C, eps)
        outcome = state.run_static()
        if outcome.tag is not OutcomeTag.INFEASIBLE:
            continue
        fired += 1
        y = state.extract_packing_dual()
        assert float(y.sum()) >= 1.0 - 1e-9
        assert np.all(C.rmatvec(y) <= 1 + 5 * eps + 1e-9)
        exact = solve_covering_exact(C.to_dense())
        assert exact.status == "optimal"
        assert exact.value_float() >= 1.0 / (1 + 5 * eps) - 1e-9
    assert fired >= 30
    _report("criterion 10", f"{fired} extracted duals certified + strong duality confirmed")


# -- criterion 11: gradient characterization ----------------------------------------------------

def test_criterion_11_gradient_check():
    rng = np.random.default_rng(1111)
    eps = 1 / 200
    states = 0
    while states < 100:
        m_p, m_c, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_positive(rng, m_p, m_c, n, eps=eps, density=1.0)
        st = GreedyState(inst)
        x = rng.uniform(0.0, 0.3, size=n)
        used = False
        for got, want in cost_gradient_logs(st, inst, x):
            assert abs(got - want) <= 1e-5
            used = True
        if used:
            states += 1
    _report("criterion 11", "100 random states: cost = gradient ratio x weight "
                            "ratio to 1e-5")
