"""The phase kernel against the per-row chain it replaced.

``ReferenceChain`` keeps that chain as the reference: ``scan`` restarts
once per phase and hands each row to ``visit``, which tests it and passes a
violated row to ``_enforce``; a visit given a row source rescans it with
``scan`` when the enforcement breaks the phase, as the caller of a visit
once did. ``_enforce`` reads the row's rates through
``_row_rates`` (a stored row's from the state's cache), takes the step
through ``_step`` and the total through ``_settle`` at every enforcement,
and keeps every count, and the column sums z of the tallies, on the state as
it goes. ``scan`` stops at a phase start with t > 0 once z / t certifies a
dual, which it tests on its own (``certified``). Mixed into each setting's
state, it must leave every output bit and count where the kernel leaves
them: on static covering (a rescale mid-phase included), packing (a flushed
weight included), online inserts, streaming in both modes and dynamic
replays.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import covering
from pclp.generate import random_covering, random_general, random_packing, restricting_stream
from pclp.online import OnlineState
from pclp.packing import PackingState
from pclp.reductions import solve_general_stream
from pclp.sparse import SparseNonnegMatrix, UpdateEvent, UpdateKind
from pclp.whack_dynamic import DynamicWhackState
from pclp.whack_static import Step, StoredRowsState, WhackState, run_phases
from reference import diagonal_with_column


class ReferenceChain:
    """The per-row chain: one Python call per layer and the counts kept on
    the state at every enforcement."""

    def scan(self, rows):
        while True:
            if self.t > 0 and self.certified():
                return True
            self.start_phase()
            for i, cols, vals in rows():
                step = self.visit(i, cols, vals)
                if step is not None:
                    if step is Step.BUDGET:
                        return True
                    break
            else:
                return False

    def visit(self, i, cols, vals, rows=None):
        xh = self.x_hat[cols]
        dot = float(vals.dot(xh))
        violated = dot < self.threshold if self._RATE_SIGN > 0 else dot > self.threshold
        if not violated:
            return None
        step = self._enforce(i, cols, vals, xh, dot)
        if step is Step.BROKE and rows is not None:
            return Step.BUDGET if self.scan(rows) else None
        return step

    def _enforce(self, i, cols, vals, xh, dot):
        if self._enforced is not None:
            self._enforced[i] += 1
            self.stats.column_touches += len(cols)
        budget = self.T - self.t
        rate = power = None
        if len(cols):
            rate, g_max, powers = self._stored_rates(i, vals)
            delta, power = self._step(vals * xh, rate, g_max, dot, self.W, budget, powers)
            self.x_hat[cols] = xh * power
            self.z[cols] += delta * vals
        else:
            delta = budget
        total = self._settle(float(np.add.reduce(self.x_hat)), cols, xh, delta, rate, power)
        self.total = total
        self.t += delta
        if self.whack_counts is not None:
            self.whack_counts[i] += delta
        self.stats.enforcements += 1
        self.stats.whacks = self.t
        if self.record_trace:
            self.stats.trace.append((i, delta))
        if self.t >= self.T:
            return Step.BUDGET
        return Step.BROKE if total > self.cap or total < self.floor else None

    def certified(self):
        """z / t within 2 eps of the dual's promise: at most 1 + 2 eps for
        covering, at least 1 - 2 eps for packing."""
        if self._RATE_SIGN > 0:
            return max(self.z) <= (1.0 + 2.0 * self.eps) * self.t
        return min(self.z) >= (1.0 - 2.0 * self.eps) * self.t

    def _stored_rates(self, i, vals):
        if self._rates is None:
            return self._row_rates(i, vals)
        hit = self._rates.get(i)
        if hit is not None and hit[0] is vals:
            return hit[1]
        rate, g_max, _ = self._row_rates(i, vals)
        rated = rate, g_max, {}
        self._rates[i] = (vals, rated)
        return rated


class RefStored(ReferenceChain, StoredRowsState):
    pass


class RefStreamed(ReferenceChain, WhackState):
    pass


class RefPacking(ReferenceChain, PackingState):
    pass


class RefOnline(ReferenceChain, OnlineState):
    pass


class RefDynamic(ReferenceChain, DynamicWhackState):
    pass


def snapshot(state) -> dict:
    """Every output bit and count a run leaves on its state."""
    out = {"x_hat": state.x_hat.tobytes(), "z": state.z.tobytes(),
           "log_scale": state.log_scale.hex(),
           "total": float(state.total).hex(), "W": float(state.W).hex(), "t": state.t,
           "tallies": None if state.whack_counts is None else list(state.whack_counts),
           "stats": state.stats.as_dict(), "trace": list(state.stats.trace)}
    if isinstance(state, PackingState):
        out["min_weight"] = state.stats.min_weight.hex()
    if isinstance(state, DynamicWhackState):
        out["enforce_log"] = state.enforce_log.tolist()
        out["terminal"] = None if state.terminal is None else state.terminal.tag.value
    return out


def covering_case(seed, m, n, eps, lam, density):
    return random_covering(np.random.default_rng(seed), m, n, eps=eps, lam=lam,
                           density=density, hot_column=0 if seed % 3 == 0 else False)


CASES = dict(seed=st.integers(0, 2 ** 16), m=st.integers(1, 10), n=st.integers(1, 10),
             eps=st.sampled_from([0.05, 0.1, 0.2]), lam=st.sampled_from([1.0, 3.0, 8.0]),
             density=st.sampled_from([0.3, 0.6, 1.0]))


# -- static covering and packing ---------------------------------------------------------

@given(**CASES)
@example(seed=7, m=1, n=20, eps=0.003, lam=1.0, density=0.05)  # a rescale mid-phase
@settings(max_examples=40, deadline=None)
def test_static_scan_matches_the_reference(seed, m, n, eps, lam, density):
    got = []
    for cls in (StoredRowsState, RefStored):
        inst = covering_case(seed, m, n, eps, lam, density)
        state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m, record_trace=True)
        outcome = run_phases(state, inst.C)
        got.append((outcome.tag, outcome.vector.tobytes(), state.stats.max_weight_ratio,
                    snapshot(state)))
    assert got[0] == got[1]


def packing_case(seed, m, n, eps, lam, density, lo):
    return random_packing(np.random.default_rng(seed), m, n, eps=eps, lam=lam,
                          density=density, lo_frac=lo)


@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 9), n=st.integers(1, 9),
       eps=st.sampled_from([0.05, 0.1, 0.2]), lam=st.sampled_from([1.0, 2.0, 4.0]),
       density=st.sampled_from([0.5, 0.7]), lo=st.sampled_from([0.1, 0.3, 0.5]))
@example(seed=0, m=14, n=29, eps=0.05, lam=20.0, density=0.5, lo=0.5)  # a flushed weight
@example(seed=35, m=3, n=3, eps=0.005, lam=4.0, density=0.7, lo=0.5)   # a rescale
@settings(max_examples=40, deadline=None)
def test_packing_scan_matches_the_reference(seed, m, n, eps, lam, density, lo):
    got = []
    for cls in (PackingState, RefPacking):
        inst = packing_case(seed, m, n, eps, lam, density, lo)
        state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m, record_trace=True)
        outcome = run_phases(state, inst.P)
        got.append((outcome.tag, outcome.vector.tobytes(), snapshot(state)))
    assert got[0] == got[1]


def edge_runs():
    """(state class, matrix, lam, eps, starting weight) of runs that reach the
    kernel's edge cases with no tallies to stop them: deep runs on both signs
    (``diagonal_with_column``), one of them from weights past the rescale
    point, so that it rescales mid-phase; and the packing row (0.5, lam, 4),
    whose first column admits no covering dual, where one enforcement drives
    x_1 below the rescale point (lam = 1,000) or flushes it to zero (2,000)."""
    return {"deep": (StoredRowsState, diagonal_with_column(24, 21.6, 1.3), 21.6, 0.1, 1.0),
            "rescale": (StoredRowsState, diagonal_with_column(24, 21.6, 1.3), 21.6, 0.1, 1e150),
            "pack-deep": (PackingState, diagonal_with_column(16, 19.2, 0.7), 19.2, 0.1, 1.0),
            "pack-rescale": (PackingState, SparseNonnegMatrix.from_dense([[0.5, 1000.0, 4.0]]),
                             1000.0, 0.05, 1.0),
            "flush": (PackingState, SparseNonnegMatrix.from_dense([[0.5, 2000.0, 4.0]]),
                      2000.0, 0.05, 1.0)}


def edge_run(cls, M, lam, eps, weight):
    state = cls(M.n, lam, eps, [0] * M.m, record_trace=True)
    state.x_hat *= weight
    state.total = float(state.x_hat.sum())
    outcome = run_phases(state, M)
    return outcome, state


@pytest.mark.parametrize("case", sorted(edge_runs()))
def test_edge_runs_match_the_reference(case):
    cls, M, lam, eps, weight = edge_runs()[case]
    got = []
    for kind in (cls, RefPacking if cls is PackingState else RefStored):
        outcome, state = edge_run(kind, M, lam, eps, weight)
        got.append((outcome.tag, outcome.vector.tobytes(), snapshot(state)))
    assert got[0] == got[1]


def test_the_examples_reach_their_edge_cases():
    # the rescale and flush examples above reached their edge cases deep in
    # runs that their tallies now stop at a phase start long before T
    for cls, inst, M in ((StoredRowsState, covering_case(7, 1, 20, 0.003, 1.0, 0.05), "C"),
                         (PackingState, packing_case(0, 14, 29, 0.05, 20.0, 0.5, 0.5), "P"),
                         (PackingState, packing_case(35, 3, 3, 0.005, 4.0, 0.7, 0.5), "P")):
        state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m)
        assert run_phases(state, getattr(inst, M)).vector.sum() == pytest.approx(1.0)
        assert 0 < state.t < state.T and state.log_scale == 0.0
    # the edge runs reach theirs
    runs = {case: edge_run(*args)[1] for case, args in edge_runs().items()}
    assert runs["rescale"].log_scale > 0.0 and runs["rescale"].stats.phases > 1
    assert runs["pack-rescale"].log_scale < 0.0
    assert runs["pack-rescale"].stats.min_weight > math.exp(-745.0)
    assert runs["flush"].stats.min_weight == math.exp(-745.0)
    for case in ("deep", "pack-deep"):
        assert runs[case].stats.enforcements > 300


# -- streaming, online and dynamic --------------------------------------------------------

@given(**CASES, full=st.booleans())
@settings(max_examples=40, deadline=None)
def test_stream_scan_matches_the_reference(seed, m, n, eps, lam, density, full):
    got = []
    for cls in (WhackState, RefStreamed):
        inst = covering_case(seed, m, n, eps, lam, density)
        state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m if full else None,
                    record_trace=True)
        got.append((state.scan(inst.C.rows), snapshot(state)))
    assert got[0] == got[1]


@given(**CASES)
@settings(max_examples=40, deadline=None)
def test_online_inserts_match_the_reference(seed, m, n, eps, lam, density):
    got = []
    for cls in (OnlineState, RefOnline):
        inst = covering_case(seed, m, n, eps, lam, density)
        state = cls(inst.n, inst.lam, inst.eps)
        state.record_trace = True
        seen = []
        for i in range(inst.m):
            result = state.insert_row(*inst.C.row(i))
            seen.append((result.maintained is None or result.maintained.tobytes(),
                         result.terminal is None or result.terminal.vector.tobytes()))
            if result.terminal is not None:
                break
        got.append((seen, snapshot(state)))
    assert got[0] == got[1]


@given(**CASES, halve=st.booleans())
@settings(max_examples=30, deadline=None)
def test_dynamic_replays_match_the_reference(seed, m, n, eps, lam, density, halve):
    got = []
    for cls in (DynamicWhackState, RefDynamic):
        inst = covering_case(seed, m, n, eps, lam, density)
        stream = restricting_stream(np.random.default_rng(seed + 1), inst, 200, halve=halve)
        state = cls(inst)
        state.record_trace = True
        if state.scan(inst.C.rows):  # the preprocessing scan, run on either class
            state.terminal = state.budget_outcome()
        seen = [snapshot(state)]
        for line in stream:
            if state.terminal is not None:
                break
            state.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY,
                                            line.row, line.col, line.value))
            seen.append(snapshot(state))
        got.append(seen)
    assert got[0] == got[1]


# -- a visit with a row source --------------------------------------------------------------

def visit_with_source(cls, dense, lam, eps, x_hat, T=None):
    """Visit row 0 of ``dense`` with the matrix rows as its source, on a state
    whose weights are ``x_hat`` (and budget ``T``); the Step, the rows()
    passes the visit started and the state."""
    inst = covering(dense, lam=lam, eps=eps)
    state = cls(inst.n, inst.lam, inst.eps, [0] * inst.m, record_trace=True)
    state.x_hat[:] = x_hat
    state.total = float(state.x_hat.sum())
    state.start_phase()
    if T is not None:
        state.T = T
    passes = []

    def rows():
        passes.append(1)
        return inst.C.rows()
    step = state.visit(0, *inst.C.row(0), rows)
    return step, len(passes), state, inst


def assert_visits_match_the_reference(*args, **kwargs):
    got, want = (visit_with_source(cls, *args, **kwargs) for cls in (StoredRowsState, RefStored))
    assert got[:2] == want[:2] and snapshot(got[2]) == snapshot(want[2])
    return got


def test_visit_without_a_break_reads_no_row_source():
    # dot 4 x 0.47 = 1.88 is below 0.95 W = 1.9; two whacks of 1.05 lift it
    # past W = 2, and the total 2.048 stays below the cap 2 / 0.95
    step, passes, state, _ = assert_visits_match_the_reference(
        [[4.0, 0.0], [0.0, 1.0]], 8.0, 0.1, [0.47, 1.53])
    assert step is None and passes == 0
    assert state.t == 2 and state.stats.phases == 1 and state.stats.enforcements == 1


def test_visit_that_breaks_rescans_its_source_to_a_clean_pass():
    # row 0 needs 0.3 x 1.1^d >= 1, d = 13, and the total 1.245 breaks the
    # phase; the source is then scanned, phase by phase, until a pass
    # enforces nothing, as x = (1/2, 1/2) covers both rows
    step, passes, state, inst = assert_visits_match_the_reference(
        [[3.0, 0.0], [1.0, 3.0]], 3.0, 0.1, [0.1, 0.9])
    assert step is None and passes >= 1 and state.stats.phases == 1 + passes
    assert state.t < state.T
    assert np.all(inst.C.matvec(state.x_hat) >= state.threshold)


def test_visit_that_breaks_stops_its_rescan_at_the_budget():
    # the visit spends 8 of the 9 rounds and breaks; at lambda = 1 the
    # tallies certify there, so no rescan starts
    step, passes, state, _ = assert_visits_match_the_reference(
        [[1.0, 0.0]], 1.0, 0.1, [0.5, 0.5], T=9)
    assert step is Step.BUDGET and passes == 0
    assert state.t == 8 and state.whack_counts == [8] and state.stats.trace == [(0, 8)]
    # the row (2, 0) at lambda = 2 admits no dual: the rescan finds row 0
    # short again under the new anchor and spends the last round on it
    step, passes, state, _ = assert_visits_match_the_reference(
        [[2.0, 0.0]], 2.0, 0.1, [0.25, 0.75], T=9)
    assert step is Step.BUDGET and passes == 1
    assert state.t == state.T == 9 and state.whack_counts == [9]
    assert state.stats.trace == [(0, 8), (0, 1)]


def test_the_streaming_reduction_still_receives_broke(monkeypatch):
    # its guesses visit without a row source and wait for the next physical pass
    seen = []
    visit = WhackState.visit

    def recording(self, i, cols, vals, rows=None):
        step = visit(self, i, cols, vals, rows)
        seen.append((rows, step))
        return step
    monkeypatch.setattr(WhackState, "visit", recording)
    solve_general_stream(random_general(np.random.default_rng(4), 6, 5), 0.1)
    assert {rows for rows, _ in seen} == {None}
    assert Step.BROKE in {step for _, step in seen}
