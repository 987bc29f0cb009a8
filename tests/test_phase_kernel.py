"""The phase kernel against the per-row chain it replaced.

``ReferenceChain`` keeps that chain as the reference: ``scan`` restarts
once per phase and hands each row to ``visit``, which tests it and passes a
violated row to ``_enforce``; that reads the row's rates through
``_row_rates`` (a stored row's from the state's cache), takes the step
through ``_step`` and the total through ``_settle`` at every enforcement,
and keeps every count on the state as it goes. Mixed into each setting's
state, it must leave every output bit and count where the kernel leaves
them: on static covering (a rescale mid-phase included), packing (a flushed
weight included), online inserts, streaming in both modes and dynamic
replays.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclp.generate import random_covering, random_packing, restricting_stream
from pclp.online import OnlineState
from pclp.packing import PackingState
from pclp.sparse import UpdateEvent, UpdateKind
from pclp.whack_dynamic import DynamicWhackState
from pclp.whack_static import Step, StoredRowsState, WhackState, run_phases


class ReferenceChain:
    """The per-row chain: one Python call per layer and the counts kept on
    the state at every enforcement."""

    def scan(self, rows):
        while True:
            self.start_phase()
            for i, cols, vals in rows():
                step = self.visit(i, cols, vals)
                if step is not None:
                    if step is Step.BUDGET:
                        return True
                    break
            else:
                return False

    def visit(self, i, cols, vals):
        xh = self.x_hat[cols]
        dot = float(vals.dot(xh))
        violated = dot < self.threshold if self._RATE_SIGN > 0 else dot > self.threshold
        if not violated:
            return None
        return self._enforce(i, cols, vals, xh, dot)

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
    out = {"x_hat": state.x_hat.tobytes(), "log_scale": state.log_scale.hex(),
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


def test_the_examples_reach_their_edge_cases():
    # the rescale and flush examples above do what they are there for
    inst = covering_case(7, 1, 20, 0.003, 1.0, 0.05)
    state = StoredRowsState(inst.n, inst.lam, inst.eps, [0] * inst.m)
    run_phases(state, inst.C)
    assert state.log_scale > 0.0 and state.stats.phases > 1
    inst = packing_case(0, 14, 29, 0.05, 20.0, 0.5, 0.5)
    state = PackingState(inst.n, inst.lam, inst.eps, [0] * inst.m)
    run_phases(state, inst.P)
    assert state.stats.min_weight == math.exp(-745.0)
    inst = packing_case(35, 3, 3, 0.005, 4.0, 0.7, 0.5)
    state = PackingState(inst.n, inst.lam, inst.eps, [0] * inst.m)
    run_phases(state, inst.P)
    assert state.log_scale < 0.0


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
        state._run_to_certificate()
        seen = [snapshot(state)]
        for line in stream:
            if state.terminal is not None:
                break
            state.handle_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY,
                                            line.row, line.col, line.value))
            seen.append(snapshot(state))
        got.append(seen)
    assert got[0] == got[1]
