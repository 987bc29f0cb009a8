import warnings

import numpy as np
import pytest

from conftest import covering
from pclp.certificates import OutcomeTag
from pclp.generate import random_covering
from pclp.online import OnlineState
from pclp.streaming import StreamCursor, StreamExhaustedMidRow, StreamMode, solve_stream
from pclp.whack_static import solve_fast


def test_unit_instance_one_pass_primal():
    inst = covering([[1.0]], eps=0.1)
    outcome, stats = solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), 0.1)
    assert outcome.tag is OutcomeTag.COVERING_PRIMAL
    assert np.allclose(outcome.vector, [1.0])
    assert stats.passes == 1


def test_primal_only_returns_null_at_budget():
    inst = covering([[0.4]], eps=0.1)
    outcome, _ = solve_stream(StreamCursor.from_instance(inst, StreamMode.PRIMAL_ONLY), 0.1)
    assert outcome.tag is OutcomeTag.NULL
    assert outcome.vector is None


def test_full_dual_returns_dual_at_budget():
    inst = covering([[0.4]], eps=0.1)
    outcome, _ = solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), 0.1)
    assert outcome.tag is OutcomeTag.PACKING_DUAL
    assert np.allclose(outcome.vector, [1.0])


def test_pass_count_equals_fast_phase_count(rng):
    for _ in range(15):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        eps = float(rng.choice([0.1, 0.2]))
        inst = random_covering(rng, m, n, eps=eps, density=0.5)
        outcome_f, stats_f = solve_fast(inst)
        cursor = StreamCursor.from_instance(inst, StreamMode.FULL_DUAL)
        outcome_s, stats_s = solve_stream(cursor, eps)
        _, again = solve_stream(cursor, eps)  # a reused cursor counts the new run's passes only
        assert stats_s.passes == again.passes == stats_f.phases
        assert outcome_s.tag is outcome_f.tag
        if outcome_f.vector is not None:
            assert np.allclose(outcome_s.vector, outcome_f.vector, atol=1e-9)


def test_stream_matches_fast_in_both_regimes(rng):
    # the lazy static scan and the stream make the same decisions on the same
    # floats, and stop at the same phase: small entries drive the run to the
    # dual, and so does a planted full column at lambda = 1, where every y
    # certifies; the last four plant it at lambda = 2, which keeps the primal side
    tags = set()
    for trial in range(16):
        eps = [0.1, 0.2][trial % 2]
        m, n = int(rng.integers(5, 25)), int(rng.integers(5, 25))
        if trial >= 12:
            inst = random_covering(rng, m, n, eps=eps, lam=2.0, density=0.3, hot_column=True)
        elif trial % 4 < 2:
            inst = random_covering(rng, m, n, eps=eps, density=0.3, hot_column=True)
        else:
            inst = random_covering(rng, m, n, eps=eps, density=0.3, lo_frac=0.1, hi_frac=0.3)
        outcome_f, stats_f = solve_fast(inst)
        outcome_s, stats_s = solve_stream(
            StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), eps)
        assert outcome_s.tag is outcome_f.tag
        assert np.array_equal(outcome_s.vector, outcome_f.vector)
        assert stats_s.passes == stats_f.phases
        tags.add(outcome_f.tag)
    assert tags == {OutcomeTag.COVERING_PRIMAL, OutcomeTag.PACKING_DUAL}


def test_big_sparse_instance_pass_cap(rng):
    import math
    from pclp.whack_static import weight_cap

    eps = 0.2
    inst = random_covering(rng, 50, 50, eps=eps, density=0.15, nonempty_rows=False)
    _, stats = solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), eps)
    cap = math.ceil(weight_cap(50, eps) / -math.log(1 - eps / 2)) + 1
    assert stats.passes <= cap


def test_live_words_bounds():
    inst = covering(np.ones((7, 4)).tolist(), eps=0.1)
    _, full = solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), 0.1)
    _, lean = solve_stream(StreamCursor.from_instance(inst, StreamMode.PRIMAL_ONLY), 0.1)
    a, b = 2, 32
    assert full.peak_live_words <= a * (7 + 4) + b
    assert lean.peak_live_words <= a * 4 + b
    assert lean.peak_live_words < full.peak_live_words


def test_malformed_row_raises():
    # the error the scan met is kept as the cause
    for item, cause in [(42, TypeError),                      # not iterable
                        ((0, np.array([0])), ValueError),      # a truncated triple
                        ((0, np.array([0, 1]), np.array([0.5])), ValueError)]:  # lengths differ
        cursor = StreamCursor(lambda: iter([item]), 1, 2, 1.0, StreamMode.FULL_DUAL)
        with pytest.raises(StreamExhaustedMidRow) as info:
            solve_stream(cursor, 0.1)
        assert type(info.value.__cause__) is cause


def test_overflow_instance_rescales_in_every_setting():
    # at eps = 0.003 the weights pass 1e300 long before the budget runs out;
    # the stream and online scans must rescale their shared exponent as the
    # static one does
    inst = covering([[0.9] + [0.0] * 19], eps=0.003)
    fast, fast_stats = solve_fast(inst)
    assert fast.tag is OutcomeTag.PACKING_DUAL
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        full, stats = solve_stream(StreamCursor.from_instance(inst, StreamMode.FULL_DUAL), 0.003)
        lean, _ = solve_stream(StreamCursor.from_instance(inst, StreamMode.PRIMAL_ONLY), 0.003)
        online = OnlineState(inst.n, inst.lam, inst.eps).insert_row(*inst.C.row(0))
    assert full.tag is OutcomeTag.PACKING_DUAL
    assert np.array_equal(full.vector, fast.vector)
    assert stats.passes == fast_stats.phases
    assert lean.tag is OutcomeTag.NULL
    assert online.terminal is not None and online.terminal.tag is OutcomeTag.PACKING_DUAL


def test_unsorted_columns_accepted():
    inst = covering([[0.5, 0.7, 0.6]], eps=0.1)

    def shuffled():
        cols, vals = inst.C.row(0)
        order = [2, 0, 1]
        yield 0, cols[order], vals[order]

    cursor = StreamCursor(shuffled, 1, 3, 1.0, StreamMode.FULL_DUAL)
    outcome, _ = solve_stream(cursor, 0.1)
    assert outcome.tag in (OutcomeTag.COVERING_PRIMAL, OutcomeTag.PACKING_DUAL)


def test_instance_source_sees_a_row_set_between_passes():
    inst = covering([[0.5, 0.7], [0.6, 0.0]], eps=0.1)
    cursor = StreamCursor.from_instance(inst)
    first = [(i, cols.tolist(), vals.tolist()) for i, cols, vals in cursor.source()]
    inst.C.set(1, 1, 0.3)
    second = [(i, cols.tolist(), vals.tolist()) for i, cols, vals in cursor.source()]
    assert first == [(0, [0, 1], [0.5, 0.7]), (1, [0], [0.6])]
    assert second == [(0, [0, 1], [0.5, 0.7]), (1, [0, 1], [0.6, 0.3])]


def test_rows_changed_in_place_between_passes_are_read_afresh(rng):
    # a live source may rewrite a row's array between passes; the scan keeps
    # no per-row state for streamed rows, so it solves as fresh arrays do
    for _ in range(10):
        inst = random_covering(rng, 8, 6, eps=0.1, density=0.6)
        rows = list(inst.C.rows())

        def drifting(copy):
            buffers = [vals.copy() for _, _, vals in rows]
            passes = [0]

            def source():
                passes[0] += 1
                scale = 1.0 if passes[0] % 2 else 0.5
                for (i, cols, vals), buf in zip(rows, buffers):
                    np.multiply(vals, scale, out=buf)
                    yield i, cols, (buf.copy() if copy else buf)
            return StreamCursor(source, inst.m, inst.n, inst.lam)

        in_place, in_place_stats = solve_stream(drifting(copy=False), inst.eps)
        fresh, fresh_stats = solve_stream(drifting(copy=True), inst.eps)
        assert in_place.tag is fresh.tag
        assert in_place.vector.tobytes() == fresh.vector.tobytes()
        assert in_place_stats.passes == fresh_stats.passes
