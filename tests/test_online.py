import numpy as np
import pytest

from pclp.certificates import OutcomeTag
from pclp.online import OnlineState, RowAfterTermination


def test_fresh_state_has_zero_recourse():
    state = OnlineState(3, 1.0, 0.1)
    assert state.recourse == 0


def test_first_enforcement_step_is_eight():
    # n=2: row (1, 0) against x_hat = (1, 1), W = 2 needs 1.1^d >= 2 -> d = 8
    state = OnlineState(2, 1.0, 0.1)
    state.insert_row([0], [1.0])
    assert state.whack_counts[0] >= 8  # first enforce contributes exactly 8
    # every phase transition charges n
    assert state.recourse == 2 * state.phase_transitions


def test_covered_row_is_free():
    state = OnlineState(2, 1.0, 0.1)
    state.insert_row([0], [1.0])
    t_before = state.t
    recourse_before = state.recourse
    result = state.insert_row([0, 1], [1.0, 1.0])
    assert state.t == t_before
    assert state.recourse == recourse_before
    assert result.maintained is not None


def test_rows_stay_covered_and_sum_bounded(rng):
    n, lam, eps = 5, 1.0, 0.15
    state = OnlineState(n, lam, eps)
    for _ in range(25):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        vals = rng.uniform(0.3, 1.0, size=len(cols))
        result = state.insert_row(cols, vals)
        if result.terminal is not None:
            break
        x = result.maintained
        assert float(x.sum()) <= 1.0 / (1 - eps / 2) + 1e-9
        for _, cols_r, vals_r in state.rows:
            assert float(vals_r @ x[cols_r]) >= 1 - eps - 1e-9
    assert state.recourse == n * state.phase_transitions
    assert state.recourse <= state.recourse_bound()


def test_adversarial_shrinking_support_terminates_with_valid_dual():
    n, eps = 4, 0.1
    state = OnlineState(n, 1.0, eps)
    terminal = None
    row = 0
    while terminal is None and row < 10 ** 4:
        k = row % n
        cols = np.arange(k, n)
        vals = np.full(len(cols), 1.0 / len(cols))
        result = state.insert_row(cols, vals)
        terminal = result.terminal
        row += 1
    assert terminal is not None
    y = terminal.vector
    assert np.isclose(y.sum(), 1.0)
    # C^T y <= (1 + Theta(eps)) over the seen rows
    ct = np.zeros(n)
    for (_, cols_r, vals_r), yi in zip(state.rows, y):
        ct[cols_r] += vals_r * yi
    assert np.all(ct <= 1 + 4 * eps + 1e-9)
    with pytest.raises(RowAfterTermination):
        state.insert_row([0], [1.0])


def test_entry_validation():
    state = OnlineState(2, 1.0, 0.1)
    with pytest.raises(ValueError):
        state.insert_row([0], [2.0])  # above lambda
    with pytest.raises(ValueError):
        state.insert_row([0], [np.nan])  # neither in nor out of range by comparison
    with pytest.raises(ValueError):
        state.insert_row([5], [0.5])  # column out of range
    with pytest.raises(ValueError, match="lie in"):
        state.insert_row([0, 1], [0.5, -0.25])  # negative entry
    with pytest.raises(ValueError, match="lie in"):
        state.insert_row([0], [np.inf])
    with pytest.raises(ValueError, match="out of range"):
        state.insert_row([-1, 1], [0.5, 0.5])  # negative column
    with pytest.raises(ValueError, match="lie in"):
        state.insert_row([0, 1], [0.5, np.nan])  # a NaN next to valid entries
    with pytest.raises(ValueError, match="lie in"):
        state.insert_row([0, 1], [np.nan, 0.5])
    assert state.rows == [] and state.t == 0
    state.insert_row([], [])  # an empty row is accepted
    assert len(state.rows) == 1


def test_repeated_columns_rejected():
    # a repeated index would power the coordinate by one copy's factor per
    # whack instead of the merged entry's, spending the budget twice as fast
    state = OnlineState(2, 1.0, 0.1)
    with pytest.raises(ValueError):
        state.insert_row([0, 0], [0.5, 0.5])
    assert state.rows == [] and state.t == 0
    state.insert_row([1, 0], [0.5, 0.5])  # distinct columns in any order pass


def test_reused_buffers_leave_stored_rows_alone():
    # a caller that refills one buffer per insert must not rewrite the rows
    # already stored, nor the growth rates the scan keeps for them
    rows = [([0, 1], [1.0, 0.5]), ([0, 1], [1.0, 0.25]), ([1, 0], [0.75, 1.0])]
    cols_buf, vals_buf = np.zeros(2, dtype=np.int64), np.zeros(2)
    reused, fresh = OnlineState(2, 1.0, 0.1), OnlineState(2, 1.0, 0.1)
    for cols, vals in rows:
        cols_buf[:], vals_buf[:] = cols, vals
        got = reused.insert_row(cols_buf, vals_buf)
        want = fresh.insert_row(list(cols), list(vals))
        assert np.array_equal(got.maintained, want.maintained)
    assert [v.tolist() for _, _, v in reused.rows] == [vals for _, vals in rows]
    assert reused.whack_counts == fresh.whack_counts and reused.t == fresh.t


def test_rescan_visits_the_stored_arrays():
    # a phase transition hands the scan the stored rows themselves, so the
    # rates kept for a row's vals array are found again by identity
    visited = []

    class Recording(list):
        # the row source a rescan iterates: every row it hands the kernel
        def __iter__(self):
            for row in super().__iter__():
                visited.append(row)
                yield row

    state = OnlineState(3, 1.0, 0.1)
    state.rows = Recording()
    for cols, vals in [([0, 1, 2], [1.0, 1.0, 1.0]), ([0, 1], [1.0, 0.5])]:
        assert state.insert_row(cols, vals).terminal is None
    assert state.phase_transitions > 1 and len(visited) > len(state.rows)
    for i, cols, vals in visited:
        assert state.rows[i][0] == i
        assert cols is state.rows[i][1] and vals is state.rows[i][2]
    # and the rates the kernel keeps are keyed to those arrays
    assert state._rates and all(rated is state.rows[i][2]
                                for i, (rated, _) in state._rates.items())


def _online_state_snapshot(state):
    return ([(i, c.tobytes(), v.tobytes()) for i, c, v in state.rows], list(state.whack_counts),
            state.x_hat.tobytes(), state.t, state.stats.phases)


@pytest.mark.parametrize("cols, vals, match", [
    ([0, 1], [0.5], "of one length"),           # numpy used to raise from the visit
    ([0.7, 2.9], [0.5, 0.5], "integers"),       # used to be truncated to columns [0, 2]
    ([[0, 1]], [[0.5, 0.5]], "1-D"),
], ids=["short-vals", "float-cols", "2-d"])
def test_malformed_row_changes_no_state(cols, vals, match):
    state = OnlineState(3, 1.0, 0.1)
    state.insert_row([0, 1, 2], [1.0, 1.0, 1.0])
    before = _online_state_snapshot(state)
    with pytest.raises(ValueError, match=match):
        state.insert_row(cols, vals)
    assert _online_state_snapshot(state) == before
    # the state kept no part of the row, so the next insert's rescan runs clean
    for _ in range(3):
        assert state.insert_row([0, 1], [1.0, 0.5]).terminal is None
    assert state.stats.phases > before[-1]
