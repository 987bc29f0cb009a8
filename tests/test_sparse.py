import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclp.sparse import (
    IndexOutOfRange,
    NonMonotoneUpdate,
    SparseError,
    SparseNonnegMatrix,
    UpdateEvent,
    UpdateKind,
)


def test_zero_entries_absent_from_both_indexes():
    m = SparseNonnegMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    assert m.nnz == 2
    assert m.get(0, 1) == 0.0
    assert 1 not in m.row_map(0)
    assert 0 not in m.col_map(1)


def test_set_to_zero_removes_entry():
    m = SparseNonnegMatrix.from_dense([[1.0]])
    m.set(0, 0, 0.0)
    assert m.nnz == 0
    assert m.row(0)[0].size == 0
    assert m.col(0)[0].size == 0


def test_rows_yields_the_arrays_row_returns():
    m = SparseNonnegMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.5, 0.25, 0.0]])
    for _ in range(2):  # the first pass builds the list, the second reads it
        seen = list(m.rows())
        assert [i for i, _, _ in seen] == [0, 1, 2]
        for i, cols, vals in seen:
            assert cols is m.row(i)[0] and vals is m.row(i)[1]


def test_rows_after_set_renews_only_the_set_row():
    m = SparseNonnegMatrix.from_dense([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    before = list(m.rows())
    m.set(1, 0, 2.5)
    after = list(m.rows())
    for (i, cols, vals), (_, cols2, vals2) in zip(before, after):
        if i == 1:
            assert vals2 is not vals and vals2.tolist() == [2.5, 4.0]
        else:
            assert cols2 is cols and vals2 is vals


def test_copy_does_not_share_the_row_list():
    m = SparseNonnegMatrix.from_dense([[1.0, 2.0], [3.0, 0.0]])
    list(m.rows())
    dup = m.copy()
    dup.set(0, 1, 0.5)
    assert [v.tolist() for _, _, v in m.rows()] == [[1.0, 2.0], [3.0]]
    assert [v.tolist() for _, _, v in dup.rows()] == [[1.0, 0.5], [3.0]]
    m.set(1, 0, 1.5)
    assert [v.tolist() for _, _, v in dup.rows()] == [[1.0, 0.5], [3.0]]
    assert all(a is not b for (_, _, a), (_, _, b) in zip(m.rows(), dup.rows()))


def test_restrict_update_applies():
    m = SparseNonnegMatrix.from_dense([[1.0]])
    old = m.apply_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, 0, 0, 0.5))
    assert old == 1.0
    assert m.get(0, 0) == 0.5


def test_restrict_update_rejects_increase():
    m = SparseNonnegMatrix.from_dense([[0.5]])
    with pytest.raises(NonMonotoneUpdate):
        m.apply_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, 0, 0, 0.9))


def test_relax_insertion_lands_in_both_indexes():
    m = SparseNonnegMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
    m.set(0, 1, 0.3)
    assert m.get(0, 1) == 0.3
    assert 1 in m.row_map(0)
    assert 0 in m.col_map(1)


def test_index_out_of_range():
    m = SparseNonnegMatrix(2, 2)
    with pytest.raises(IndexOutOfRange):
        m.apply_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, 5, 0, 1.0))


def test_from_entries_keeps_the_order_set_gives():
    # a later value for (0, 2) overwrites in place; a zero removes (0, 1), and
    # its next value goes to the end of the row
    entries = [(0, 2, .5), (0, 0, .25), (0, 2, .75), (0, 1, .5), (0, 1, 0.0), (0, 1, .125)]
    mat = SparseNonnegMatrix.from_entries(1, 3, entries)
    cols, vals = mat.row(0)
    assert cols.tolist() == [2, 0, 1]
    assert vals.tolist() == [.75, .25, .125]
    assert mat.values() == [.75, .25, .125]


@pytest.mark.parametrize("entry, error", [((2, 0, 1.0), IndexOutOfRange),
                                          ((0, -1, 1.0), IndexOutOfRange),
                                          ((1, 1, -0.5), SparseError)])
def test_from_entries_raises_what_set_raises(entry, error):
    with pytest.raises(error) as built:
        SparseNonnegMatrix.from_entries(2, 2, [(0, 0, 1.0), entry])
    with pytest.raises(error) as set_one:
        SparseNonnegMatrix(2, 2).set(*entry)
    assert str(built.value) == str(set_one.value)


def test_min_size_enforced():
    with pytest.raises(ValueError):
        SparseNonnegMatrix(0, 3)


@st.composite
def small_matrix(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                  st.floats(0.01, 10.0, allow_nan=False)),
        max_size=18))
    mat = SparseNonnegMatrix(m, n)
    for i, j, v in entries:
        mat.set(i, j, v)
    return mat


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_matches_dense_reference_multiply(mat):
    x = np.linspace(0.1, 1.7, mat.n)
    dense = mat.to_dense()
    assert np.allclose(mat.matvec(x), dense @ x, atol=1e-12)
    y = np.linspace(0.2, 0.9, mat.m)
    assert np.allclose(mat.rmatvec(y), dense.T @ y, atol=1e-12)


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_update_keeps_indexes_identical(mat):
    # restrict every entry by half, then compare both index views entry-by-entry
    for i, j, v in list(mat.entries()):
        mat.apply_update(UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, i, j, v / 2))
    row_view = {(i, j): v for i, rm in enumerate(mat._rows) for j, v in rm.items()}
    col_view = {(i, j): v for j, cm in enumerate(mat._cols) for i, v in cm.items()}
    assert row_view == col_view


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_from_entries_matches_a_set_replay(m, n, data):
    # repeated indexes and zeros included, so that overwrites, removals and
    # re-insertions all happen; every row's and column's arrays agree in order
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                  st.sampled_from([0.0, 0.5, 1.0, 2.5, float("inf"), float("nan")])),
        max_size=20))
    replay = SparseNonnegMatrix(m, n)
    for i, j, v in entries:
        replay.set(i, j, v)
    built = SparseNonnegMatrix.from_entries(m, n, entries)
    for i in range(m):
        assert [a.tobytes() for a in built.row(i)] == [a.tobytes() for a in replay.row(i)]
    for j in range(n):
        assert [a.tobytes() for a in built.col(j)] == [a.tobytes() for a in replay.col(j)]
