"""Dual-indexed nonnegative sparse matrix with monotone entry mutation.

The matrix keeps both a row-major and a column-major view of the same
entry set so that solvers can walk a row's support and then propagate
the effect of a weight change through the touched columns. Zero-valued
entries are never stored; setting an entry to zero removes it from both
views.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class UpdateKind(Enum):
    RESTRICT_COVERING_ENTRY = "restrict_covering_entry"  # the new value is below the stored one


@dataclass(frozen=True)
class UpdateEvent:
    """A single monotone update to a matrix entry."""

    kind: UpdateKind
    row: int | None
    col: int | None
    new_value: float


class SparseError(ValueError):
    pass


class NonMonotoneUpdate(SparseError):
    pass


class IndexOutOfRange(SparseError):
    pass


class SparseNonnegMatrix:
    """Sparse m-by-n matrix over nonnegative reals, indexed both ways.

    ``from_entries`` builds a matrix from (i, j, v) triples in one loop,
    with the result and the errors of ``set`` applied to each triple in
    turn; ``from_dense`` goes through it."""

    __slots__ = ("m", "n", "_rows", "_cols", "_row_cache", "_col_cache", "_row_list")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise SparseError(f"matrix must be at least 1x1, got {m}x{n}")
        self.m = m
        self.n = n
        self._rows: list[dict[int, float]] = [dict() for _ in range(m)]
        self._cols: list[dict[int, float]] = [dict() for _ in range(n)]
        self._row_cache: list[tuple[np.ndarray, np.ndarray] | None] = [None] * m
        self._col_cache: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n
        # (i, cols, vals) for every row, built from row(i); dropped by set
        self._row_list: list[tuple[int, np.ndarray, np.ndarray]] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_entries(cls, m: int, n: int,
                     entries: Iterable[tuple[int, int, float]]) -> "SparseNonnegMatrix":
        """The m-by-n matrix that ``set(i, j, v)`` on each triple in turn
        builds from an empty one, raising what that ``set`` raises: a later
        triple for (i, j) overwrites the value in place, keeping its position
        in the row and column order, and a zero removes the entry, so a
        later non-zero value puts it at the end again."""
        mat = cls(m, n)
        rows, cols = mat._rows, mat._cols
        for i, j, v in entries:
            if not (0 <= i < m and 0 <= j < n):
                raise IndexOutOfRange(f"({i},{j}) outside {m}x{n}")
            if not v <= 0.0:  # positive or NaN: stored, as set stores it
                rows[i][j] = v
                cols[j][i] = v
            elif v == 0.0:
                rows[i].pop(j, None)
                cols[j].pop(i, None)
            else:
                raise SparseError(f"negative entry ({i},{j})={v}")
        return mat

    @classmethod
    def from_dense(cls, dense) -> "SparseNonnegMatrix":
        arr = np.asarray(dense, dtype=float)
        if arr.ndim != 2:
            raise SparseError("dense input must be 2-dimensional")
        i, j = np.nonzero(arr)
        return cls.from_entries(arr.shape[0], arr.shape[1],
                                zip(i.tolist(), j.tolist(), arr[i, j].tolist()))

    def copy(self) -> "SparseNonnegMatrix":
        out = SparseNonnegMatrix(self.m, self.n)
        for i, rowmap in enumerate(self._rows):
            out._rows[i] = dict(rowmap)
        for j, colmap in enumerate(self._cols):
            out._cols[j] = dict(colmap)
        return out

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        self._check_index(i, j)
        return self._rows[i].get(j, 0.0)

    def set(self, i: int, j: int, value: float) -> None:
        """Unchecked write; use apply_update for monotone event semantics."""
        self._check_index(i, j)
        if value < 0.0:
            raise SparseError(f"negative entry ({i},{j})={value}")
        if value == 0.0:
            self._rows[i].pop(j, None)
            self._cols[j].pop(i, None)
        else:
            self._rows[i][j] = value
            self._cols[j][i] = value
        self._row_cache[i] = None
        self._col_cache[j] = None
        self._row_list = None

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (column indexes, values) of row i as parallel arrays."""
        cached = self._row_cache[i]
        if cached is None:
            items = self._rows[i]
            cached = (
                np.fromiter(items.keys(), dtype=np.int64, count=len(items)),
                np.fromiter(items.values(), dtype=np.float64, count=len(items)),
            )
            self._row_cache[i] = cached
        return cached

    def rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Iterate (i, column indexes, values) over every row in ascending
        order. The triples are kept in a list until the next ``set``, and
        each row's arrays are the ones ``row(i)`` returns, so a scan pays no
        generator resume or ``row`` call per row and a row's arrays change
        only when its entries do. A ``set`` during a pass shows from the
        next ``rows()`` call on."""
        listed = self._row_list
        if listed is None:
            listed = self._row_list = [(i, *self.row(i)) for i in range(self.m)]
        return iter(listed)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (row indexes, values) of column j as parallel arrays."""
        cached = self._col_cache[j]
        if cached is None:
            items = self._cols[j]
            cached = (
                np.fromiter(items.keys(), dtype=np.int64, count=len(items)),
                np.fromiter(items.values(), dtype=np.float64, count=len(items)),
            )
            self._col_cache[j] = cached
        return cached

    def row_map(self, i: int) -> dict[int, float]:
        return self._rows[i]

    def col_map(self, j: int) -> dict[int, float]:
        return self._cols[j]

    def entries(self) -> Iterator[tuple[int, int, float]]:
        for i, rowmap in enumerate(self._rows):
            for j, v in rowmap.items():
                yield (i, j, v)

    def values(self) -> list[float]:
        """Every stored value, in the order of ``entries()``."""
        return list(chain.from_iterable(map(dict.values, self._rows)))

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        for i, j, v in self.entries():
            out[i, j] = v
        return out

    # -- products ----------------------------------------------------------

    def dot_row(self, i: int, x: np.ndarray) -> float:
        cols, vals = self.row(i)
        if len(cols) == 0:
            return 0.0
        return float(vals.dot(x[cols]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Row-major (C x). x has length n."""
        out = np.zeros(self.m)
        for i in range(self.m):
            out[i] = self.dot_row(i, x)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product (C^T y). y has length m."""
        out = np.zeros(self.n)
        for j in range(self.n):
            rows, vals = self.col(j)
            if len(rows):
                out[j] = float(vals.dot(y[rows]))
        return out

    # -- mutation ----------------------------------------------------------

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexOutOfRange(f"({i},{j}) outside {self.m}x{self.n}")

    def check_update(self, event: UpdateEvent) -> float:
        """Raise what ``apply_update`` raises on the event, changing nothing;
        returns the stored value it would replace."""
        i, j = event.row, event.col
        if i is None or j is None:
            raise SparseError("entry update needs both row and col")
        self._check_index(i, j)
        old = self._rows[i].get(j, 0.0)
        new = float(event.new_value)
        if new < 0.0:
            raise SparseError(f"negative value {new}")
        if not new < old:
            raise NonMonotoneUpdate(
                f"{event.kind.value} at ({i},{j}): {new} is not below stored {old}")
        return old

    def apply_update(self, event: UpdateEvent) -> float:
        """Apply a restricting entry update; returns the previous value."""
        old = self.check_update(event)
        self.set(event.row, event.col, float(event.new_value))
        return old
