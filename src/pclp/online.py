"""Online row-arrival covering solver with recourse counted per phase.

The number of rows is unknown upfront: the round budget T depends only on
n, lambda and eps. Each arriving row is visited against the phase anchor
W (``whack_static.WhackState.visit``); opening a new phase raises W, which
is the only event that ever lowers a maintained coordinate of x_hat/W, so
recourse is exactly n per phase transition. When a visit breaks the phase,
``whack_static.scan`` runs over the rows seen so far, which keeps all of
them (1 - eps/2)-satisfied under the current anchor.

``insert_row`` checks and copies each row; ``append_row`` is the same
insert without them, for the general online reduction
(``reductions.GeneralOnlineSolver``), which checks each constraint once
for all its guesses and hands every guess the one column array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Outcome
from .whack_static import Step, StoredRowsState, scan, weight_cap


class RowAfterTermination(RuntimeError):
    pass


@dataclass
class InsertResult:
    maintained: np.ndarray | None  # x_hat / W after the insert, or None
    terminal: Outcome | None = None


def check_columns(cols: np.ndarray, n: int) -> None:
    """Raise ValueError unless every index in ``cols`` is in [0, n) and none repeats."""
    if len(cols) and (cols.item(cols.argmin()) < 0 or cols.item(cols.argmax()) >= n):
        raise ValueError("column index out of range")
    if len(set(cols.tolist())) != len(cols):
        raise ValueError("repeated column index")


class OnlineState(StoredRowsState):
    """Covering scan state over the rows seen so far; the first anchor is
    W = n, and every phase after it is a transition."""

    __slots__ = ("rows", "terminal")

    def __init__(self, n: int, lam: float, eps: float):
        super().__init__(n, lam, eps, whack_counts=[])
        self.rows: list[tuple[int, np.ndarray, np.ndarray]] = []  # (i, cols, vals)
        self.terminal: Outcome | None = None

    @property
    def phase_transitions(self) -> int:
        return self.stats.phases

    @property
    def recourse(self) -> int:
        return self.n * self.stats.phases

    def insert_row(self, cols, vals) -> InsertResult:
        """Check row (cols, vals) and append it: entries in [0, lambda],
        columns in range and distinct, else ValueError, with no state changed."""
        if self.terminal is not None:
            raise RowAfterTermination("dual already returned")
        # copies: a stored row, and the rates kept for it, must not change
        # when the caller reuses its buffers
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)
        # the extremes by argmin/argmax, which cost the same at any row length;
        # an empty row has none and passes, and a NaN is the extreme both
        # return, which fails the comparison
        if len(vals) and not (vals.item(vals.argmin()) >= 0.0
                              and vals.item(vals.argmax()) <= self.lam):
            raise ValueError("row entries must lie in [0, lambda]")
        check_columns(cols, self.n)
        return self.append_row(cols, vals)

    def append_row(self, cols: np.ndarray, vals: np.ndarray) -> InsertResult:
        """``insert_row`` without its checks and copies, for a caller that
        has checked the row as it does, on a state that has not returned its
        dual, and hands over arrays that nobody changes afterwards."""
        i = len(self.rows)
        self.rows.append((i, cols, vals))
        self.whack_counts.append(0)
        step = self.visit(i, cols, vals)
        if step is Step.BROKE:
            # a new anchor: every row seen so far is scanned against it
            step = Step.BUDGET if scan(self, self.rows.__iter__) else None
        if step is Step.BUDGET:
            self.terminal = self.budget_outcome()
            return InsertResult(None, self.terminal)
        return InsertResult(self.maintained_vector())

    def recourse_bound(self) -> int:
        """n * ceil(log_{(1-eps/2)^-1} of the weight cap), the audit ceiling."""
        phases = math.ceil(weight_cap(self.n, self.eps)
                           / -math.log(1.0 - self.eps / 2.0))
        return self.n * phases
