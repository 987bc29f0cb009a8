"""Covering certificates maintained under restricting entry updates.

Preprocessing scans the matrix rows in ascending order, as the static
solver does (``whack_static.run_phases``). Afterwards each update lowers
one entry C_ij, so only constraint i can newly fail: the update is
applied, and row i alone is tested (``WhackState.visit``), its dot
computed fresh from x_hat and compared against (1 - eps/2) W; only a
violated row enters the phase kernel, which enforces it in place. That
keeps the maintained vector x_hat/W inside the full (1-eps) covering
guarantee after every update. The visit takes the matrix rows as its row
source: an enforcement that pushes the weight total past the phase cap
makes the kernel anchor the next phase and rebuild with the same matrix
scan, in the same call. The kernel also counts each row's enforcements
and the coordinates they touch, as plain ints.

Once a dual is returned it is frozen: restricting updates only shrink
C^T y, so the certificate stands forever. The same holds for the stop
rule's column sums z: when an update's phase break stops the run, z was
summed over entries that can only have fallen since, so it bounds C^T y
from above. An update is still checked
against the stored matrix, frozen or not: one outside its shape, or one
that does not lower the stored entry, raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Outcome, OutcomeTag
from .instances import NormalizedCoveringInstance
from .sparse import UpdateEvent
from .whack_static import Step, StoredRowsState, WhackStats, run_phases


class UpdateAfterTerminal(RuntimeError):
    """The frozen dual certificate still stands; no state was mutated."""


@dataclass
class DynamicStats(WhackStats):
    """The kernel's counts over preprocessing and every update since. The
    inherited ``outcome`` and ``max_weight_ratio`` describe preprocessing
    only: a rebuild after an update leaves them, and ``as_dict`` omits them."""

    updates: int = 0
    column_touches: int = 0  # coordinates of x_hat changed by enforcements

    def as_dict(self) -> dict:
        return {"updates": self.updates, "enforcements": self.enforcements,
                "phases": self.phases, "column_touches": self.column_touches}


class DynamicWhackState(StoredRowsState):
    """Whack state kept certified under updates, with per-row enforcement tallies.

    The kernel counts each row's enforcements in ``_enforced``, a list of
    ints, and adds the enforced rows' support sizes to the stats'
    ``column_touches``; ``enforce_log`` reads the tallies as an array."""

    __slots__ = ("instance", "terminal", "_enforced")

    def __init__(self, instance: NormalizedCoveringInstance):
        super().__init__(instance.n, instance.lam, instance.eps, [0] * instance.m)
        self.instance = instance
        self.stats = DynamicStats()
        self.terminal: Outcome | None = None
        self._enforced = [0] * instance.m

    @property
    def enforce_log(self) -> np.ndarray:
        """Enforcements per row, as an int64 array built on each read."""
        return np.array(self._enforced, dtype=np.int64)

    def current_outcome(self) -> Outcome:
        if self.terminal is not None:
            return self.terminal
        return Outcome.covering_primal(self.maintained_vector())

    # -- public operations -----------------------------------------------------

    def handle_update(self, event: UpdateEvent) -> Outcome:
        """Apply a restricting update and keep the certificate. An update the
        matrix cannot take raises NonMonotoneUpdate / IndexOutOfRange, frozen
        or not; a legal one on a frozen dual raises UpdateAfterTerminal."""
        C = self.instance.C
        C.check_update(event)
        if self.terminal is not None:
            raise UpdateAfterTerminal("dual certificate is frozen")
        C.set(event.row, event.col, float(event.new_value))
        self.stats.updates += 1
        cols, vals = C.row(event.row)
        if self.visit(event.row, cols, vals, C.rows) is Step.BUDGET:
            self.terminal = self.budget_outcome()
        return self.current_outcome()


def preprocess(instance: NormalizedCoveringInstance) -> tuple[DynamicWhackState, Outcome]:
    """Static solve; Case I freezes the dual, Case II starts maintenance."""
    state = DynamicWhackState(instance)
    outcome = run_phases(state, instance.C)
    if outcome.tag is OutcomeTag.PACKING_DUAL:
        state.terminal = outcome
    return state, state.current_outcome()


def enforcement_budget(instance: NormalizedCoveringInstance) -> float:
    """Audit ceiling for per-row enforcements: 16 (ln n / eps^2) log2 T."""
    n_eff = max(instance.n, 2)
    T = max(2, math.ceil(instance.lam * math.log(n_eff) / instance.eps ** 2))
    return 16.0 * (math.log(n_eff) / instance.eps ** 2) * math.log2(T)
