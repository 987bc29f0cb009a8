"""Multi-pass streaming covering solver over row-arrival streams.

The phase kernel (``whack_static.WhackState.scan``) runs over the
cursor's ``source()`` as it is, one pass per phase, so the passes a run
reports are its state's phases. W is anchored at pass start, each arriving
row is tested against the anchor and enforced in place, and a phase break
aborts the pass, as the static scan rescans from row zero after a phase
break. An item that is not a well-formed (row_index, cols, vals) triple
raises ``StreamExhaustedMidRow``.

State between rows is only {x_hat, W, t} plus the whack tallies in
FULL_DUAL mode; the matrix is never materialized, and no per-row rates or
powers are kept (the state is a plain ``WhackState``, not the stored-rows
one). ``live_words`` measures the words the state holds by walking it, so
tests pin the space bound on what is held rather than on a formula.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .certificates import Outcome
from .whack_static import WhackState


class StreamMode(Enum):
    FULL_DUAL = "full_dual"      # keeps whack tallies; O(m+n) words
    PRIMAL_ONLY = "primal_only"  # returns Null instead of the dual; O(n) words


class StreamExhaustedMidRow(ValueError):
    pass


class StreamCursor:
    """Re-iterable row source: ``source()`` yields (row_index, cols, vals)."""

    def __init__(self, source: Callable[[], Iterable[tuple[int, np.ndarray, np.ndarray]]],
                 m: int, n: int, lam: float, mode: StreamMode = StreamMode.FULL_DUAL):
        self.source = source
        self.m = m
        self.n = n
        self.lam = lam
        self.mode = mode

    @classmethod
    def from_instance(cls, instance, mode: StreamMode = StreamMode.FULL_DUAL) -> "StreamCursor":
        mat = instance.C
        return cls(mat.rows, mat.m, mat.n, instance.lam, mode)


@dataclass
class StreamStats:
    passes: int = 0
    outcome: str = ""
    peak_live_words: int = 0

    def as_dict(self) -> dict:
        return {"passes": self.passes, "outcome": self.outcome,
                "peak_live_words": self.peak_live_words}


def live_words(state: WhackState) -> int:
    """Words of solver state held between rows, measured by walking the
    state's ``__slots__``: an array counts its size, a container its
    entries and an object its fields, recursively and each object once, and
    any other value one word. The row source is the cursor's, so it is not
    counted. Nothing a ``WhackState`` holds shrinks during a run, so the
    count when the run ends is its peak."""
    return _words(state, set())


def _words(value, seen: set[int]) -> int:
    own, parts = 0, ()
    if isinstance(value, np.ndarray):
        own = value.size
    elif isinstance(value, dict):
        parts = [part for item in value.items() for part in item]
    elif isinstance(value, (list, tuple)):
        parts = value
    elif is_dataclass(value):
        parts = [getattr(value, f.name) for f in fields(value)]
    elif hasattr(value, "__slots__"):
        parts = [getattr(value, name) for cls in type(value).__mro__
                 for name in vars(cls).get("__slots__", ())]
    else:
        return 1
    if id(value) in seen:
        return 0
    seen.add(id(value))
    return own + sum(_words(part, seen) for part in parts)


def solve_stream(cursor: StreamCursor, eps: float) -> tuple[Outcome, StreamStats]:
    counts = [0] * cursor.m if cursor.mode is StreamMode.FULL_DUAL else None
    state = WhackState(cursor.n, cursor.lam, eps, counts)

    try:
        budget_spent = state.scan(cursor.source)
    except (TypeError, ValueError) as exc:
        # a well-formed row raises neither: the visit's logs and ceilings are guarded
        raise StreamExhaustedMidRow(f"malformed streamed row: {exc}") from exc
    outcome = state.budget_outcome() if budget_spent else state.primal_outcome()
    stats = StreamStats(passes=state.stats.phases, outcome=outcome.tag.value,
                        peak_live_words=live_words(state))
    return outcome, stats
