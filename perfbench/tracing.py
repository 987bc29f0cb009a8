"""Spans and counts recorded from the benchmark's own files.

``Tracer.install`` replaces public pclp entry points with wrappers that
record a span per call (name, start, end, parent span, operation id), and
replaces the per-call sparse kernels with wrappers that only count, since a
span per row dot would cost more than the dot. It also makes the row source
of every cursor ``StreamCursor.from_instance`` builds count the rows it
yields (``streaming.rows_read``). ``uninstall`` puts every original back.
Without ``--trace 1`` no tracer exists; in a traced run the wrappers are in
place only for set-ups and every second round. Spans stay in memory until
``write``.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import pclp.certificates
import pclp.formats
import pclp.instances
import pclp.packing
import pclp.reductions
import pclp.streaming
import pclp.whack_dynamic
import pclp.whack_static
from pclp.reductions import NormalizedView
from pclp.sparse import SparseNonnegMatrix
from pclp.streaming import StreamCursor
from pclp.whack_dynamic import DynamicWhackState

#: (owner, attribute, span name): one span per call
SPANNED = [
    (pclp.formats, "parse_instance", "formats.parse"),
    (pclp.instances, "validate", "instances.validate"),
    (pclp.whack_static, "solve_fast", "whack_static.solve"),
    (pclp.streaming, "solve_stream", "streaming.solve"),
    (pclp.packing, "solve_packing_fast", "packing.solve"),
    (pclp.certificates, "check_certificate", "certificates.check"),
    (pclp.whack_dynamic, "preprocess", "whack_dynamic.preprocess"),
    (pclp.reductions, "solve_general_static", "reductions.static"),
    (pclp.reductions, "solve_general_stream", "reductions.stream"),
    # reductions imported solve_fast by name: its probes call this binding
    (pclp.reductions, "solve_fast", "reductions.probe"),
    (NormalizedView, "instance_for", "reductions.instance_for"),
]

#: (owner, attribute, count name): one count per call, no span
COUNTED = [
    (SparseNonnegMatrix, "dot_row", "sparse.dot_row_calls"),
    (SparseNonnegMatrix, "col", "sparse.col_calls"),
    (SparseNonnegMatrix, "set", "sparse.set_calls"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1          # id of the operation running now, -1 outside one
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span with this name, in start order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def per_op(self, name: str) -> dict[int, float]:
        """Seconds spent in spans of this name, summed per operation."""
        out: dict[int, float] = defaultdict(float)
        for n, start, end, _, op in self.spans:
            if n == name:
                out[op] += end - start
        return out

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, self._spanned(getattr(owner, attr), name))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(getattr(owner, attr), name))
        handle = DynamicWhackState.handle_update
        self._replace(DynamicWhackState, "handle_update", self._classified_update(handle))
        from_instance = StreamCursor.__dict__["from_instance"].__func__
        self._replace(StreamCursor, "from_instance", self._counting_cursor(from_instance))

    def _counting_cursor(self, from_instance):
        """The cursor the program builds, its row source wrapped to count rows."""
        counts = self.counts

        def wrapper(cls, *args, **kwargs):
            cursor = from_instance(cls, *args, **kwargs)
            source = cursor.source

            def rows():
                for row in source():
                    counts["streaming.rows_read"] += 1
                    yield row
            cursor.source = rows
            return cursor
        return classmethod(wrapper)

    def _classified_update(self, fn):
        """Span per dynamic update, named by what the update set off:
        a phase rebuild, an enforcement, or neither."""
        def wrapper(state, event):
            phases, enforcements = state.stats.phases, state.stats.enforcements
            idx = self.begin("whack_dynamic.update")
            try:
                return fn(state, event)
            finally:
                self.end(idx)
                if state.stats.phases != phases:
                    kind = "rebuild"
                elif state.stats.enforcements != enforcements:
                    kind = "enforce"
                else:
                    kind = "plain"
                name, start, end, parent, op = self.spans[idx]
                self.spans[idx] = (f"{name}.{kind}", start, end, parent, op)
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
