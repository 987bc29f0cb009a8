"""Line-oriented text formats for instances and update streams.

Instance files (UTF-8, 0-based indexes)::

    covering m n lambda      packing m n lambda
    C i j v                  P i j v
    ...                      ...

    positive mp mc n         general m n
    P i j v                  C i j v
    C i j v                  a j v
    ...                      b i v

Update streams are ``set`` lines against the same names::

    set C i j v
    set a j v
    set b i v

Direction (restricting vs. relaxing) is not encoded in the line; each
replay driver classifies a ``set`` against the current value and rejects
updates that move the wrong way for its setting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .instances import (
    GeneralInstance,
    NormalizedCoveringInstance,
    PackingInstanceView,
    PositiveInstance,
)
from .sparse import SparseNonnegMatrix


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class SetLine:
    """One `set` line of an update stream; row/col use None where absent."""

    target: str  # "C", "P", "a" or "b"
    row: int | None
    col: int | None
    value: float


def _tokens(text: str) -> Iterator[list[str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield [str(lineno)] + line.split()


def _entry(parts: list[str], what: str) -> tuple[int, int, float]:
    lineno = parts[0]
    if len(parts) != 5:
        raise ParseError(f"line {lineno}: malformed {what} entry: {' '.join(parts[1:])}")
    try:
        return int(parts[2]), int(parts[3]), float(parts[4])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def parse_instance(text: str, eps: float = 0.1):
    """Parse an instance file; ``eps`` is attached where the type carries one."""
    it = _tokens(text)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("empty instance file") from None
    kind = header[1]
    try:
        if kind in ("covering", "packing"):
            m, n, lam = int(header[2]), int(header[3]), float(header[4])
            mat = SparseNonnegMatrix(m, n)
            want = "C" if kind == "covering" else "P"
            for parts in it:
                if parts[1] != want:
                    raise ParseError(f"line {parts[0]}: expected {want} entries")
                i, j, v = _entry(parts, want)
                mat.set(i, j, v)
            if kind == "covering":
                return NormalizedCoveringInstance(C=mat, lam=lam, eps=eps)
            return PackingInstanceView(P=mat, lam=lam, eps=eps)
        if kind == "positive":
            mp, mc, n = int(header[2]), int(header[3]), int(header[4])
            P = SparseNonnegMatrix(mp, n)
            C = SparseNonnegMatrix(mc, n)
            for parts in it:
                if parts[1] == "P":
                    i, j, v = _entry(parts, "P")
                    P.set(i, j, v)
                elif parts[1] == "C":
                    i, j, v = _entry(parts, "C")
                    C.set(i, j, v)
                else:
                    raise ParseError(f"line {parts[0]}: expected P or C entries")
            vals = [v for _, _, v in P.entries()] + [v for _, _, v in C.entries()]
            L = min(vals) if vals else 1.0
            U = max(vals) if vals else 1.0
            return PositiveInstance(P=P, C=C, L=L, U=U, eps=eps)
        if kind == "general":
            m, n = int(header[2]), int(header[3])
            C = SparseNonnegMatrix(m, n)
            a = np.zeros(n)
            b = np.zeros(m)
            for parts in it:
                if parts[1] == "C":
                    i, j, v = _entry(parts, "C")
                    C.set(i, j, v)
                elif parts[1] in ("a", "b"):
                    if len(parts) != 4:
                        raise ParseError(f"line {parts[0]}: malformed {parts[1]} line")
                    idx, v = int(parts[2]), float(parts[3])
                    (a if parts[1] == "a" else b)[idx] = v
                else:
                    raise ParseError(f"line {parts[0]}: unknown record {parts[1]}")
            if np.any(a <= 0) or np.any(b <= 0):
                raise ParseError("general instance requires every a_j and b_i set positive")
            vals = [v for _, _, v in C.entries()] + list(a) + list(b)
            return GeneralInstance(C=C, a=a, b=b, L=min(vals), U=max(vals))
    except ParseError:
        raise
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad header or entry: {exc}") from exc
    raise ParseError(f"unknown instance kind {kind!r}")


def emit_instance(instance) -> str:
    lines: list[str] = []
    if isinstance(instance, NormalizedCoveringInstance):
        lines.append(f"covering {instance.m} {instance.n} {instance.lam!r}")
        for i, j, v in sorted(instance.C.entries()):
            lines.append(f"C {i} {j} {v!r}")
    elif isinstance(instance, PackingInstanceView):
        lines.append(f"packing {instance.m} {instance.n} {instance.lam!r}")
        for i, j, v in sorted(instance.P.entries()):
            lines.append(f"P {i} {j} {v!r}")
    elif isinstance(instance, PositiveInstance):
        lines.append(f"positive {instance.m_p} {instance.m_c} {instance.n}")
        for i, j, v in sorted(instance.P.entries()):
            lines.append(f"P {i} {j} {v!r}")
        for i, j, v in sorted(instance.C.entries()):
            lines.append(f"C {i} {j} {v!r}")
    elif isinstance(instance, GeneralInstance):
        lines.append(f"general {instance.m} {instance.n}")
        for i, j, v in sorted(instance.C.entries()):
            lines.append(f"C {i} {j} {v!r}")
        for j, v in enumerate(instance.a):
            lines.append(f"a {j} {float(v)!r}")
        for i, v in enumerate(instance.b):
            lines.append(f"b {i} {float(v)!r}")
    else:
        raise TypeError(f"cannot emit {type(instance)!r}")
    return "\n".join(lines) + "\n"


#: the arguments of each ``set`` target: its indexes, then the value
_SET_ARGS = {"C": "i j v", "P": "i j v", "a": "j v", "b": "i v"}


def parse_updates(text: str) -> list[SetLine]:
    out: list[SetLine] = []
    for parts in _tokens(text):
        lineno = parts[0]
        if parts[1] != "set":
            raise ParseError(f"line {lineno}: update lines must start with 'set'")
        target = parts[2] if len(parts) > 2 else ""
        args = _SET_ARGS.get(target)
        if args is None:
            raise ParseError(f"line {lineno}: unknown set target {target!r}")
        if len(parts) != 3 + len(args.split()):
            raise ParseError(f"line {lineno}: set {target} needs {args}")
        try:
            idx = [int(t) for t in parts[3:-1]]
            value = float(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: set {target} needs integer indexes and a "
                             f"number: {' '.join(parts[1:])}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: set {target} value is not finite: {value}")
        if target in ("C", "P"):
            out.append(SetLine(target, idx[0], idx[1], value))
        elif target == "a":
            out.append(SetLine("a", None, idx[0], value))
        else:
            out.append(SetLine("b", idx[0], None, value))
    return out


def emit_updates(lines: Iterable[SetLine]) -> str:
    out = []
    for s in lines:
        value = float(s.value)  # a numpy scalar's repr does not parse
        if s.target in ("C", "P"):
            out.append(f"set {s.target} {s.row} {s.col} {value!r}")
        elif s.target == "a":
            out.append(f"set a {s.col} {value!r}")
        else:
            out.append(f"set b {s.row} {value!r}")
    return "\n".join(out) + "\n"
