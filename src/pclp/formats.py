"""Line-oriented text formats for instances and update streams.

Instance files (UTF-8, 0-based indexes)::

    covering m n lambda      packing m n lambda
    C i j v                  P i j v
    ...                      ...

    positive mp mc n         general m n
    P i j v                  C i j v
    C i j v                  a j v
    ...                      b i v

An instance file is read as the records it holds:

* ``#`` starts a comment that runs to the end of its line; blank lines,
  comment lines and CRLF line endings are skipped, so the header is the
  first line that holds a record, and tokens are split on any whitespace.
* Entry records are applied in file order with the rules of
  ``SparseNonnegMatrix.set``: a later line for the same (i, j) overwrites
  the value in place and keeps the first line's position in the row's and
  the column's order; a zero value removes the entry, and a later non-zero
  value puts it back at the end. An ``a`` or ``b`` line overwrites the
  value an earlier one set.
* ``L`` and ``U`` of a positive or general instance are the least and the
  largest of the stored entries (and of ``a`` and ``b``), so a value a
  later line overwrote, or a zero, does not count.
* A malformed header or record, an index outside the header's shape (a
  negative one included) and a negative entry are each a ``ParseError``
  naming the line; NaN and infinite values parse, and ``validate`` rejects
  them.

Update streams are ``set`` lines against the same names::

    set C i j v
    set a j v
    set b i v

Direction (restricting vs. relaxing) is not encoded in the line; each
replay driver classifies a ``set`` against the current value and rejects
updates that move the wrong way for its setting.

Each format is stated once, in one table that its reader and its writer
both walk: ``_KINDS`` gives each instance kind's class, header fields and
record tags, and ``_SET_ARGS`` each ``set`` target's indexes. The writers
give a header's integers as integers and every other number as the repr of
a Python float, numpy scalars included, so it parses back to the same
float; ``emit_instance`` writes a matrix's entries in (i, j) order and a
vector by index.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
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


#: a comment: from ``#`` up to the next line boundary ``str.splitlines`` sees
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _lines(text: str) -> Iterator[list[str]]:
    """The tokens of every line, comments cut: an empty list for a line
    that holds no record."""
    return map(str.split, _COMMENT.sub("", text).splitlines())


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that holds a record."""
    return ((lineno, parts) for lineno, parts in enumerate(_lines(text), start=1) if parts)


#: per kind: its instance class, the header's fields after the kind word
#: (name, type, the instance attribute that holds it), and per record tag the
#: names of its indexes and the header fields that bound them; the tag is also
#: the attribute that holds the tag's matrix or vector
_KINDS = {
    "covering": (NormalizedCoveringInstance,
                 (("m", int, "m"), ("n", int, "n"), ("lambda", float, "lam")),
                 {"C": ("i j", ("m", "n"))}),
    "packing": (PackingInstanceView,
                (("m", int, "m"), ("n", int, "n"), ("lambda", float, "lam")),
                {"P": ("i j", ("m", "n"))}),
    "positive": (PositiveInstance,
                 (("mp", int, "m_p"), ("mc", int, "m_c"), ("n", int, "n")),
                 {"P": ("i j", ("mp", "n")), "C": ("i j", ("mc", "n"))}),
    "general": (GeneralInstance,
                (("m", int, "m"), ("n", int, "n")),
                {"C": ("i j", ("m", "n")), "a": ("j", ("n",)), "b": ("i", ("m",))}),
}


def _number(v) -> str:
    """A value as a file holds it: the repr of the float, which parses back
    to the same float; a numpy scalar is converted first, since its own repr
    does not parse."""
    return repr(float(v))


def _convert(records: Iterator[list[str]], tags: dict) -> dict[str, list[tuple]]:
    """Per record tag of ``tags``, the converted records, (i, j, v) or
    (k, v), in file order. A record of an unknown tag or of the wrong
    width, or a token that is not a number, raises LookupError or
    ValueError here or in ``_build``."""
    out = {tag: [] for tag in tags}
    for parts in records:
        entries = out[parts[0]]
        if len(parts) == 4:
            _, i, j, v = parts
            entries.append((int(i), int(j), float(v)))
        else:
            _, k, v = parts
            entries.append((int(k), float(v)))
    return out


def _build(entries: list[tuple], shape: tuple[int, ...]):
    """The matrix (``shape`` (m, n)) or vector (``shape`` (n,)) that these
    converted records write in turn; an index outside ``shape``, a negative
    entry or a record of the other width raises ValueError or IndexError."""
    if len(shape) == 2:
        return SparseNonnegMatrix.from_entries(*shape, entries)
    out = np.zeros(shape[0])
    for j, v in entries:
        if j < 0:
            raise IndexError(f"negative index {j}")
        out[j] = v
    return out


def _record_error(parts: list[str], tags: dict[str, tuple],
                  shapes: dict[str, tuple[int, ...]]) -> str | None:
    """Why one record is bad, or None; ``tags`` is the kind's record table
    of ``_KINDS``."""
    tag = parts[0]
    if tag not in tags:
        return f"expected {' or '.join(tags)} records, got {tag!r}"
    if len(parts) != 2 + len(shapes[tag]):
        return f"{tag} needs {tags[tag][0]} v: {' '.join(parts)}"
    try:
        index = [int(t) for t in parts[1:-1]]
        value = float(parts[-1])
    except ValueError:
        return f"{tag} needs integer indexes and a number: {' '.join(parts)}"
    where = ",".join(map(str, index))
    if not all(0 <= k < size for k, size in zip(index, shapes[tag])):
        return f"{tag}[{where}] outside shape {shapes[tag]}"
    if len(index) == 2 and value < 0.0:
        return f"negative entry {tag}[{where}]={value}"
    return None


def parse_instance(text: str, eps: float = 0.1):
    """Parse an instance file; ``eps`` is attached where the type carries one.

    One pass over the lines splits each record and converts its numbers
    (``_convert``); each matrix is then built by one
    ``SparseNonnegMatrix.from_entries`` call. Only when either raises is the
    file walked again, record by record, to name the first bad line."""
    records = filter(None, _lines(text))
    head = next(records, None)
    if head is None:
        raise ParseError("empty instance file")
    kind, *fields = head
    if kind not in _KINDS:
        raise ParseError(f"line {next(_tokens(text))[0]}: unknown instance kind {kind!r}")
    cls, spec, tags = _KINDS[kind]
    try:
        if len(fields) != len(spec):
            raise ValueError
        header = {name: convert(t) for (name, convert, _), t in zip(spec, fields)}
    except ValueError:
        raise ParseError(f"line {next(_tokens(text))[0]}: {kind} header needs "
                         f"{' '.join(name for name, *_ in spec)}: {' '.join(head)}") from None
    shapes = {tag: tuple(map(header.get, bounds)) for tag, (_, bounds) in tags.items()}
    try:
        built = {tag: _build(entries, shapes[tag])
                 for tag, entries in _convert(records, tags).items()}
    except (LookupError, ValueError) as exc:
        if min(map(min, shapes.values())) < 1:  # SparseNonnegMatrix refuses it
            raise ParseError(f"line {next(_tokens(text))[0]}: a matrix must be at least 1x1: "
                             f"{' '.join(head)}") from None
        for lineno, parts in islice(_tokens(text), 1, None):
            why = _record_error(parts, tags, shapes)
            if why is not None:
                raise ParseError(f"line {lineno}: {why}") from None
        raise ParseError(f"bad entry: {exc}") from None
    if kind in ("covering", "packing"):
        return cls(**built, lam=header["lambda"], eps=eps)
    if kind == "positive":
        P, C = built["P"], built["C"]
        vals = P.values() + C.values()
        L = min(vals) if vals else 1.0
        U = max(vals) if vals else 1.0
        return PositiveInstance(P=P, C=C, L=L, U=U, eps=eps)
    C, a, b = built["C"], built["a"], built["b"]
    if np.any(a <= 0) or np.any(b <= 0):
        raise ParseError("general instance requires every a_j and b_i set positive")
    vals = C.values() + list(a) + list(b)
    return GeneralInstance(C=C, a=a, b=b, L=min(vals), U=max(vals))


def emit_instance(instance) -> str:
    """The file ``parse_instance`` reads back as ``instance``: the header,
    then each record tag's matrix entries in (i, j) order or its vector by
    index."""
    for kind, (cls, spec, tags) in _KINDS.items():
        if isinstance(instance, cls):
            break
    else:
        raise TypeError(f"cannot emit {type(instance)!r}")
    # a header field is written as its type converts it: a float as its repr
    header = [str(convert(getattr(instance, attr))) for _, convert, attr in spec]
    lines = [" ".join([kind, *header])]
    for tag, (_, bounds) in tags.items():
        data = getattr(instance, tag)
        records = sorted(data.entries()) if len(bounds) == 2 else enumerate(data)
        lines += [" ".join([tag, *map(str, index), _number(v)]) for *index, v in records]
    return "\n".join(lines) + "\n"


#: the names of each ``set`` target's indexes, which its value follows: an
#: ``i`` is a SetLine's row, a ``j`` its column
_SET_ARGS = {"C": "i j", "P": "i j", "a": "j", "b": "i"}


def parse_updates(text: str) -> list[SetLine]:
    out: list[SetLine] = []
    for lineno, parts in _tokens(text):
        if parts[0] != "set":
            raise ParseError(f"line {lineno}: update lines must start with 'set'")
        target = parts[1] if len(parts) > 1 else ""
        names = _SET_ARGS.get(target)
        if names is None:
            raise ParseError(f"line {lineno}: unknown set target {target!r}")
        if len(parts) != 3 + len(names.split()):
            raise ParseError(f"line {lineno}: set {target} needs {names} v")
        try:
            index = dict(zip(names.split(), map(int, parts[2:-1])))
            value = float(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: set {target} needs integer indexes and a "
                             f"number: {' '.join(parts)}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: set {target} value is not finite: {value}")
        out.append(SetLine(target, index.get("i"), index.get("j"), value))
    return out


def emit_updates(lines: Iterable[SetLine]) -> str:
    """The stream ``parse_updates`` reads back as ``lines``."""
    out = []
    for s in lines:
        index = {"i": s.row, "j": s.col}
        fields = [str(index[name]) for name in _SET_ARGS[s.target].split()]
        out.append(" ".join(["set", s.target, *fields, _number(s.value)]))
    return "\n".join(out) + "\n"
