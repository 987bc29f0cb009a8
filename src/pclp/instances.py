"""Problem instances and their validation.

Four instance kinds are shared by every solver in the package:

* :class:`NormalizedCoveringInstance` -- covering feasibility in standard
  form (min 1^T x, C x >= 1) with entries bounded by ``lam``.
* :class:`PackingInstanceView` -- the mirrored packing feasibility problem
  over the same matrix shape.
* :class:`GeneralInstance` -- a covering LP with arbitrary positive
  objective ``a`` and RHS ``b``.
* :class:`PositiveInstance` -- mixed packing/covering feasibility
  (P x <= 1, C x >= 1) after RHS scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseNonnegMatrix


@dataclass(frozen=True)
class ValidationError:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass
class NormalizedCoveringInstance:
    C: SparseNonnegMatrix
    lam: float
    eps: float

    @property
    def m(self) -> int:
        return self.C.m

    @property
    def n(self) -> int:
        return self.C.n


@dataclass
class PackingInstanceView:
    """Packing feasibility over P in [0, lam]^{m x n}: 1^T x = 1, P x <= (1+eps) 1."""

    P: SparseNonnegMatrix
    lam: float
    eps: float

    @property
    def m(self) -> int:
        return self.P.m

    @property
    def n(self) -> int:
        return self.P.n


@dataclass
class GeneralInstance:
    """min a^T x  s.t.  C x >= b, x >= 0, with nonzero data in [L, U]."""

    C: SparseNonnegMatrix
    a: np.ndarray
    b: np.ndarray
    L: float
    U: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != (self.C.n,):
            raise ValueError(f"a must have length n={self.C.n}")
        if self.b.shape != (self.C.m,):
            raise ValueError(f"b must have length m={self.C.m}")

    @property
    def m(self) -> int:
        return self.C.m

    @property
    def n(self) -> int:
        return self.C.n


POSITIVE_EPS_CAP = 1 / 200  # the greedy solver's largest accuracy


@dataclass
class PositiveInstance:
    """Mixed feasibility P x <= 1, C x >= 1 (RHS already scaled to ones)."""

    P: SparseNonnegMatrix
    C: SparseNonnegMatrix
    L: float
    U: float
    eps: float

    def __post_init__(self):
        if self.P.n != self.C.n:
            raise ValueError("P and C must agree on the number of variables")

    @property
    def m_p(self) -> int:
        return self.P.m

    @property
    def m_c(self) -> int:
        return self.C.m

    @property
    def n(self) -> int:
        return self.P.n


def _all_within(vals: list[float], lo: float, hi: float) -> bool:
    """True when every value is finite and in [lo, hi]; a NaN value or bound
    gives False, and the caller then finds the errors entry by entry."""
    inf = math.inf
    for v in vals:
        if not (lo <= v <= hi and v < inf):
            return False
    return True


def _matrix_errors(mat: SparseNonnegMatrix, lam: float | None, name: str) -> list[ValidationError]:
    errors = []
    inf = math.inf
    if _all_within(mat.values(), 0.0, inf if lam is None else lam):
        return errors
    for i, j, v in mat.entries():
        if not (0.0 <= v < inf):
            code = "NegativeEntry" if -inf < v < 0.0 else "NonFinite"
            errors.append(ValidationError(code, f"{name}[{i},{j}]={v}"))
        elif lam is not None and v > lam:
            errors.append(
                ValidationError("EntryAboveLambda", f"{name}[{i},{j}]={v} > {lam}"))
    return errors


def _range_errors(mat: SparseNonnegMatrix, L: float, U: float, name: str) -> list[ValidationError]:
    if _all_within(mat.values(), L, U):
        return []
    return [ValidationError("EntryAboveLambda", f"{name}[{i},{j}]={v} outside [{L},{U}]")
            for i, j, v in mat.entries() if not (L <= v <= U)]


def _non_finite(**scalars: float) -> list[ValidationError]:
    return [ValidationError("NonFinite", f"{name}={v}")
            for name, v in scalars.items() if not math.isfinite(v)]


def validate(instance) -> list[ValidationError]:
    """Check every type invariant; returns one entry per violation (empty = ok)."""
    errors: list[ValidationError] = []
    if isinstance(instance, (NormalizedCoveringInstance, PackingInstanceView)):
        name = "C" if isinstance(instance, NormalizedCoveringInstance) else "P"
        errors += _non_finite(lam=instance.lam)
        errors += _matrix_errors(getattr(instance, name), instance.lam, name)
        if not (0 < instance.eps < 0.5):
            errors.append(ValidationError(
                "EpsOutOfRange", f"eps={instance.eps} outside (0, 1/2)"))
        if instance.lam <= 0:
            errors.append(ValidationError("EntryAboveLambda", f"lambda={instance.lam} <= 0"))
    elif isinstance(instance, GeneralInstance):
        errors += _non_finite(L=instance.L, U=instance.U)
        errors += _matrix_errors(instance.C, None, "C")
        if instance.L > instance.U:
            errors.append(ValidationError("EpsOutOfRange", f"L={instance.L} > U={instance.U}"))
        for name, vec in (("a", instance.a), ("b", instance.b)):
            for idx, v in enumerate(vec):
                if not math.isfinite(v):
                    errors.append(ValidationError("NonFinite", f"{name}[{idx}]={v}"))
                elif v <= 0:
                    errors.append(ValidationError(
                        "NegativeEntry", f"{name}[{idx}]={v} must be positive"))
                elif not (instance.L <= v <= instance.U):
                    errors.append(ValidationError(
                        "EntryAboveLambda", f"{name}[{idx}]={v} outside [{instance.L},{instance.U}]"))
        errors += _range_errors(instance.C, instance.L, instance.U, "C")
        # a row with no entry cannot reach its positive b_i: the LP is infeasible
        errors += [ValidationError("EmptyRow", f"C row {i} has no entry")
                   for i in range(instance.m) if not instance.C.row_map(i)]
    elif isinstance(instance, PositiveInstance):
        errors += _non_finite(L=instance.L, U=instance.U)
        errors += _matrix_errors(instance.P, None, "P")
        errors += _matrix_errors(instance.C, None, "C")
        if not (0 < instance.eps <= POSITIVE_EPS_CAP):
            errors.append(ValidationError(
                "EpsOutOfRange", f"eps={instance.eps} outside (0, 1/200]"))
        for name, mat in (("P", instance.P), ("C", instance.C)):
            errors += _range_errors(mat, instance.L, instance.U, name)
    else:
        raise TypeError(f"unknown instance type {type(instance)!r}")
    return errors
