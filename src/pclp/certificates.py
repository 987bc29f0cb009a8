"""Tagged solver outcomes and machine-checkable certificate verification.

Every solver in the package reports its result as an :class:`Outcome`.
``check_certificate`` re-derives the promised inequalities directly from
the instance data, so a passing check depends only on the reported vector
and never on solver-internal state. Slack constants differ per setting
(static vs. dynamic vs. greedy-extracted) and are bundled in
:class:`CertificateSlack`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .instances import PositiveInstance

#: absolute float headroom on top of the epsilon slack of each inequality
ABS_TOL = 1e-9


class OutcomeTag(Enum):
    COVERING_PRIMAL = "covering_primal"
    PACKING_DUAL = "packing_dual"
    PACKING_PRIMAL = "packing_primal"
    COVERING_DUAL = "covering_dual"
    POSITIVE_SOLUTION = "positive_solution"
    INFEASIBLE = "infeasible"
    NULL = "null"


@dataclass(frozen=True)
class Outcome:
    tag: OutcomeTag
    vector: np.ndarray | None = None

    @classmethod
    def covering_primal(cls, x) -> "Outcome":
        return cls(OutcomeTag.COVERING_PRIMAL, np.asarray(x, dtype=float))

    @classmethod
    def packing_dual(cls, y) -> "Outcome":
        return cls(OutcomeTag.PACKING_DUAL, np.asarray(y, dtype=float))

    @classmethod
    def packing_primal(cls, x) -> "Outcome":
        return cls(OutcomeTag.PACKING_PRIMAL, np.asarray(x, dtype=float))

    @classmethod
    def covering_dual(cls, y) -> "Outcome":
        return cls(OutcomeTag.COVERING_DUAL, np.asarray(y, dtype=float))

    @classmethod
    def positive_solution(cls, x) -> "Outcome":
        return cls(OutcomeTag.POSITIVE_SOLUTION, np.asarray(x, dtype=float))

    @classmethod
    def infeasible(cls) -> "Outcome":
        return cls(OutcomeTag.INFEASIBLE, None)

    @classmethod
    def null(cls) -> "Outcome":
        return cls(OutcomeTag.NULL, None)


@dataclass(frozen=True)
class CertificateSlack:
    """Per-setting inequality bounds used by check_certificate.

    primal_sum_max  -- upper bound on 1^T x for a covering primal
    cover_min       -- lower bound on each (C x)_i / (P^T y)_j
    dual_sum_min/max-- band for 1^T y of a dual vector
    pack_max        -- upper bound on each (C^T y)_j / (P x)_i
    """

    primal_sum_max: float
    cover_min: float
    dual_sum_min: float
    dual_sum_max: float
    pack_max: float
    abs_tol: float = ABS_TOL

    @classmethod
    def whack_static(cls, eps: float) -> "CertificateSlack":
        return cls(primal_sum_max=1.0, cover_min=1.0 - eps,
                   dual_sum_min=1.0, dual_sum_max=1.0, pack_max=1.0 + 4.0 * eps)

    @classmethod
    def whack_dynamic(cls, eps: float) -> "CertificateSlack":
        # dynamic covering primal is x_hat/W, so the sum bound relaxes to 1+eps
        return cls(primal_sum_max=1.0 + eps, cover_min=1.0 - eps,
                   dual_sum_min=1.0, dual_sum_max=1.0, pack_max=1.0 + 4.0 * eps)

    @classmethod
    def packing_template(cls, eps: float) -> "CertificateSlack":
        return cls(primal_sum_max=1.0, cover_min=1.0 - 4.0 * eps,
                   dual_sum_min=1.0, dual_sum_max=1.0, pack_max=1.0 + eps)

    @classmethod
    def greedy_positive(cls, eps: float) -> "CertificateSlack":
        return cls(primal_sum_max=math.inf, cover_min=1.0,
                   dual_sum_min=1.0, dual_sum_max=1.0, pack_max=1.0 + 200.0 * eps)


@dataclass(frozen=True)
class Violation:
    kind: str
    index: int
    residual: float

    def __str__(self) -> str:
        return f"CertificateViolation[{self.kind} @ {self.index}: residual={self.residual:.6g}]"


@dataclass
class CertificateReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def worst(self) -> Violation | None:
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: abs(v.residual))

    def __bool__(self) -> bool:
        return self.ok


def _cover_side(matvec: np.ndarray, lower: float, tol: float, kind: str) -> list[Violation]:
    out = []
    for i, v in enumerate(matvec):
        if v < lower - tol:
            out.append(Violation(kind, i, float(v - lower)))
    return out


def _pack_side(matvec: np.ndarray, upper: float, tol: float, kind: str) -> list[Violation]:
    out = []
    for i, v in enumerate(matvec):
        if v > upper + tol:
            out.append(Violation(kind, i, float(v - upper)))
    return out


def check_certificate(instance, outcome: Outcome,
                      slack: CertificateSlack) -> CertificateReport:
    """Verify the outcome's promised inequalities against the instance.

    Infeasible and Null outcomes are vacuously accepted here; their
    soundness is established against the exact oracle in the test suite.
    Null is vacuous by design: it is the answer of a streaming run in
    ``PRIMAL_ONLY`` mode that spent its round budget, and that mode keeps
    no whack tallies, so there is no dual to check. Every other tag must
    carry a vector of finite coordinates: a NaN would pass every
    comparison below by failing it.
    """
    tol = slack.abs_tol
    v: list[Violation] = []
    vec = outcome.vector
    tag = outcome.tag

    if tag in (OutcomeTag.INFEASIBLE, OutcomeTag.NULL):
        if vec is not None:
            v.append(Violation("VectorOnNullOutcome", -1, 0.0))
        return CertificateReport(not v, v)
    if vec is None:
        return CertificateReport(False, [Violation("MissingVector", -1, 0.0)])
    bad = np.flatnonzero(~np.isfinite(vec))
    if len(bad):
        return CertificateReport(False, [Violation("NonFinite", int(bad[0]), float(vec[bad[0]]))])

    if tag is OutcomeTag.COVERING_PRIMAL:
        mat = instance.C
        if len(vec) != mat.n:
            return CertificateReport(False, [Violation("BadLength", len(vec), 0.0)])
        if np.any(vec < -tol):
            v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
        total = float(vec.sum())
        if total > slack.primal_sum_max + tol:
            v.append(Violation("SumAboveBound", -1, total - slack.primal_sum_max))
        v += _cover_side(mat.matvec(vec), slack.cover_min, tol, "RowBelowCover")
    elif tag is OutcomeTag.PACKING_DUAL:
        mat = instance.C
        if len(vec) != mat.m:
            return CertificateReport(False, [Violation("BadLength", len(vec), 0.0)])
        if np.any(vec < -tol):
            v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
        total = float(vec.sum())
        if total < slack.dual_sum_min - tol:
            v.append(Violation("SumBelowBound", -1, total - slack.dual_sum_min))
        if total > slack.dual_sum_max + tol:
            v.append(Violation("SumAboveBound", -1, total - slack.dual_sum_max))
        v += _pack_side(mat.rmatvec(vec), slack.pack_max, tol, "ColAbovePack")
    elif tag is OutcomeTag.PACKING_PRIMAL:
        mat = instance.P
        if len(vec) != mat.n:
            return CertificateReport(False, [Violation("BadLength", len(vec), 0.0)])
        if np.any(vec < -tol):
            v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
        total = float(vec.sum())
        if total > slack.primal_sum_max + tol:
            v.append(Violation("SumAboveBound", -1, total - slack.primal_sum_max))
        if total < slack.cover_min - tol:
            v.append(Violation("SumBelowBound", -1, total - slack.cover_min))
        v += _pack_side(mat.matvec(vec), slack.pack_max, tol, "RowAbovePack")
    elif tag is OutcomeTag.COVERING_DUAL:
        mat = instance.P
        if len(vec) != mat.m:
            return CertificateReport(False, [Violation("BadLength", len(vec), 0.0)])
        if np.any(vec < -tol):
            v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
        total = float(vec.sum())
        if total < slack.dual_sum_min - tol:
            v.append(Violation("SumBelowBound", -1, total - slack.dual_sum_min))
        if total > slack.dual_sum_max + tol:
            v.append(Violation("SumAboveBound", -1, total - slack.dual_sum_max))
        v += _cover_side(mat.rmatvec(vec), slack.cover_min, tol, "ColBelowCover")
    elif tag is OutcomeTag.POSITIVE_SOLUTION:
        assert isinstance(instance, PositiveInstance)
        if len(vec) != instance.n:
            return CertificateReport(False, [Violation("BadLength", len(vec), 0.0)])
        if np.any(vec < -tol):
            v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
        v += _pack_side(instance.P.matvec(vec), slack.pack_max, tol, "RowAbovePack")
        v += _cover_side(instance.C.matvec(vec), slack.cover_min, tol, "RowBelowCover")
    else:  # pragma: no cover
        raise ValueError(f"unhandled tag {tag}")

    return CertificateReport(not v, v)
