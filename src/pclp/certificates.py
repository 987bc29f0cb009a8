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
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self) -> Violation | None:
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: abs(v.residual))

    def __bool__(self) -> bool:
        return self.ok


#: Each vector tag's promises, in the order ``check_certificate`` tests
#: them: the product it takes of the vector (``matvec`` for a primal x,
#: ``rmatvec`` for a dual y); its bounds on 1^T v, as (CertificateSlack
#: field, upper?); and its bounds on the product, as (matrix, CertificateSlack
#: field, upper?, violation kind). The vector's length is the matrix's n
#: under ``matvec`` and its m under ``rmatvec``.
_UPPER, _LOWER = True, False
_PROMISES = {
    OutcomeTag.COVERING_PRIMAL: ("matvec", [("primal_sum_max", _UPPER)],
                                 [("C", "cover_min", _LOWER, "RowBelowCover")]),
    OutcomeTag.PACKING_DUAL: ("rmatvec", [("dual_sum_min", _LOWER), ("dual_sum_max", _UPPER)],
                              [("C", "pack_max", _UPPER, "ColAbovePack")]),
    OutcomeTag.PACKING_PRIMAL: ("matvec", [("primal_sum_max", _UPPER), ("cover_min", _LOWER)],
                                [("P", "pack_max", _UPPER, "RowAbovePack")]),
    OutcomeTag.COVERING_DUAL: ("rmatvec", [("dual_sum_min", _LOWER), ("dual_sum_max", _UPPER)],
                               [("P", "cover_min", _LOWER, "ColBelowCover")]),
    OutcomeTag.POSITIVE_SOLUTION: ("matvec", [],
                                   [("P", "pack_max", _UPPER, "RowAbovePack"),
                                    ("C", "cover_min", _LOWER, "RowBelowCover")]),
}


def check_certificate(instance, outcome: Outcome,
                      slack: CertificateSlack) -> CertificateReport:
    """Verify the outcome's promised inequalities, as ``_PROMISES`` lists
    them for its tag, against the instance.

    Infeasible and Null outcomes are vacuously accepted here; their
    soundness is established against the exact oracle in the test suite.
    Null is vacuous by design: it is the answer of a streaming run in
    ``PRIMAL_ONLY`` mode that spent its round budget, and that mode keeps
    no whack tallies, so there is no dual to check. Every other tag must
    carry a vector of finite coordinates: a NaN would pass every
    comparison below by failing it.
    """
    tol = slack.abs_tol
    vec = outcome.vector
    if outcome.tag in (OutcomeTag.INFEASIBLE, OutcomeTag.NULL):
        return CertificateReport([] if vec is None else [Violation("VectorOnNullOutcome", -1, 0.0)])
    if vec is None:
        return CertificateReport([Violation("MissingVector", -1, 0.0)])
    bad = np.flatnonzero(~np.isfinite(vec))
    if len(bad):
        return CertificateReport([Violation("NonFinite", int(bad[0]), float(vec[bad[0]]))])
    product, sums, bounds = _PROMISES[outcome.tag]
    first = getattr(instance, bounds[0][0])
    if len(vec) != (first.n if product == "matvec" else first.m):
        return CertificateReport([Violation("BadLength", len(vec), 0.0)])

    v: list[Violation] = []
    if np.any(vec < -tol):
        v.append(Violation("NegativeCoordinate", int(np.argmin(vec)), float(vec.min())))
    total = float(vec.sum())
    for name, upper in sums:
        bound = getattr(slack, name)
        if (total > bound + tol) if upper else (total < bound - tol):
            v.append(Violation("SumAboveBound" if upper else "SumBelowBound", -1, total - bound))
    for mat, name, upper, kind in bounds:
        bound = getattr(slack, name)
        got = getattr(getattr(instance, mat), product)(vec)
        hits = np.flatnonzero((got > bound + tol) if upper else (got < bound - tol))
        v += [Violation(kind, i, r) for i, r in zip(hits.tolist(), (got[hits] - bound).tolist())]
    return CertificateReport(v)
