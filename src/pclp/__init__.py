"""Approximate packing-covering and positive LP solvers with certificates.

Solvers for standard-form covering/packing feasibility in static,
partially-dynamic, streaming and online settings; reductions from general
LPs via optimum guessing; a greedy mixed packing-covering solver under
relaxing updates; and an exact rational oracle for desk-scale ground truth.
"""

from .certificates import (
    CertificateSlack,
    Outcome,
    OutcomeTag,
    check_certificate,
)
from .instances import (
    GeneralInstance,
    NormalizedCoveringInstance,
    PackingInstanceView,
    PositiveInstance,
    validate,
)
from .sparse import (
    IndexOutOfRange,
    NonMonotoneUpdate,
    SparseNonnegMatrix,
    UpdateEvent,
    UpdateKind,
)

__all__ = [
    "CertificateSlack",
    "GeneralInstance",
    "IndexOutOfRange",
    "NonMonotoneUpdate",
    "NormalizedCoveringInstance",
    "Outcome",
    "OutcomeTag",
    "PackingInstanceView",
    "PositiveInstance",
    "SparseNonnegMatrix",
    "UpdateEvent",
    "UpdateKind",
    "check_certificate",
    "validate",
]

__version__ = "0.1.0"
