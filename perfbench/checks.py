"""Output checks computed apart from the solvers.

Every check works on the benchmark's own dense numpy copy of the data (with
the stream updates applied so far) and never calls into pclp. Each returns
a list of failure messages; an empty list means the output passed. The
absolute headroom matches the program's own certificate checker.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-9


def _vector(v, length: int, what: str) -> tuple[np.ndarray | None, list[str]]:
    if v is None:
        return None, [f"{what}: no vector"]
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        return None, [f"{what}: length {v.shape} != {length}"]
    if not np.all(np.isfinite(v)):
        return None, [f"{what}: non-finite coordinate"]
    if v.min() < -TOL:
        return None, [f"{what}: negative coordinate {v.min():.3g}"]
    return v, []


def _below(values: np.ndarray, bound, what: str) -> list[str]:
    over = values - bound
    return [f"{what}: {over.max():.3g} above its bound"] if over.max() > TOL else []


def _above(values: np.ndarray, bound, what: str) -> list[str]:
    under = bound - values
    return [f"{what}: {under.max():.3g} below its bound"] if under.max() > TOL else []


def covering_primal(A: np.ndarray, x, eps: float, sum_max: float = 1.0,
                    rows=slice(None)) -> list[str]:
    """sum x <= sum_max and (A x)_i >= 1 - eps on the chosen rows."""
    x, bad = _vector(x, A.shape[1], "covering primal")
    if bad:
        return bad
    return (_below(np.array([x.sum()]), sum_max, "covering primal sum")
            + _above(A[rows] @ x, 1.0 - eps, "covering primal row"))


def packing_dual(A: np.ndarray, y, eps: float) -> list[str]:
    """sum y = 1 and (A^T y)_j <= 1 + 4 eps."""
    y, bad = _vector(y, A.shape[0], "packing dual")
    if bad:
        return bad
    return (_above(np.array([y.sum()]), 1.0, "packing dual sum")
            + _below(np.array([y.sum()]), 1.0, "packing dual sum")
            + _below(A.T @ y, 1.0 + 4.0 * eps, "packing dual column"))


def packing_primal(P: np.ndarray, x, eps: float) -> list[str]:
    """1 - 4 eps <= sum x <= 1 and (P x)_i <= 1 + eps."""
    x, bad = _vector(x, P.shape[1], "packing primal")
    if bad:
        return bad
    s = np.array([x.sum()])
    return (_below(s, 1.0, "packing primal sum") + _above(s, 1.0 - 4.0 * eps, "packing primal sum")
            + _below(P @ x, 1.0 + eps, "packing primal row"))


def covering_dual(P: np.ndarray, y, eps: float) -> list[str]:
    """sum y = 1 and (P^T y)_j >= 1 - 4 eps."""
    y, bad = _vector(y, P.shape[0], "covering dual")
    if bad:
        return bad
    s = np.array([y.sum()])
    return (_above(s, 1.0, "covering dual sum") + _below(s, 1.0, "covering dual sum")
            + _above(P.T @ y, 1.0 - 4.0 * eps, "covering dual column"))


def standard_outcome(A: np.ndarray, tag: str, vector, eps: float,
                     sum_max: float = 1.0) -> list[str]:
    """Dispatch on the outcome tag of a covering or packing solve."""
    if tag == "covering_primal":
        return covering_primal(A, vector, eps, sum_max)
    if tag == "packing_dual":
        return packing_dual(A, vector, eps)
    if tag == "packing_primal":
        return packing_primal(A, vector, eps)
    if tag == "covering_dual":
        return covering_dual(A, vector, eps)
    return [f"unexpected outcome tag {tag}"]


def general_primal(C: np.ndarray, b: np.ndarray, x, eps: float) -> list[str]:
    """x >= 0 and C x >= (1 - eps) b."""
    x, bad = _vector(x, C.shape[1], "general primal")
    if bad:
        return bad
    return _above(C @ x, (1.0 - eps) * b, "general primal row")


def general_bracket(C: np.ndarray, a: np.ndarray, b: np.ndarray, x, y,
                    eps: float) -> list[str]:
    """C x >= (1 - eps) b, C^T y <= a and a^T x <= (1 + eps)(1 + 4 eps) b^T y."""
    bad = general_primal(C, b, x, eps)
    y, bad_y = _vector(y, C.shape[0], "general dual")
    if bad or bad_y:
        return bad + bad_y
    bad = _below(C.T @ y, a, "general dual column")
    return bad + _below(np.array([a @ x]), (1.0 + eps) * (1.0 + 4.0 * eps) * (b @ y),
                        "general objective over the dual bracket")


def positive_solution(P: np.ndarray, C: np.ndarray, rhs_p: np.ndarray,
                      rhs_c: np.ndarray, x, eps: float) -> list[str]:
    """x >= 0, P x <= (1 + 200 eps) rhs_p and C x >= rhs_c."""
    x, bad = _vector(x, P.shape[1], "positive solution")
    if bad:
        return bad
    return (_below(P @ x, (1.0 + 200.0 * eps) * rhs_p, "positive packing row")
            + _above(C @ x, rhs_c, "positive covering row"))
