"""The float identities the row kernels rest on, checked bit for bit.

The scans compute every per-row dot with ``ndarray.dot``, a row's rates in
place, and their largest with ``np.maximum.reduce``; each was chosen as the
cheapest call that gives the same result as the plain form (``a @ b``,
``np.log1p(sign * eps * vals / lam)``, ``r.max()``). If a NumPy release
breaks one of these, the test named after it fails, instead of an output
digest failing without saying why.

The one known difference is the sign of a zero: on a one-entry dot whose
product is -0.0, ``ndarray.dot`` returns that product and ``@`` adds it to
+0.0. No solver output shows it, since the scans only compare a dot or
test it against zero; ``matvec`` and ``rmatvec`` can return such a -0.0
only for a vector with a negative or -0.0 coordinate, since a stored
matrix entry is positive.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclp.packing import PackingState
from pclp.whack_static import WhackState

#: magnitudes over +-30 decades, with the non-finite values mixed in
_ENTRY = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-30, 30)),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _variants(values: list[float]) -> list[np.ndarray]:
    """The vector as a contiguous writable array and as a read-only one."""
    arr = np.array(values, dtype=np.float64)
    frozen = arr.copy()
    frozen.setflags(write=False)
    return [arr, frozen]


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(1, 64))
    return (draw(st.lists(_ENTRY, min_size=n, max_size=n)),
            draw(st.lists(_ENTRY, min_size=n, max_size=n)))


@given(_vector_pairs())
@example(([0.0], [-0.0]))
@example(([1e-300], [-1e-300]))
@settings(max_examples=200, deadline=None)
def test_ndarray_dot_matches_matmul_bitwise(pair):
    with np.errstate(all="ignore"):
        for a in _variants(pair[0]):
            for b in _variants(pair[1]):
                got, want = a.dot(b), a @ b
                if len(a) == 1 and got == want == 0.0:
                    continue  # the sign of a zero, as the module docstring says
                assert _bits(got) == _bits(want)


@given(st.lists(_ENTRY, min_size=1, max_size=64),
       st.sampled_from([WhackState, PackingState]),
       st.floats(1e-3, 0.5), st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_in_place_rates_match_log1p_bitwise(values, state_cls, eps, lam):
    state = state_cls(1, lam, eps)
    with np.errstate(all="ignore"):
        for vals in _variants(values):
            rate, g_max, _ = state._row_rates(0, vals)
            want = np.log1p(state._RATE_SIGN * eps * vals / lam)
            assert rate.tobytes() == want.tobytes()
            assert _bits(g_max) == _bits(want.max())


@given(st.lists(_ENTRY, min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_maximum_reduce_matches_max_bitwise(values):
    for r in _variants(values):
        assert _bits(np.maximum.reduce(r)) == _bits(r.max())
