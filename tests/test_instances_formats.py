import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering, positive
from pclp.cli import _load
from pclp.formats import (
    ParseError,
    emit_instance,
    emit_updates,
    parse_instance,
    parse_updates,
    SetLine,
)
from pclp.generate import random_covering, random_general, random_packing, random_positive
from pclp.instances import (GeneralInstance, NormalizedCoveringInstance, PackingInstanceView,
                            PositiveInstance, validate)
from pclp.sparse import SparseNonnegMatrix


def test_validate_accepts_clean_instance():
    assert validate(covering([[1.0]], lam=1.0, eps=0.1)) == []


def test_validate_flags_entry_above_lambda():
    errors = validate(covering([[2.0]], lam=1.0, eps=0.1))
    assert any(e.code == "EntryAboveLambda" for e in errors)


def test_validate_flags_eps_out_of_range():
    errors = validate(covering([[1.0]], lam=1.0, eps=0.6))
    assert any(e.code == "EpsOutOfRange" for e in errors)


def test_validate_positive_eps_cap():
    inst = positive([[1.0]], [[1.0]])
    inst.eps = 0.01
    errors = validate(inst)
    assert any(e.code == "EpsOutOfRange" for e in errors)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validate_flags_non_finite_numbers(bad):
    # every number validate reads: entries, lam, L, U, a and b
    def codes(instance):
        return [e.code for e in validate(instance)]

    assert "NonFinite" in codes(covering([[1.0]], lam=bad, eps=0.1))
    inst = covering([[1.0, 1.0]], lam=2.0, eps=0.1)
    if bad != float("-inf"):  # set() itself rejects negative values
        inst.C.set(0, 1, bad)
        assert codes(inst) == ["NonFinite"]
    general = random_general(np.random.default_rng(0), 2, 2)
    for field in ("L", "U"):
        g = GeneralInstance(C=general.C, a=general.a, b=general.b, L=general.L, U=general.U)
        setattr(g, field, bad)
        assert "NonFinite" in codes(g)
    for vec in ("a", "b"):
        g = GeneralInstance(C=general.C, a=general.a.copy(), b=general.b.copy(),
                            L=general.L, U=general.U)
        getattr(g, vec)[0] = bad
        assert codes(g) == ["NonFinite"]
    pos = positive([[1.0]], [[1.0]])
    pos.U = bad
    assert "NonFinite" in codes(pos)


def test_parse_covering_roundtrip():
    inst = covering([[1.0, 0.0], [0.5, 0.25]], lam=1.0, eps=0.2)
    text = emit_instance(inst)
    back = parse_instance(text, eps=0.2)
    assert back.lam == inst.lam
    assert np.allclose(back.C.to_dense(), inst.C.to_dense())


def test_parse_general_roundtrip():
    gen = random_general(np.random.default_rng(5), 4, 3)
    back = parse_instance(emit_instance(gen))
    assert isinstance(back, GeneralInstance)
    assert np.allclose(back.C.to_dense(), gen.C.to_dense())
    assert np.allclose(back.a, gen.a)
    assert np.allclose(back.b, gen.b)


def test_parse_positive_roundtrip():
    inst = random_positive(np.random.default_rng(6), 3, 2, 3)
    back = parse_instance(emit_instance(inst), eps=1 / 200)
    assert np.allclose(back.P.to_dense(), inst.P.to_dense())
    assert np.allclose(back.C.to_dense(), inst.C.to_dense())


def test_generated_instances_roundtrip_many(rng):
    for _ in range(10):
        inst = random_covering(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)), eps=0.1)
        back = parse_instance(emit_instance(inst), eps=0.1)
        assert np.array_equal(back.C.to_dense(), inst.C.to_dense())


def test_parse_updates_and_emit():
    text = "set C 0 1 0.5\nset a 2 3.0\nset b 1 0.75\n"
    lines = parse_updates(text)
    assert lines == [SetLine("C", 0, 1, 0.5), SetLine("a", None, 2, 3.0),
                     SetLine("b", 1, None, 0.75)]
    assert parse_updates(emit_updates(lines)) == lines


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_instance("covering 1 1\nC 0 0\n")
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError):
        parse_updates("set Q 0 0 1\n")


@pytest.mark.parametrize("line, detail", [
    ("set C x 0 1.0", "set C needs integer indexes and a number"),
    ("set a 0 1.5.2", "set a needs integer indexes and a number"),
    ("set b 0.5 1.0", "set b needs integer indexes and a number"),
    ("set a 0 inf", "set a value is not finite: inf"),
    ("set C 0 0 nan", "set C value is not finite: nan"),
    ("set", "unknown set target ''"),
])
def test_parse_updates_names_the_bad_line(line, detail):
    with pytest.raises(ParseError, match=f"^line 2: {re.escape(detail)}"):
        parse_updates(f"set b 0 1.0\n{line}\n")


def test_parse_general_requires_positive_scales():
    with pytest.raises(ParseError):
        parse_instance("general 1 1\nC 0 0 1.0\na 0 1.0\n")  # b missing


# -- properties ------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive_finite = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def instances(draw):
    """An instance of any kind with arbitrary finite entries, subnormals and
    values near the float range included; parsing does not validate."""
    kind = draw(st.sampled_from(["covering", "packing", "positive", "general"]))
    n = draw(st.integers(1, 4))
    shapes = {"covering": [("C", draw(st.integers(1, 4)))],
              "packing": [("P", draw(st.integers(1, 4)))],
              "positive": [("P", draw(st.integers(1, 3))), ("C", draw(st.integers(1, 3)))],
              "general": [("C", draw(st.integers(1, 4)))]}[kind]
    mats = {}
    for name, m in shapes:
        mat = SparseNonnegMatrix(m, n)
        for i in range(m):
            for j in range(n):
                if draw(st.booleans()):
                    mat.set(i, j, draw(positive_finite))
        mats[name] = mat
    if kind == "covering":
        return NormalizedCoveringInstance(mats["C"], draw(positive_finite), 0.1)
    if kind == "packing":
        return PackingInstanceView(mats["P"], draw(positive_finite), 0.1)
    if kind == "positive":
        return PositiveInstance(P=mats["P"], C=mats["C"], L=1.0, U=1.0, eps=1 / 200)
    m = shapes[0][1]
    a = np.array(draw(st.lists(positive_finite, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(positive_finite, min_size=m, max_size=m)))
    return GeneralInstance(C=mats["C"], a=a, b=b, L=1.0, U=1.0)


@given(instances())
@settings(max_examples=150, deadline=None)
def test_emit_parse_roundtrip_is_exact(inst):
    text = emit_instance(inst)
    back = parse_instance(text, eps=inst.eps if hasattr(inst, "eps") else 0.1)
    assert type(back) is type(inst)
    for name in ("C", "P"):
        if hasattr(inst, name):
            assert list(getattr(back, name).entries()) == list(getattr(inst, name).entries())
    for name in ("lam", "a", "b"):
        if hasattr(inst, name):
            assert np.asarray(getattr(back, name)).tobytes() == \
                np.asarray(getattr(inst, name)).tobytes()
    assert emit_instance(back) == text


@given(st.lists(st.one_of(
    st.builds(SetLine, st.sampled_from(["C", "P"]), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6), finite),
    st.builds(SetLine, st.just("a"), st.none(), st.integers(0, 10 ** 6), finite),
    st.builds(SetLine, st.just("b"), st.integers(0, 10 ** 6), st.none(), finite)),
    min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_emit_parse_updates_roundtrip_is_exact(lines):
    back = parse_updates(emit_updates(lines))
    assert back == lines
    assert [np.float64(s.value).tobytes() for s in back] == \
        [np.float64(s.value).tobytes() for s in lines]


def non_finite_spellings():
    """Text that float() reads as NaN or an infinity: any case, any sign,
    and decimal exponents past the float range."""
    word = st.sampled_from(["nan", "inf", "infinity"]).flatmap(
        lambda w: st.lists(st.booleans(), min_size=len(w), max_size=len(w)).map(
            lambda upper: "".join(c.upper() if u else c for c, u in zip(w, upper))))
    overflow = st.integers(309, 10 ** 4).map(lambda e: f"1e{e}")
    return st.tuples(st.sampled_from(["", "+", "-"]), st.one_of(word, overflow)).map("".join)


@given(st.sampled_from(["covering", "packing", "positive", "general"]),
       st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_non_finite_text_is_a_parse_error(tmp_path_factory, kind, seed, data):
    # one number of a valid instance file spelled as NaN or an infinity: the
    # file the CLI loads becomes a ParseError (exit 3), never an instance
    rng = np.random.default_rng(seed)
    eps = 1 / 200 if kind == "positive" else 0.1
    inst = {"covering": lambda: random_covering(rng, 3, 3, eps=eps),
            "packing": lambda: random_packing(rng, 3, 3, eps=eps),
            "positive": lambda: random_positive(rng, 2, 2, 3),
            "general": lambda: random_general(rng, 3, 3)}[kind]()
    lines = emit_instance(inst).splitlines()
    # the header's lambda, then every entry's value (the last token)
    numbers = ([(0, 3)] if kind in ("covering", "packing") else []) + \
        [(k, len(line.split()) - 1) for k, line in enumerate(lines) if k > 0]
    row, col = data.draw(st.sampled_from(numbers))
    path = tmp_path_factory.mktemp("non_finite") / "instance.txt"
    path.write_text("\n".join(lines) + "\n")
    _load(str(path), eps)  # the file as emitted loads
    tokens = lines[row].split()
    tokens[col] = data.draw(non_finite_spellings())
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        _load(str(path), eps)
