import numpy as np
import pytest

from conftest import covering, positive
from pclp.formats import (
    ParseError,
    emit_instance,
    emit_updates,
    parse_instance,
    parse_updates,
    SetLine,
)
from pclp.generate import random_covering, random_general, random_positive
from pclp.instances import GeneralInstance, validate
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


def test_parse_general_requires_positive_scales():
    with pytest.raises(ParseError):
        parse_instance("general 1 1\nC 0 0 1.0\na 0 1.0\n")  # b missing
