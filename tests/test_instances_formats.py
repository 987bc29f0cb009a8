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


def test_validate_lists_entry_errors_in_entry_order():
    inst = covering([[1.0, 1.0], [1.0, 0.5]], lam=1.5)
    for (i, j), v in zip([(0, 0), (0, 1), (1, 0)], [float("inf"), float("nan"), 2.0]):
        inst.C.set(i, j, v)
    assert [str(e) for e in validate(inst)] == [
        "NonFinite: C[0,0]=inf", "NonFinite: C[0,1]=nan", "EntryAboveLambda: C[1,0]=2.0 > 1.5"]
    # two finite entries whose sum overflows: nothing to report
    assert validate(covering([[1e308, 1e308]], lam=1e308)) == []
    pos = positive([[1.0, 3.0]], [[0.5, 2.0]])
    pos.L, pos.U = 1.0, 2.0
    assert [str(e) for e in validate(pos)] == ["EntryAboveLambda: P[0,1]=3.0 outside [1.0,2.0]",
                                               "EntryAboveLambda: C[0,0]=0.5 outside [1.0,2.0]"]


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


_GENERAL_2X2 = "general 2 2\nC 0 0 1.0\nC 1 1 1.0\n"


@pytest.mark.parametrize("text, detail", [
    ("covering 2 2 1.0\nC 0 0 1.0\nC 5 1 0.5\n", "line 3: C[5,1] outside shape (2, 2)"),
    ("covering 2 2 1.0\nC 0 -1 0.5\n", "line 2: C[0,-1] outside shape (2, 2)"),
    ("covering 2 2 1.0\nC 0 0 -0.5\n", "line 2: negative entry C[0,0]=-0.5"),
    ("packing 2 2 1.0\nP 0 0 0.5\nC 0 0 0.5\n", "line 3: expected P records, got 'C'"),
    ("positive 1 1 2\nP 0 0 1.0\nC 0 0\n", "line 3: C needs i j v: C 0 0"),
    ("positive 1 1 2\nP 0 x 1.0\n", "line 2: P needs integer indexes and a number: P 0 x 1.0"),
    (_GENERAL_2X2 + "a 7 2.0\na 0 1.0\nb 0 1.0\nb 1 1.0\n", "line 4: a[7] outside shape (2,)"),
    (_GENERAL_2X2 + "a 0 1.0\na -1 2.0\nb 0 1.0\nb 1 1.0\n", "line 5: a[-1] outside shape (2,)"),
    (_GENERAL_2X2 + "a 0 1.0\na 1 2.0\nb 0 1.0\nb -1 1.0\n", "line 7: b[-1] outside shape (2,)"),
    (_GENERAL_2X2 + "x 0 1.0\n", "line 4: expected C or a or b records, got 'x'"),
    ("covering 2 2 1.0 junk\nC 0 0 1.0\n",
     "line 1: covering header needs m n lambda: covering 2 2 1.0 junk"),
    ("# a comment\n\ngeneral 2\n", "line 3: general header needs m n: general 2"),
    ("positive 1 0 2\n", "line 1: a matrix must be at least 1x1: positive 1 0 2"),
    ("# only a comment\nsquare 1 1\n", "line 2: unknown instance kind 'square'"),
])
def test_parse_instance_names_the_bad_line(text, detail):
    # the first bad record in file order is named, comment lines counted
    with pytest.raises(ParseError, match=f"^{re.escape(detail)}$"):
        parse_instance(text)


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


# -- the loader against a per-entry set replay ---------------------------------

def _set_replay(kind, dims, records):
    """The parsed fields of a ``kind`` file with header ``dims`` and body
    ``records`` ((tag, indexes, value) in file order), built the way a file
    was read one line at a time: one ``set`` per entry record."""
    if kind == "positive":
        mp, mc, n = dims
        mats = {"P": SparseNonnegMatrix(mp, n), "C": SparseNonnegMatrix(mc, n)}
    else:
        m, n = dims[:2]
        mats = {"C" if kind != "packing" else "P": SparseNonnegMatrix(m, n)}
        vecs = {"a": np.zeros(n), "b": np.zeros(m)}
    for tag, index, value in records:
        if tag in mats:
            mats[tag].set(*index, value)
        else:
            vecs[tag][index[0]] = value
    out = dict(mats)
    if kind in ("covering", "packing"):
        out["lam"] = dims[2]
    elif kind == "positive":
        vals = [v for _, _, v in mats["P"].entries()] + [v for _, _, v in mats["C"].entries()]
        out["L"], out["U"] = (min(vals), max(vals)) if vals else (1.0, 1.0)
    else:
        vals = [v for _, _, v in mats["C"].entries()] + list(vecs["a"]) + list(vecs["b"])
        out.update(vecs, L=min(vals), U=max(vals))
    return out


@st.composite
def instance_texts(draw):
    """(kind, dims, records, text): a file of any kind whose records repeat
    indexes and set zeros, written with comments, blank lines, CRLF, CR or
    U+2028 line endings, tabs and repeated spaces."""
    kind = draw(st.sampled_from(["covering", "packing", "positive", "general"]))
    n = draw(st.integers(1, 3))
    if kind == "positive":
        dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), n)
        shapes = {"P": (dims[0], n), "C": (dims[1], n)}
    else:
        m = draw(st.integers(1, 3))
        dims = (m, n, draw(positive_finite)) if kind != "general" else (m, n)
        shapes = {"C" if kind != "packing" else "P": (m, n)}
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), positive_finite)
    records = draw(st.lists(st.sampled_from(sorted(shapes)).flatmap(
        lambda tag: st.tuples(st.just(tag), st.tuples(st.integers(0, shapes[tag][0] - 1),
                                                      st.integers(0, shapes[tag][1] - 1)),
                              value)), max_size=14))
    if kind == "general":
        # every a_j and b_i is set positive, some of them twice
        for tag, size in (("a", n), ("b", dims[0])):
            records += [(tag, (k,), draw(positive_finite)) for k in range(size)]
            records += [(tag, (k,), v) for k, v in draw(st.lists(
                st.tuples(st.integers(0, size - 1), positive_finite), max_size=3))]
        records = draw(st.permutations(records))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [""] * draw(st.integers(0, 1)) + ["# header next"] * draw(st.integers(0, 1))
    for tokens in [[kind, *map(repr, dims)]] + [[tag, *map(str, index), repr(v)]
                                                  for tag, index, v in records]:
        line = draw(st.sampled_from(["", " ", "\t"])) + tokens[0]
        for token in tokens[1:]:
            line += draw(gap) + token
        lines.append(line + draw(st.sampled_from(["", " ", "  # note", "\t#"])))
        lines += draw(st.lists(st.sampled_from(["", "  ", "# comment", " \t# x y z"]),
                               max_size=1))
    return kind, dims, records, draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"])).join(lines) + "\n"


def _assert_same_fields(got, want):
    for name in ("C", "P"):
        if name in want:
            mine, ref = getattr(got, name), want[name]
            for i in range(ref.m):
                assert [a.tobytes() for a in mine.row(i)] == [a.tobytes() for a in ref.row(i)]
            for j in range(ref.n):
                assert [a.tobytes() for a in mine.col(j)] == [a.tobytes() for a in ref.col(j)]
    for name in ("lam", "L", "U", "a", "b"):
        if name in want:
            assert np.asarray(getattr(got, name), dtype=float).tobytes() == \
                np.asarray(want[name], dtype=float).tobytes()


@given(instance_texts())
@settings(max_examples=200, deadline=None)
def test_loader_builds_what_a_set_replay_builds(drawn):
    kind, dims, records, text = drawn
    _assert_same_fields(parse_instance(text, eps=0.1), _set_replay(kind, dims, records))


@pytest.mark.parametrize("kind", ["covering", "positive", "general"])
def test_loader_matches_a_set_replay_over_a_long_file(kind):
    # 300 records in runs of one tag of every length, zeros and repeated
    # indexes among them
    rng = np.random.default_rng(11)
    dims = {"covering": (5, 4, 2.0), "positive": (3, 4, 5), "general": (5, 4)}[kind]
    shapes = {"covering": {"C": (5, 4)}, "positive": {"P": (3, 5), "C": (4, 5)},
              "general": {"C": (5, 4), "a": (4,), "b": (5,)}}[kind]
    tags = sorted(shapes)
    records = []
    while len(records) < 300:
        tag = tags[rng.integers(len(tags))]
        for _ in range(int(rng.integers(1, 90))):
            index = tuple(int(rng.integers(size)) for size in shapes[tag])
            value = float(rng.choice([0.0, 0.5, rng.uniform(0.1, 2.0)])) if len(index) == 2 \
                else float(rng.uniform(0.5, 2.0))
            records.append((tag, index, value))
    if kind == "general":
        records += [(tag, (k,), 1.0) for tag in "ab" for k in range(shapes[tag][0])]
    lines = [f"{kind} {' '.join(map(repr, dims))}"]
    for k, (tag, index, value) in enumerate(records):
        lines.append(f"{tag} {' '.join(map(str, index))} {value!r}" + ("  # x" if k % 7 == 0 else ""))
    text = "\r\n".join(lines) + "\r\n"
    _assert_same_fields(parse_instance(text, eps=0.1), _set_replay(kind, dims, records))


def test_loader_keeps_first_positions_and_stored_bounds():
    text = ("# comment\r\n\r\npositive 1 1 3\r\nP 0 2 .5\r\nP 0 0 .25\r\nP 0 2 .75\r\n"
            "P 0 1 .5\r\nP 0 1 0\r\nP 0 1 .125\r\nC 0 0 0.1\r\nC 0 0 1.0\r\n")
    inst = parse_instance(text, eps=1 / 200)
    cols, vals = inst.P.row(0)
    assert cols.tolist() == [2, 0, 1] and vals.tolist() == [.75, .25, .125]
    assert (inst.L, inst.U) == (.125, 1.0)  # C's overwritten 0.1 does not count
    general = parse_instance("general 1 1\nC 0 0 0.1\nC 0 0 1.0\na 0 1.0\nb 0 1.0\n")
    assert (general.L, general.U) == (1.0, 1.0)
