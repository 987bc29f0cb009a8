"""Byte-identity pins: sha256 digests of seeded runs of every phase-scan setting.

Each digest covers the tag, the raw bytes of every vector, the stats'
``as_dict()`` and the setting's audit figure (``min_weight`` for packing,
``max_weight_ratio`` for the static covering scan) of a fixed set of runs.
The T-round template is pinned on its tags, vectors and whack sequences,
for covering and packing, with the default pick and a custom one.
The general-LP reductions are pinned on their static, streaming, dynamic
and online wrappers. The certificate check is pinned on the reports it gives
for the static covering and packing runs, and on every tag: greedy positive
solutions (as found, halved and doubled), dynamic covering vectors, and every
early exit. The text writers are pinned on the instances and update streams
they emit for every kind and target, and on the files ``pclp gen`` writes. A
change that moves any output bit of any run fails its digest; a change meant
to be byte-identical must leave every digest as it is.

``PYTHONPATH=src python tests/test_output_digests.py`` prints each setting's
current digest and the cases its runs reached.
"""
import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pclp.certificates import CertificateSlack, Outcome, OutcomeTag, check_certificate
from pclp.cli import main
from pclp.formats import emit_instance, emit_updates
from pclp.generate import (general_restricting_stream, random_covering, random_general,
                           random_packing, random_positive, relaxing_stream_positive,
                           restricting_stream)
from pclp.greedy import solve_static_positive
from pclp.instances import NormalizedCoveringInstance, PackingInstanceView
from pclp.online import OnlineState
from pclp.packing import _RESCALE_BELOW, solve_packing_fast
from pclp.reductions import (GeneralDynamicSolver, GeneralOnlineSolver, solve_general_static,
                             solve_general_stream)
from pclp.sparse import SparseNonnegMatrix, UpdateEvent, UpdateKind
from pclp.streaming import StreamCursor, StreamMode, solve_stream
from pclp.whack_dynamic import preprocess
from pclp.whack_static import solve_basic, solve_fast
from reference import diagonal_with_column


def _feed(h, *parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())


def _outcome(h, outcome) -> None:
    _feed(h, outcome.tag.value, outcome.vector)


def _packing_instances():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        lam = float(rng.choice([1.0, 2.0, 4.0]))
        lo = float(rng.choice([0.1, 0.3, 0.5]))
        yield random_packing(rng, m, n, eps=eps, lam=lam, density=0.7, lo_frac=lo)
    # a weight driven below the rescale point
    yield random_packing(np.random.default_rng(35), 3, 3, eps=0.005, lam=4.0,
                         density=0.7, lo_frac=0.5)
    # weights flushed to zero by one enforcement
    for seed in (0, 3, 4, 5):
        yield random_packing(np.random.default_rng(seed), 14, 29, eps=0.05, lam=20.0)
    # the draws above now certify a dual before their weights get that low; on
    # the row (0.5, lam, 4), whose first column admits no covering dual, one
    # enforcement drives a weight below the rescale point (lam = 1,000) or
    # flushes it (2,000); and a deep run (``diagonal_with_column``)
    for lam in (1000.0, 2000.0):
        yield PackingInstanceView(SparseNonnegMatrix.from_dense([[0.5, lam, 4.0]]), lam, 0.05)
    yield PackingInstanceView(diagonal_with_column(16, 19.2, 0.7), 19.2, 0.1)


def _covering_instances():
    rng = np.random.default_rng(2025)
    for k in range(24):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        lam = float(rng.choice([1.0, 3.0, 8.0]))
        yield random_covering(rng, m, n, eps=eps, lam=lam, density=0.6,
                              hot_column=0 if k % 3 == 0 else False)
    # weights that passed the rescale point long before the budget ran out,
    # until the tallies began to certify at the first phase break
    yield random_covering(np.random.default_rng(7), 1, 20, eps=0.003, density=0.05)
    # a deep run that no tallies stop (``diagonal_with_column``)
    yield NormalizedCoveringInstance(diagonal_with_column(12, 10.8, 1.3), 10.8, 0.1)


def digest_packing() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst in _packing_instances():
        outcome, stats = solve_packing_fast(inst)
        _outcome(h, outcome)
        _feed(h, stats.as_dict(), stats.min_weight)
        cases.add(outcome.tag.value)
        if stats.min_weight < _RESCALE_BELOW:
            cases.add("rescale")
        if stats.min_weight == math.exp(-745.0):
            cases.add("flush")
    return h.hexdigest(), cases


def _basic_runs():
    """(instance, pick) for the T-round template at both signs, each with the
    default pick and with one that takes the most violated row of C x or P x."""
    rng = np.random.default_rng(2034)
    for k in range(16):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        eps = float(rng.choice([0.1, 0.2]))
        lam = float(rng.choice([1.0, 2.0]))
        lo = float(rng.choice([0.1, 0.5]))
        cover = random_covering(rng, m, n, eps=eps, lam=lam, density=0.6, lo_frac=lo,
                                nonempty_rows=False, hot_column=0 if k % 2 else False)
        pack = random_packing(rng, m, n, eps=eps, lam=lam, density=0.6, lo_frac=lo)
        for pick in (None, lambda product, t: int(np.argmin(product))):
            yield cover, pick
        for pick in (None, lambda product, t: int(np.argmax(product))):
            yield pack, pick


def digest_basic() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst, pick in _basic_runs():
        outcome, sequence = solve_basic(inst, pick)
        _outcome(h, outcome)
        _feed(h, sequence)
        cases.add(outcome.tag.value)
    return h.hexdigest(), cases


def digest_fast() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst in _covering_instances():
        outcome, stats = solve_fast(inst, record_trace=True)
        _outcome(h, outcome)
        _feed(h, stats.as_dict(), stats.trace, stats.max_weight_ratio)
        cases.add(outcome.tag.value)
    return h.hexdigest(), cases


def _digest_stream(mode: StreamMode) -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst in _covering_instances():
        outcome, stats = solve_stream(StreamCursor.from_instance(inst, mode), inst.eps)
        _outcome(h, outcome)
        # peak_live_words is measured by walking the state: x_hat, the column
        # sums z, the tallies (one word for None) and 17 scalars. The digest
        # was captured when it was the formula n + 6 plus the tallies, so the
        # measured figure is pinned here and the digest is fed that formula.
        tallies = inst.m if mode is StreamMode.FULL_DUAL else 0
        assert stats.peak_live_words == 2 * inst.n + max(tallies, 1) + 17
        _feed(h, {**stats.as_dict(), "peak_live_words": inst.n + 6 + tallies})
        cases.add(outcome.tag.value)
    return h.hexdigest(), cases


def digest_stream_full() -> tuple[str, set[str]]:
    return _digest_stream(StreamMode.FULL_DUAL)


def digest_stream_primal() -> tuple[str, set[str]]:
    return _digest_stream(StreamMode.PRIMAL_ONLY)


def digest_online() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst in _covering_instances():
        state = OnlineState(inst.n, inst.lam, inst.eps)
        for _, cols, vals in inst.C.rows():
            result = state.insert_row(cols, vals)
            _feed(h, result.maintained)
            if result.terminal is not None:
                _outcome(h, result.terminal)
                cases.add(result.terminal.tag.value)
                break
        else:
            cases.add("maintained")
        _feed(h, state.stats.as_dict(), state.recourse)
    return h.hexdigest(), cases


def digest_dynamic() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    rng = np.random.default_rng(2026)
    for inst in _covering_instances():
        state, outcome = preprocess(inst)
        _outcome(h, outcome)
        for line in restricting_stream(rng, inst, 60):
            if state.terminal is not None:
                break
            event = UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, line.row, line.col,
                                line.value)
            _outcome(h, state.handle_update(event))
        _feed(h, state.stats.as_dict(), state.enforce_log)
        cases.add(state.current_outcome().tag.value)
    return h.hexdigest(), cases


def digest_general() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    rng = np.random.default_rng(2027)
    for _ in range(6):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        gen = random_general(rng, m, n, density=0.6)
        sol = solve_general_static(gen, 0.1)
        _feed(h, sol.x, sol.y, sol.objective, sol.dual_value, sol.primal_guess,
              sol.dual_guess, sol.probes, sorted(sol.per_guess.items()))
        res = solve_general_stream(gen, 0.1)
        _feed(h, res.x, res.objective, res.primal_guess, res.physical_passes,
              res.passes_total, sorted(res.per_guess_passes.items()))
        cases.update({"static", "stream"})
    return h.hexdigest(), cases


def digest_general_online() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    rng = np.random.default_rng(2028)
    for _ in range(6):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        gen = random_general(rng, m, n, density=0.6)
        solver = GeneralOnlineSolver(gen.n, gen.a, gen.L, gen.U, 0.1)
        for i, cols, vals in gen.C.rows():
            mu, x = solver.insert_constraint(cols, vals, float(gen.b[i]))
            _feed(h, mu, x)
        _feed(h, solver.recourse_total(), len(solver.states))
        if solver.recourse_total() > 0:
            cases.add("recourse")
        if any(state.terminal is not None for state in solver.states):
            cases.add("dual_guess")
    return h.hexdigest(), cases


def digest_general_dynamic() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    rng = np.random.default_rng(2029)
    for _ in range(4):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        gen = random_general(rng, m, n, density=0.6)
        lines = general_restricting_stream(rng, gen, 25)
        solver = GeneralDynamicSolver(gen, 0.1)
        start = solver.hi
        _feed(h, *solver.current())
        for line in lines:
            mu, x = solver.apply(line)
            _feed(h, line.target, mu, x)
            cases.add(line.target)
        _feed(h, solver.updates_seen, solver.updates_applied, solver.hi)
        if solver.updates_applied < solver.updates_seen:
            cases.add("absorbed")
        if solver.hi > start:
            cases.add("moved")
    return h.hexdigest(), cases


#: zero bounds and an infinitely negative tolerance: every inequality the
#: check tests is reported, with its left-hand side, bit for bit, as the residual
_EVERY_RESIDUAL = CertificateSlack(primal_sum_max=0.0, cover_min=0.0, dual_sum_min=0.0,
                                   dual_sum_max=0.0, pack_max=0.0, abs_tol=-math.inf)


def _report(h, report) -> None:
    _feed(h, report.ok, [(v.kind, v.index) for v in report.violations],
          np.array([v.residual for v in report.violations], dtype=float))


def digest_certificates() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    runs = [(inst, solve_fast(inst)[0], CertificateSlack.whack_static(inst.eps))
            for inst in _covering_instances()]
    runs += [(inst, solve_packing_fast(inst)[0], CertificateSlack.packing_template(inst.eps))
             for inst in _packing_instances()]
    for inst, outcome, slack in runs:
        _report(h, check_certificate(inst, outcome, slack))
        _report(h, check_certificate(inst, outcome, _EVERY_RESIDUAL))
        cases.add(outcome.tag.value)
    return h.hexdigest(), cases


_PRESETS = (CertificateSlack.whack_static, CertificateSlack.whack_dynamic,
            CertificateSlack.packing_template, CertificateSlack.greedy_positive)


def _tag_runs():
    """(instance, outcome, preset slacks) for every tag the check handles."""
    rng = np.random.default_rng(2030)
    for k in range(24):
        m_p, m_c, n = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
        inst = random_positive(rng, m_p, m_c, n, eps=(1 / 200, 1 / 1000, 1 / 2000)[k % 3])
        outcome, _ = solve_static_positive(inst)
        slacks = (CertificateSlack.greedy_positive(inst.eps),)
        if outcome.vector is None:
            yield inst, outcome, slacks
            continue
        # halved, the covering rows fall short; doubled, the packing rows overflow
        for scale in (1.0, 0.5, 2.0):
            yield inst, Outcome(outcome.tag, scale * outcome.vector), slacks
    for inst in _covering_instances():
        # the dynamic setting's relaxed sum bound, on the maintained vector x_hat/W
        # and on that vector pushed inside and past the band of 1 + eps
        _, outcome = preprocess(inst)
        for scale in (1.0, 1.0 + inst.eps / 2, 1.0 + 2.0 * inst.eps):
            yield (inst, Outcome(outcome.tag, scale * outcome.vector),
                   (CertificateSlack.whack_dynamic(inst.eps),))
    # a negative coordinate and every early exit, for every tag
    cover = random_covering(np.random.default_rng(2031), 3, 4, eps=0.1)
    pack = random_packing(np.random.default_rng(2032), 3, 4, eps=0.1)
    mixed = random_positive(np.random.default_rng(2033), 2, 3, 4)
    presets = tuple(preset(0.1) for preset in _PRESETS)
    for tag, inst, length in ((OutcomeTag.COVERING_PRIMAL, cover, 4),
                              (OutcomeTag.PACKING_DUAL, cover, 3),
                              (OutcomeTag.PACKING_PRIMAL, pack, 4),
                              (OutcomeTag.COVERING_DUAL, pack, 3),
                              (OutcomeTag.POSITIVE_SOLUTION, mixed, 4)):
        good = np.full(length, 1.0 / length)
        bad = [np.where(np.arange(length) == 0, -0.25, good),
               None, np.array([]), good[:-1], np.append(good, 0.0),
               np.where(np.arange(length) == 1, np.nan, good),
               np.where(np.arange(length) == 2, -np.inf, good), np.array([0.5, np.inf])]
        for vec in bad:
            yield inst, Outcome(tag, vec), presets
    for tag in (OutcomeTag.INFEASIBLE, OutcomeTag.NULL):
        for vec in (None, np.zeros(4), np.array([np.nan])):
            yield cover, Outcome(tag, vec), presets


def digest_certificate_tags() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    for inst, outcome, slacks in _tag_runs():
        for slack in slacks:
            report = check_certificate(inst, outcome, slack)
            _report(h, report)
            cases.add(outcome.tag.value)
            cases.update(v.kind for v in report.violations)
        _report(h, check_certificate(inst, outcome, _EVERY_RESIDUAL))
    return h.hexdigest(), cases


def _gen_files() -> list[tuple[str, bytes]]:
    """(kind, bytes) of every file ``pclp gen`` writes for each kind at its
    default flags, with an update stream for each kind that has one."""
    files = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for kind in ("covering", "packing", "positive", "general"):
            out = Path(tmp, kind)
            argv = ["gen", "--kind", kind, "--seed", "7", "--out", str(out)]
            if kind != "packing":
                argv += ["--updates-out", f"{out}.ups"]
            assert main(argv) == 0
            files += [(kind, path.read_bytes()) for path in sorted(Path(tmp).glob(f"{kind}*"))]
    return files


def digest_formats() -> tuple[str, set[str]]:
    h = hashlib.sha256()
    cases = set()
    rng = np.random.default_rng(2035)
    for _ in range(12):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        lam = float(rng.choice([1.0, 2.5, 8.0]))
        cover = random_covering(rng, m, n, eps=eps, lam=lam, density=0.6)
        pack = random_packing(rng, m, n, eps=eps, lam=lam, density=0.6)
        mixed = random_positive(rng, int(rng.integers(1, 4)), m, n)
        gen = random_general(rng, m, n, density=0.6)
        for kind, inst in (("covering", cover), ("packing", pack), ("positive", mixed),
                           ("general", gen)):
            _feed(h, emit_instance(inst))
            cases.add(kind)
        for stream in (restricting_stream(rng, cover, 15),
                       relaxing_stream_positive(rng, mixed, 15),
                       general_restricting_stream(rng, gen, 15)):
            _feed(h, emit_updates(stream))
            cases.update(f"set {line.target}" for line in stream)
    _feed(h, emit_updates([]))
    cases.add("empty")
    for kind, data in _gen_files():
        h.update(data)
        cases.add(f"gen {kind}")
    return h.hexdigest(), cases


# per setting: the runs, their digest captured before any refactor of the
# code they run, and the cases the runs must reach for the digest to pin them.
# Every digest but "basic" and "formats" hashes runs that stop where their
# tallies certify, and was re-captured when that rule came in.
DIGESTS = {
    "basic": (digest_basic,
              "b2ce0d4eda4264d1b0549a4b56daed24aae349c3253199d30db98551dcebe028",
              {"covering_primal", "packing_dual", "packing_primal", "covering_dual"}),
    "packing": (digest_packing,
                "8f05d4065fca6b666b10d15c5277299effbb02aa58805bfa26f6095fbe45146a",
                {"packing_primal", "covering_dual", "rescale", "flush"}),
    "formats": (digest_formats,
                "def68d3d5606dea67acfcb804a5becc92bb80923d3aae8452272b199f382f7c3",
                {"covering", "packing", "positive", "general", "set C", "set P", "set a",
                 "set b", "empty", "gen covering", "gen packing", "gen positive",
                 "gen general"}),
    "fast": (digest_fast,
             "024f998c444c5e371755148762b4748a1a94bd5eccf21185ce83605ac5bb2740",
             {"covering_primal", "packing_dual"}),
    "stream_full": (digest_stream_full,
                    "c63f5f097e90abb2ca241dde8a77deb70837e13b4ac90b623d48dff4ff57438f",
                    {"covering_primal", "packing_dual"}),
    "stream_primal": (digest_stream_primal,
                      "6b8e4a23e6ccfb92e67b880462bb9c29b168a726a44a4ee63bdab64e77733147",
                      {"covering_primal", "null"}),
    "online": (digest_online,
               "168a0ab6803327386719cbd47e78c279e39d34c66f16abf4fdb86e4d7423cda9",
               {"maintained", "packing_dual"}),
    "dynamic": (digest_dynamic,
                "229d829241a487b843efa83b58d81202332964a946990e842ba4408d7694229b",
                {"covering_primal", "packing_dual"}),
    "general": (digest_general,
                "522ecfc66c54c6ebc08b51752702822fb41fc69730f37cda7aa4d67b18a5674b",
                {"static", "stream"}),
    "general_online": (digest_general_online,
                       "9caef8bbc4c1fc67977e4c33d74caffdfb6c5ddb3767a0cd05e3805ce9f78be3",
                       {"recourse", "dual_guess"}),
    "general_dynamic": (digest_general_dynamic,
                        "1dd1b55c59855911d689585883b290156bc48b7be94a3349ec768e801a316d9f",
                        {"C", "a", "b", "absorbed", "moved"}),
    "certificates": (digest_certificates,
                     "7df33695caafdbc460f4b621598ae43c7e16d88029837eb121be44833a5e1403",
                     {"covering_primal", "packing_dual", "packing_primal", "covering_dual"}),
    "certificate_tags": (digest_certificate_tags,
                         "7dd482f0d5fb5ea81f8700ff72550e00d188ca8ec393dd116d1018107e992a51",
                         {tag.value for tag in OutcomeTag}
                         | {"RowAbovePack", "RowBelowCover", "SumAboveBound", "NegativeCoordinate",
                            "VectorOnNullOutcome", "MissingVector", "NonFinite", "BadLength"}),
}


@pytest.mark.parametrize("setting", sorted(DIGESTS))
def test_outputs_match_their_digest(setting):
    run, want, cases = DIGESTS[setting]
    got, reached = run()
    assert reached >= cases, f"the runs miss {cases - reached}"
    assert got == want


if __name__ == "__main__":
    # a refactor meant to be byte-identical captures its parent's digests here
    for setting, (run, _, _) in sorted(DIGESTS.items()):
        got, reached = run()
        print(f"{setting} {got} {' '.join(sorted(reached))}")
