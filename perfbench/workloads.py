"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed, writes them in pclp's
text format, and then runs a fixed number of rounds. A round is one
operation (``standard_form``, ``general_lp``, ``mixed_positive``) or one
replay of the update stream (``dynamic_updates``). Every operation does the
same kind of work from fresh or unmutated state, and its outputs are checked
by ``checks`` against the benchmark's own copy of the data, outside the
timed region.

Solvers are called through their modules (``whack_static.solve_fast``, not
an imported name) so that the traced run's wrappers see every call.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import gen
from pclp import certificates, formats, greedy, instances, packing, reductions, streaming, \
    whack_dynamic, whack_static
from pclp.certificates import CertificateSlack
from pclp.instances import PositiveInstance
from pclp.online import OnlineState
from pclp.oracle import positive_feasible_exact
from pclp.sparse import UpdateEvent, UpdateKind

EPS = 0.1          # the CLI's default accuracy for the covering family
EPS_POS = 1 / 200  # the largest accuracy the greedy solver accepts
BASE_SEED = 2207   # base instances are drawn once from this constant
JITTER = 0.005     # the run's seed moves every value by at most this share


def load(path: Path, eps: float):
    """Read, parse and validate one instance file, as the CLI does."""
    inst = formats.parse_instance(path.read_text(), eps=eps)
    errors = instances.validate(inst)
    if errors:
        raise ValueError("; ".join(str(e) for e in errors))
    return inst


def entries(mat) -> list[tuple[int, int, float]]:
    return sorted(mat.entries())


def same_entries(parsed, own: gen.Matrix) -> bool:
    """True when the parsed matrix holds exactly the generator's arrays."""
    return entries(parsed) == list(zip(own.rows.tolist(), own.cols.tolist(), own.vals.tolist()))


def base_rng(index: int) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, index])


class Copy(NamedTuple):
    """One dynamic copy: the benchmark's own instance and stream, where they
    were written, the stream as parsed, and the dense matrix the checks use."""
    own: gen.StandardForm
    path: Path
    stream: list[tuple[int, int, float]]
    events: list[UpdateEvent]
    dense: np.ndarray


class Workload:
    name = ""
    round_s = 1.0    # a round's wall time on a slow host; fixes the round count per --seconds
    min_rounds = 40  # op_ms.tail needs ten samples beyond it
    setups = 25      # set-up repetitions per run; setup_s is their median

    def __init__(self, seconds: float):
        self.rounds = max(self.min_rounds, round(seconds / self.round_s))

    def run(self, h) -> None:
        loaded = h.setup(self.setup)
        h.run_check(self.roundtrip(loaded))
        for r in range(self.rounds):
            inputs = self.fresh(loaded)
            with h.round():
                h.op(lambda: self.op(inputs, h), self.check)
            h.calibrate()
            self.more_setups(h, r, self.setups - 1)

    def fresh(self, loaded):
        """One operation's inputs, made outside the timed region."""
        return loaded

    def more_setups(self, h, r: int, extra: int) -> None:
        """The set-ups repeated after round ``r``: ``extra`` in all, spread
        evenly over the run, so that setup_s samples the host over the whole
        run as the operations do, not in one burst."""
        for _ in range((r + 1) * extra // self.rounds - r * extra // self.rounds):
            h.setup(self.setup)


# -- standard_form -----------------------------------------------------------------

class StandardForm(Workload):
    """Three standard-form files, loaded once; one operation solves each in
    every setting the CLI offers for its kind."""

    name = "standard_form"
    round_s = 0.30

    # (file, kind, n, k, planted game value): just above the covering
    # threshold (enforcement dominates), far below it (phase restarts
    # dominate), just inside the packing threshold
    SPECS = [("cover_hi", "covering", 150, 8, 0.98),
             ("cover_lo", "covering", 30, 5, 0.5),
             ("pack", "packing", 200, 8, 1.02)]

    def __init__(self, rng: np.random.Generator, where: Path, seconds: float):
        super().__init__(seconds)
        self.own = {}
        self.paths = {}
        for index, (name, kind, n, k, value) in enumerate(self.SPECS):
            base = gen.planted_game(base_rng(index), kind, n, k, value)
            sf = gen.jittered(rng, base, JITTER)
            self.own[name] = sf
            self.paths[name] = where / f"{name}.txt"
            self.paths[name].write_text(sf.text())
        self.dense = {name: sf.mat.dense() for name, sf in self.own.items()}

    def setup(self):
        return {name: load(path, EPS) for name, path in self.paths.items()}

    def roundtrip(self, insts) -> list[str]:
        return [f"{name}: parsed entries differ from the generated ones"
                for name, inst in insts.items()
                if not same_entries(inst.C if hasattr(inst, "C") else inst.P, self.own[name].mat)
                or inst.lam != self.own[name].lam]

    def op(self, insts, h):
        out = {}
        for name in ("cover_hi", "cover_lo"):
            inst = insts[name]
            fast, fast_stats = whack_static.solve_fast(inst)
            report = certificates.check_certificate(inst, fast, CertificateSlack.whack_static(EPS))
            cursor = streaming.StreamCursor.from_instance(inst, streaming.StreamMode.FULL_DUAL)
            stream, stream_stats = streaming.solve_stream(cursor, EPS)
            with h.span("online.solve"):
                online = OnlineState(inst.n, inst.lam, EPS)
                seen, result = 0, None
                for i in range(inst.m):
                    cols, vals = inst.C.row(i)
                    result = online.insert_row(cols, vals)
                    seen += 1
                    if result.terminal is not None:
                        break
            out[name] = (fast, fast_stats, report, stream, stream_stats, online, seen, result)
        out["pack"] = packing.solve_packing_fast(insts["pack"])
        return out

    def check(self, out, h) -> list[str]:
        bad = []
        signature = []
        for name in ("cover_hi", "cover_lo"):
            A = self.dense[name]
            fast, fast_stats, report, stream, stream_stats, online, seen, result = out[name]
            if not report.ok:
                bad.append(f"{name}: check_certificate rejected solve_fast: {report.worst()}")
            bad += [f"{name} solve_fast: {p}" for p in
                    checks.standard_outcome(A, fast.tag.value, fast.vector, EPS)]
            bad += [f"{name} solve_stream: {p}" for p in
                    checks.standard_outcome(A, stream.tag.value, stream.vector, EPS)]
            if stream_stats.passes != fast_stats.phases:
                bad.append(f"{name}: {stream_stats.passes} stream passes != "
                           f"{fast_stats.phases} static phases")
            if result.terminal is not None:
                bad += [f"{name} online: {p}" for p in
                        checks.packing_dual(A[:seen], result.terminal.vector, EPS)]
            else:
                bad += [f"{name} online: {p}" for p in
                        checks.covering_primal(A, result.maintained, EPS, 1.0 + EPS)]
            if online.recourse != A.shape[1] * online.phase_transitions:
                bad.append(f"{name}: online recourse {online.recourse} != n x "
                           f"{online.phase_transitions} phase transitions")
            h.add("whack_static.phases", fast_stats.phases)
            h.add("whack_static.enforcements", fast_stats.enforcements)
            h.add("whack_static.whacks", fast_stats.whacks)
            h.add("streaming.passes", stream_stats.passes)
            h.add("online.phase_transitions", online.phase_transitions)
            h.add("online.recourse", online.recourse)
            signature += [fast.tag, fast_stats.as_dict(), stream_stats.as_dict(),
                          online.recourse, seen]
        pack, pack_stats = out["pack"]
        bad += [f"pack: {p}" for p in
                checks.standard_outcome(self.dense["pack"], pack.tag.value, pack.vector, EPS)]
        h.add("packing.phases", pack_stats.phases)
        h.add("packing.enforcements", pack_stats.enforcements)
        signature += [pack.tag, pack_stats.as_dict()]
        return bad + h.repeatable(signature)


# -- dynamic_updates -----------------------------------------------------------------

class DynamicUpdates(Workload):
    """Jittered copies of one covering instance well above its threshold,
    each with one fixed restricting stream; every replay starts from a fresh
    set-up of one copy and runs its stream until the dual freezes.

    Most of a replay's time goes to the few phase-rebuild cascades just
    before the freeze. Which entries the stream moves, and by which factors,
    comes from the base seed, so every copy and every seed runs the same
    cascades. How their work splits between the last few updates does turn
    on the jitter, though (the largest update of a replay takes 44-88 ms on
    a fast host while the replay's total stays within 4%), so a run replays
    several copies in turn, and its op_ms.tail does not hang on how one
    copy splits.
    """

    name = "dynamic_updates"
    # a replay is short (a 16x16 instance), so that a run holds some 138 of
    # the freeze cascades that set op_ms.tail: the 11th largest update then
    # sits near their 92nd percentile, inside the host's slow spells, rather
    # than on how much of the run those spells took
    round_s = 0.22
    min_rounds = 1          # a replay holds some 200 operations
    SPEC = (3, 16, 4, 3.0)  # (base index, n, k, planted game value)
    COPIES = 69             # jittered copies per run, replayed in turn; odd, so that
                            # the traced run's every second round meets each of them
    STREAM = 500            # updates in the stream; it freezes the dual well before its end
    CADENCE = 250           # full certificate check every this many updates

    def __init__(self, rng: np.random.Generator, where: Path, seconds: float):
        super().__init__(seconds)
        # whole turns over the copies, so that each is replayed equally often
        self.rounds = self.COPIES * max(1, round(self.rounds / self.COPIES))
        index, n, k, value = self.SPEC
        base = gen.planted_game(base_rng(index), "covering", n, k, value)
        self.copies = [self.write_copy(gen.jittered(rng, base, JITTER), where / f"dynamic{c}",
                                       np.random.default_rng([BASE_SEED, index, 1]))
                       for c in range(self.COPIES)]

    def write_copy(self, own: gen.StandardForm, stem: Path, choices: np.random.Generator):
        """Write one copy and its stream; keep the benchmark's own data."""
        path = stem.with_suffix(".txt")
        path.write_text(own.text())
        stream = gen.restricting_stream(choices, own.mat, self.STREAM)
        updates = stem.with_name(stem.name + "_updates.txt")
        updates.write_text(gen.updates_text(stream))
        events = [UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, s.row, s.col, s.value)
                  for s in formats.parse_updates(updates.read_text())]
        return Copy(own, path, stream, events, own.mat.dense())

    def setup(self, c: int = 0):
        inst = load(self.copies[c].path, EPS)
        state, outcome = whack_dynamic.preprocess(inst)
        return c, inst, state, outcome

    def roundtrip(self, loaded) -> list[str]:
        c, inst = loaded[:2]
        copy = self.copies[c]
        problems = [] if same_entries(inst.C, copy.own.mat) else [f"copy {c}: parsed entries differ"]
        parsed = [(e.row, e.col, e.new_value) for e in copy.events]
        return problems + ([] if parsed == copy.stream else [f"copy {c}: stream parsed differently"])

    def run(self, h) -> None:
        for c in range(self.COPIES):
            h.run_check(self.roundtrip(h.setup(lambda c=c: self.setup(c))))
        for r in range(self.rounds):
            with h.round():
                self.replay(h, r % self.COPIES)

    def replay(self, h, c: int) -> None:
        _, inst, state, outcome = h.setup(lambda: self.setup(c))
        if outcome.tag.value != "covering_primal":
            h.run_check([f"copy {c}: preprocess did not start a covering primal"])
            return
        A = self.copies[c].dense.copy()
        before = state.stats.as_dict()
        out = None
        for count, event in enumerate(self.copies[c].events, start=1):
            A[event.row, event.col] = event.new_value

            def check(out, h, i=event.row, full=count % self.CADENCE == 0):
                if out.tag.value == "packing_dual":
                    return checks.packing_dual(A, out.vector, EPS)
                if out.tag.value != "covering_primal":
                    return [f"unexpected tag {out.tag.value}"]
                rows = slice(None) if full else slice(i, i + 1)
                return checks.covering_primal(A, out.vector, EPS, 1.0 + EPS, rows)

            out = h.op(lambda ev=event: state.handle_update(ev), check)
            if count % 500 == 0:
                h.calibrate()
            if out is None or state.terminal is not None:
                break
        if state.terminal is None:
            h.run_check([f"copy {c}: the stream ended before the dual froze"])
        after = state.stats.as_dict()
        for key in ("column_touches", "enforcements", "phases"):
            h.add(f"whack_dynamic.{key}", after[key] - before[key])
        h.run_check(h.repeatable([count, after], key=c))
        h.calibrate()


# -- general_lp ---------------------------------------------------------------------

class GeneralLP(Workload):
    """One general LP with a planted optimum, loaded once; one operation runs
    it through the static, streaming and online reductions."""

    name = "general_lp"
    round_s = 0.26
    SPEC = (4, 6, 3)  # (base index, n, k)

    def __init__(self, rng: np.random.Generator, where: Path, seconds: float):
        super().__init__(seconds)
        index, n, k = self.SPEC
        self.own = gen.jittered_general(rng, gen.general(base_rng(index), n, k, EPS), JITTER)
        self.path = where / "general.txt"
        self.path.write_text(self.own.text())
        self.C = self.own.C.dense()

    def setup(self):
        return load(self.path, EPS)

    def roundtrip(self, lp) -> list[str]:
        ok = (same_entries(lp.C, self.own.C) and lp.a.tolist() == self.own.a.tolist()
              and lp.b.tolist() == self.own.b.tolist())
        return [] if ok else ["parsed general LP differs from the generated one"]

    def op(self, lp, h):
        static = reductions.solve_general_static(lp, EPS)
        stream = reductions.solve_general_stream(lp, EPS)
        with h.span("reductions.online"):
            online = reductions.GeneralOnlineSolver(lp.n, lp.a, lp.L, lp.U, EPS)
            for i in range(lp.m):
                cols, vals = lp.C.row(i)
                mu, x = online.insert_constraint(cols, vals, float(lp.b[i]))
        return static, stream, online, x

    def check(self, out, h) -> list[str]:
        static, stream, online, x_online = out
        C, a, b, opt = self.C, self.own.a, self.own.b, self.own.opt
        bad = checks.general_bracket(C, a, b, static.x, static.y, EPS)
        # a guess that answers dual proves OPT >= guess / (1 + 4 eps), so the
        # first primal guess is within (1 + eps)(1 + 4 eps) of OPT; online
        # adds the (1 + eps) sum slack of its maintained vector
        for what, x, top in (("static", static.x, (1 + EPS) * (1 + 4 * EPS)),
                             ("stream", stream.x, (1 + EPS) * (1 + 4 * EPS)),
                             ("online", x_online, (1 + EPS) ** 2 * (1 + 4 * EPS))):
            if what != "static":
                bad += [f"{what}: {p}" for p in checks.general_primal(C, b, x, EPS)]
            value = float(a @ x)
            if not (1 - EPS) * opt - checks.TOL <= value <= top * opt + checks.TOL:
                bad.append(f"{what}: objective {value:.6g} outside the bracket of OPT {opt:.6g}")
        transitions = sum(s.phase_transitions for s in online.states)
        if online.recourse_total() != online.n * transitions:
            bad.append(f"online recourse {online.recourse_total()} != n x {transitions}")
        h.add("reductions.probes", static.probes)
        h.add("reductions.stream_physical_passes", stream.physical_passes)
        h.add("reductions.online_recourse", online.recourse_total())
        return bad + h.repeatable([static.probes, static.per_guess, stream.physical_passes,
                                   stream.passes_total, online.recourse_total()])


# -- mixed_positive ---------------------------------------------------------------------

class MixedPositive(Workload):
    """Three small positive instances and one relaxing stream, loaded once;
    one operation runs two static solves and one relaxing replay on fresh
    copies."""

    name = "mixed_positive"
    round_s = 0.26
    # (file, base seed, m_p, m_c, n, k, stream length); the base seeds pick
    # the regimes: "jumps" is feasible and spends its time in certified
    # jumps (~750 jumps, 24 single boosts), "singles" is infeasible and
    # spends it in single boosts (~2,500 singles, ~60 jumps), "relax"
    # starts infeasible and turns feasible after 22 events
    SPECS = [("jumps", 6, 2, 2, 2, 2, 0),
             ("singles", 24, 3, 3, 3, 2, 0),
             ("relax", 39, 2, 2, 2, 2, 40)]

    def __init__(self, rng: np.random.Generator, where: Path, seconds: float):
        super().__init__(seconds)
        self.own, self.paths = {}, {}
        for name, base, m_p, m_c, n, k, stream in self.SPECS:
            pos = gen.positive(rng, base, m_p, m_c, n, k, JITTER, stream)
            self.own[name] = pos
            self.paths[name] = where / f"{name}.txt"
            self.paths[name].write_text(pos.text())
        updates = where / "relax_updates.txt"
        updates.write_text(self.own["relax"].stream_text())
        self.updates = formats.parse_updates(updates.read_text())
        self.prefixes = self.relaxed_prefixes(self.own["relax"])
        self.oracle: dict[tuple[str, int], bool] = {}

    @staticmethod
    def relaxed_prefixes(pos: gen.Positive):
        """The benchmark's own (P, C, rhs_p, rhs_c) after each stream prefix."""
        P, C = pos.P.dense(), pos.C.dense()
        rhs_p, rhs_c = np.ones(P.shape[0]), np.ones(C.shape[0])
        out = [(P.copy(), C.copy(), rhs_p.copy(), rhs_c.copy())]
        for ev in pos.stream:
            if ev[0] == "P":
                P[ev[1], ev[2]] = ev[3]
            elif ev[0] == "C":
                C[ev[1], ev[2]] = ev[3]
            elif ev[0] == "a":
                rhs_p[ev[1]] = ev[2]
            else:
                rhs_c[ev[1]] = ev[2]
            out.append((P.copy(), C.copy(), rhs_p.copy(), rhs_c.copy()))
        return out

    def feasible(self, name: str, prefix: int) -> bool:
        """Exact verdict on P x <= (1 + 2 eps) rhs_p, C x >= rhs_c; cached,
        so each is computed once per run."""
        key = (name, prefix)
        if key not in self.oracle:
            if name == "relax":
                P, C, rhs_p, rhs_c = self.prefixes[prefix]
            else:
                P, C = self.own[name].P.dense(), self.own[name].C.dense()
                rhs_p, rhs_c = np.ones(P.shape[0]), np.ones(C.shape[0])
            self.oracle[key], _ = positive_feasible_exact(P / rhs_p[:, None], C / rhs_c[:, None],
                                                          2 * EPS_POS)
        return self.oracle[key]

    def setup(self):
        return {name: load(path, EPS_POS) for name, path in self.paths.items()}

    def roundtrip(self, insts) -> list[str]:
        problems = [f"{name}: parsed entries differ from the generated ones"
                    for name, inst in insts.items()
                    if not (same_entries(inst.P, self.own[name].P)
                            and same_entries(inst.C, self.own[name].C))]
        parsed = [(u.target, u.row, u.col, u.value) if u.target in ("P", "C") else
                  (u.target, u.col if u.target == "a" else u.row, u.value) for u in self.updates]
        return problems + ([] if parsed == self.own["relax"].stream
                           else ["relaxing stream parsed differently"])

    def fresh(self, insts):
        return {name: PositiveInstance(P=inst.P.copy(), C=inst.C.copy(), L=inst.L, U=inst.U,
                                       eps=inst.eps)
                for name, inst in insts.items()}

    def op(self, fresh, h):
        out = {}
        slack = CertificateSlack.greedy_positive(EPS_POS)
        with h.span("greedy.static"):
            for name in ("jumps", "singles"):
                outcome, state = greedy.solve_static_positive(fresh[name])
                report = (certificates.check_certificate(fresh[name], outcome, slack)
                          if outcome.tag.value == "positive_solution" else None)
                out[name] = (outcome, state, report, [outcome.tag.value])
        with h.span("greedy.relax"):
            outcome, state = greedy.solve_static_positive(fresh["relax"])
            verdicts = [outcome.tag.value]
            for line in self.updates:
                if outcome.tag.value == "positive_solution":
                    break
                if line.target == "P":
                    outcome = state.relax_packing_entry(line.row, line.col, line.value)
                elif line.target == "C":
                    outcome = state.relax_covering_entry(line.row, line.col, line.value)
                elif line.target == "a":
                    outcome = state.translate_packing_rhs(line.col, line.value)
                else:
                    outcome = state.translate_covering_rhs(line.row, line.value)
                verdicts.append(outcome.tag.value)
            report = (certificates.check_certificate(fresh["relax"], outcome, slack)
                      if outcome.tag.value == "positive_solution" else None)
            out["relax"] = (outcome, state, report, verdicts)
        return out

    def check(self, out, h) -> list[str]:
        bad, signature = [], []
        for name, (outcome, state, report, verdicts) in out.items():
            for prefix, verdict in enumerate(verdicts):
                if verdict == "infeasible" and self.feasible(name, prefix):
                    bad.append(f"{name}: infeasible after {prefix} events, "
                               "but the exact oracle finds a point within 2 eps")
            if outcome.tag.value == "positive_solution":
                if not report.ok:
                    bad.append(f"{name}: check_certificate rejected: {report.worst()}")
                P, C, rhs_p, rhs_c = (self.prefixes[len(verdicts) - 1] if name == "relax" else
                                      (self.own[name].P.dense(), self.own[name].C.dense(),
                                       np.ones(self.own[name].P.m), np.ones(self.own[name].C.m)))
                bad += [f"{name}: {p}" for p in
                        checks.positive_solution(P, C, rhs_p, rhs_c, outcome.vector, EPS_POS)]
            stats = state.stats
            h.add("greedy.boosts", stats.boosts_total)
            h.add("greedy.phases", stats.phases)
            h.add("greedy.weight_refreshes", stats.weight_refreshes)
            h.add("greedy.wstar_refreshes", stats.wstar_refreshes)
            h.add("greedy.heap_readjusts", stats.heap_readjusts)
            h.add("greedy.translations_applied", stats.translations_applied)
            signature += [verdicts, stats.as_dict(), stats.wstar_refreshes]
        return bad + h.repeatable(signature)


WORKLOADS = {w.name: w for w in (StandardForm, DynamicUpdates, GeneralLP, MixedPositive)}


def build(name: str, seed: int, where: Path, seconds: float) -> Workload:
    """The named workload, its inputs drawn from ``seed`` and written to ``where``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, where, seconds)
