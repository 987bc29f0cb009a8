"""Command-line front door: parse instances, dispatch solvers, emit reports.

Exit codes: 0 on a clean run, 2 when --verify finds a certificate
violation or an optimality gap above its bound, 3 on parse errors,
paths that cannot be read or written, files that are not UTF-8, invalid
(non-monotone) update streams and flags the chosen command or setting
does not support, an eps the general reductions cannot use, and
``gen --kind packing --updates-out`` (no packing stream exists).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import generate
from .certificates import CertificateSlack, Outcome, OutcomeTag, check_certificate
from .formats import ParseError, emit_instance, emit_updates, parse_instance, parse_updates
from .greedy import solve_static_positive
from .instances import (
    GeneralInstance,
    NormalizedCoveringInstance,
    POSITIVE_EPS_CAP,
    PackingInstanceView,
    PositiveInstance,
    validate,
)
from .online import OnlineState
from .oracle import TooLarge, positive_feasible_exact, solve_covering_exact
from .packing import solve_packing_fast
from .reductions import (
    EpsOutOfRange,
    GeneralOnlineSolver,
    GuessLadderExhausted,
    solve_general_dynamic,
    solve_general_static,
    solve_general_stream,
)
from .sparse import NonMonotoneUpdate, SparseError, UpdateEvent, UpdateKind
from .streaming import StreamCursor, StreamMode, solve_stream
from .whack_dynamic import UpdateAfterTerminal, preprocess
from .whack_static import solve_basic, solve_fast

SCHEMA = 1


class UsageError(ValueError):
    """A flag the chosen command or setting does not support."""


def _digest(vec: np.ndarray | None) -> dict | None:
    if vec is None:
        return None
    return {"len": int(len(vec)), "sum": float(vec.sum()),
            "min": float(vec.min()) if len(vec) else 0.0,
            "max": float(vec.max()) if len(vec) else 0.0}


def _report(args, payload: dict) -> None:
    payload["schema"] = SCHEMA
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
    print(text)


def _load(path: str, eps: float):
    instance = parse_instance(Path(path).read_text(), eps=eps)
    errors = validate(instance)
    if errors:
        raise ParseError("; ".join(str(e) for e in errors))
    return instance


def _load_as(args, cls, kind: str):
    """The command's instance file, parsed, validated and of class ``cls``."""
    instance = _load(args.instance, args.eps)
    if not isinstance(instance, cls):
        raise ParseError(f"{args.command} expects a {kind} instance")
    return instance


def _verify(payload: dict, instance, outcome, slack) -> int:
    """Check the outcome's certificate into the payload; the exit code."""
    report = check_certificate(instance, outcome, slack)
    result = {"ok": bool(report.ok)}
    if not report.ok:
        result["violation"] = str(report.worst())
    payload["verify_result"] = result
    return 0 if report.ok else 2


def _verify_and_report(args, instance, outcome, payload: dict, slack) -> int:
    """The end of every covering-family command: with --verify, check the
    outcome under ``slack(eps)``; report the payload; return the exit code."""
    payload["outcome_tag"] = outcome.tag.value
    code = _verify(payload, instance, outcome, slack(instance.eps)) if args.verify else 0
    _report(args, payload)
    return code


#: command -> (instance class, kind, fast solver, slack); ``--basic`` runs
#: the T-round template, which takes either instance
_STATIC = {
    "solve": (NormalizedCoveringInstance, "covering", solve_fast,
              CertificateSlack.whack_static),
    "packing": (PackingInstanceView, "packing", solve_packing_fast,
                CertificateSlack.packing_template),
}


def cmd_static(args) -> int:
    cls, kind, fast, slack = _STATIC[args.command]
    instance = _load_as(args, cls, kind)
    if args.basic:
        outcome, seq = solve_basic(instance)
        stats = {"whacks": len(seq), "outcome": outcome.tag.value}
    else:
        outcome, st = fast(instance)
        stats = st.as_dict()
    payload = {"vector": _digest(outcome.vector), "stats": stats}
    return _verify_and_report(args, instance, outcome, payload, slack)


def cmd_dynamic(args) -> int:
    instance = _load_as(args, NormalizedCoveringInstance, "covering")
    updates = parse_updates(Path(args.updates).read_text())
    state, outcome = preprocess(instance)
    applied = 0
    frozen = 0
    for line in updates:
        if line.target != "C":
            raise ParseError("dynamic covering streams may only set C entries")
        event = UpdateEvent(UpdateKind.RESTRICT_COVERING_ENTRY, line.row, line.col, line.value)
        try:
            outcome = state.handle_update(event)
            applied += 1
        except UpdateAfterTerminal:
            frozen += 1
    payload = {"vector": _digest(outcome.vector),
               "stats": {**state.stats.as_dict(), "updates_applied": applied,
                         "updates_after_terminal": frozen}}
    return _verify_and_report(args, instance, outcome, payload, CertificateSlack.whack_dynamic)


def cmd_stream(args) -> int:
    instance = _load_as(args, NormalizedCoveringInstance, "covering")
    mode = StreamMode.FULL_DUAL if args.mode == "fulldual" else StreamMode.PRIMAL_ONLY
    cursor = StreamCursor.from_instance(instance, mode)
    outcome, stats = solve_stream(cursor, instance.eps)
    payload = {"vector": _digest(outcome.vector), "stats": stats.as_dict()}
    # a primal-only run that hits the budget returns null: vacuously ok
    return _verify_and_report(args, instance, outcome, payload, CertificateSlack.whack_static)


def cmd_online(args) -> int:
    instance = _load_as(args, NormalizedCoveringInstance, "covering")
    state = OnlineState(instance.n, instance.lam, instance.eps)
    lines = []
    for i in range(instance.m):
        cols, vals = instance.C.row(i)
        result = state.insert_row(cols, vals)
        if result.terminal is not None:
            lines.append({"row": i, "terminal": result.terminal.tag.value,
                          "recourse": state.recourse})
            break
        lines.append({"row": i, "sum": float(result.maintained.sum()),
                      "recourse": state.recourse})
    if result.terminal is not None:
        # the dual covers the rows seen; rows never read carry zero weight
        y = result.terminal.vector
        outcome = Outcome.packing_dual(np.concatenate([y, np.zeros(instance.m - len(y))]))
    else:
        outcome = Outcome.covering_primal(result.maintained)
    payload = {"steps": lines,
               "stats": {"recourse": state.recourse,
                         "phase_transitions": state.phase_transitions,
                         "recourse_bound": state.recourse_bound()}}
    # the maintained vector is x_hat/W, so the dynamic sum bound applies
    return _verify_and_report(args, instance, outcome, payload, CertificateSlack.whack_dynamic)


def cmd_positive(args) -> int:
    if not args.eps <= POSITIVE_EPS_CAP:
        raise UsageError(f"positive --eps must be at most 1/200 = {POSITIVE_EPS_CAP}, "
                         f"got {args.eps}")
    instance = _load_as(args, PositiveInstance, "positive")
    outcome, state = solve_static_positive(instance)
    if args.updates:
        for line in parse_updates(Path(args.updates).read_text()):
            outcome = state.apply(line)
    payload = {"outcome_tag": outcome.tag.value, "vector": _digest(outcome.vector),
               "stats": state.stats.as_dict(), "eps": instance.eps}
    code = 0
    if args.verify and outcome.tag is OutcomeTag.POSITIVE_SOLUTION:
        code = _verify(payload, instance, outcome, CertificateSlack.greedy_positive(instance.eps))
    elif args.verify:
        try:
            feasible, _ = positive_feasible_exact(instance.P, instance.C)
            res = {"ok": not feasible, "oracle_feasible": feasible}
        except TooLarge:
            res = {"ok": True, "oracle_feasible": None}
        payload["verify_result"] = res
        code = 0 if res["ok"] else 2
    _report(args, payload)
    return code


def cmd_general(args) -> int:
    if args.verify and args.setting != "static":
        raise UsageError(f"general --verify checks the static setting only, "
                         f"not --setting {args.setting}")
    if args.updates and args.setting != "dynamic":
        raise UsageError(f"general --updates applies to --setting dynamic only, "
                         f"not --setting {args.setting}")
    if args.verify and not args.eps < 0.25:
        # the gap bound 4 eps / (1 - 4 eps) holds below 1/4 only
        raise UsageError(f"general --verify needs --eps below 1/4, got {args.eps}")
    instance = _load_as(args, GeneralInstance, "general")
    eps = args.eps
    payload: dict = {"setting": args.setting}
    code = 0
    if args.setting == "static":
        sol = solve_general_static(instance, eps)
        payload.update({"objective": sol.objective, "dual_value": sol.dual_value,
                        "vector": _digest(sol.x), "probes": sol.probes,
                        "per_guess": sol.per_guess})
        if args.verify:
            res: dict = {}
            try:
                exact = solve_covering_exact(instance.C, instance.a, instance.b)
                if exact.status == "optimal":
                    opt = exact.value_float()
                    gap = abs(sol.objective - opt) / opt
                    bound = 4 * eps / (1 - 4 * eps)
                    res = {"ok": gap <= bound, "opt": opt, "opt_gap": gap, "bound": bound}
                else:
                    res = {"ok": True, "opt": exact.status}
            except TooLarge:
                res = {"ok": True, "opt": None}
            payload["verify_result"] = res
            code = 0 if res["ok"] else 2
    elif args.setting == "dynamic":
        updates = parse_updates(Path(args.updates).read_text()) if args.updates else []
        solver, history = solve_general_dynamic(instance, updates, eps)
        mu, x = history[-1]
        payload.update({"objective": float(instance.a @ x), "guess": mu,
                        "vector": _digest(x), "updates_seen": solver.updates_seen,
                        "updates_applied": solver.updates_applied})
    elif args.setting == "stream":
        result = solve_general_stream(instance, eps)
        payload.update({"objective": result.objective, "vector": _digest(result.x),
                        "physical_passes": result.physical_passes,
                        "passes_total": result.passes_total})
    else:  # online
        solver = GeneralOnlineSolver(instance.n, instance.a, instance.L, instance.U, eps)
        mu, x = 0.0, np.zeros(instance.n)
        for i in range(instance.m):
            cols, vals = instance.C.row(i)
            mu, x = solver.insert_constraint(cols, vals, float(instance.b[i]))
        payload.update({"objective": float(instance.a @ x), "guess": mu,
                        "vector": _digest(x), "recourse": solver.recourse_total()})
    _report(args, payload)
    return code


def cmd_gen(args) -> int:
    if args.kind == "packing" and args.updates_out:
        raise UsageError("gen --updates-out writes no packing stream: none exists")
    rng = np.random.default_rng(args.seed)
    density = args.density
    if density is None:
        density = 0.7 if args.kind == "positive" else 0.5
    stream = None
    # no file holds eps, so the generators that take one get a constant
    if args.kind == "covering":
        inst = generate.random_covering(rng, args.m, args.n, eps=0.1, density=density)
        if args.updates_out:
            stream = generate.restricting_stream(rng, inst, args.tau)
    elif args.kind == "packing":
        inst = generate.random_packing(rng, args.m, args.n, eps=0.1, density=density)
    elif args.kind == "positive":
        inst = generate.random_positive(rng, args.m, args.mc, args.n, density=density)
        if args.updates_out:
            stream = generate.relaxing_stream_positive(rng, inst, args.tau)
    else:  # general
        inst = generate.random_general(rng, args.m, args.n, density=density)
        if args.updates_out:
            stream = generate.general_restricting_stream(rng, inst, args.tau)
    Path(args.out).write_text(emit_instance(inst))
    if stream is not None:
        Path(args.updates_out).write_text(emit_updates(stream))
    print(f"wrote {args.out}" + (f" and {args.updates_out}" if args.updates_out else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pclp",
                                description="packing-covering LP solvers with certificates")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, updates=False, eps=0.1):
        sp.add_argument("instance")
        sp.add_argument("--eps", type=float, default=eps)
        sp.add_argument("--verify", action="store_true")
        sp.add_argument("--report", default=None)
        if updates:
            sp.add_argument("--updates", default=None)

    for command, help_text in (("solve", "static covering solve"),
                               ("packing", "static packing solve")):
        sp = sub.add_parser(command, help=help_text)
        common(sp)
        sp.add_argument("--basic", action="store_true", help="use the T-round template")
        sp.set_defaults(func=cmd_static)

    sp = sub.add_parser("dynamic", help="covering maintenance under restricting updates")
    common(sp, updates=True)
    sp.set_defaults(func=cmd_dynamic)

    sp = sub.add_parser("stream", help="multi-pass streaming covering solve")
    common(sp)
    sp.add_argument("--mode", choices=["fulldual", "primalonly"], default="fulldual")
    sp.set_defaults(func=cmd_stream)

    sp = sub.add_parser("online", help="row-arrival covering with recourse")
    common(sp)
    sp.set_defaults(func=cmd_online)

    sp = sub.add_parser("positive", help="mixed positive LP, optional relaxing replay")
    common(sp, updates=True, eps=POSITIVE_EPS_CAP)
    sp.set_defaults(func=cmd_positive)

    sp = sub.add_parser("general", help="general covering LP via guess reductions")
    common(sp, updates=True)
    sp.add_argument("--setting", choices=["static", "dynamic", "stream", "online"],
                    default="static")
    sp.set_defaults(func=cmd_general)

    sp = sub.add_parser("gen", help="generate random instances and update streams")
    sp.add_argument("--kind", choices=["covering", "packing", "positive", "general"],
                    required=True)
    sp.add_argument("--m", type=int, default=5)
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--mc", type=int, default=3, help="covering rows (positive kind)")
    sp.add_argument("--density", type=float, default=None,
                    help="chance of each entry (default 0.5; 0.7 for positive)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--tau", type=int, default=50)
    sp.add_argument("--out", required=True)
    sp.add_argument("--updates-out", default=None)
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, NonMonotoneUpdate, SparseError, GuessLadderExhausted,
            EpsOutOfRange, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
