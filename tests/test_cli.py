import json

import numpy as np
import pytest

from pclp.cli import main
from pclp.formats import emit_instance, emit_updates, parse_instance
from pclp.generate import random_covering, restricting_stream


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_unit_instance(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", "covering 1 1 1.0\nC 0 0 1.0\n")
    code = main(["solve", path, "--eps", "0.1", "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome_tag"] == "covering_primal"
    assert payload["verify_result"]["ok"]
    assert payload["schema"] == 1


def test_solve_report_written(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", "covering 1 1 1.0\nC 0 0 0.4\n")
    report = tmp_path / "report.json"
    code = main(["solve", path, "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["outcome_tag"] == "packing_dual"
    assert payload["stats"]["whacks"] == payload["stats"]["whacks"]


def test_basic_template_flag(tmp_path, capsys):
    inst = write(tmp_path, "inst.txt", "covering 1 1 1.0\nC 0 0 0.4\n")
    assert main(["solve", inst, "--basic", "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome_tag"] == "packing_dual"
    pk = write(tmp_path, "p.txt", "packing 1 2 1.0\nP 0 0 1.0\nP 0 1 1.0\n")
    assert main(["packing", pk, "--basic", "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome_tag"] == "packing_primal"


def test_parse_error_exits_3(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "covering 1\n")
    assert main(["solve", path]) == 3


def test_non_finite_instance_exits_3(tmp_path, capsys):
    # a NaN entry used to verify as ok, an infinite lambda to overflow
    nan_entry = write(tmp_path, "nan.txt", "covering 2 2 2.0\nC 0 0 1.0\nC 1 1 nan\n")
    inf_lam = write(tmp_path, "inf.txt", "covering 2 2 inf\nC 0 0 1.0\nC 1 1 1.0\n")
    for path, detail in ((nan_entry, "C[1,1]=nan"), (inf_lam, "lam=inf")):
        assert main(["solve", path, "--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"NonFinite: {detail}" in captured.err


@pytest.mark.parametrize("command, kind", [("solve", "covering"), ("packing", "packing")])
def test_non_positive_lambda_exits_3(tmp_path, capsys, command, kind):
    # packing used to accept lambda <= 0 and solve it
    path = write(tmp_path, "neg.txt", f"{kind} 1 2 -1\n")
    assert main([command, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "EntryAboveLambda: lambda=-1.0 <= 0" in captured.err


def test_dynamic_non_monotone_stream_exits_3(tmp_path):
    inst = write(tmp_path, "inst.txt", "covering 1 1 1.0\nC 0 0 1.0\n")
    ups = write(tmp_path, "ups.txt", "set C 0 0 2.0\n")
    assert main(["dynamic", inst, "--updates", ups]) == 3


def test_dynamic_replay(tmp_path, capsys):
    inst = write(tmp_path, "inst.txt", "covering 1 1 1.0\nC 0 0 1.0\n")
    ups = write(tmp_path, "ups.txt", "set C 0 0 0.9\nset C 0 0 0.5\n")
    code = main(["dynamic", inst, "--updates", ups, "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verify_result"]["ok"]


def test_stream_and_online_commands(tmp_path, capsys):
    inst = write(tmp_path, "inst.txt", "covering 2 2 1.0\nC 0 0 1.0\nC 1 1 1.0\n")
    assert main(["stream", inst, "--mode", "primalonly"]) == 0
    capsys.readouterr()
    assert main(["online", inst]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "recourse" in payload["stats"]


def test_stream_and_online_verify(tmp_path, capsys):
    primal = write(tmp_path, "primal.txt", "covering 2 2 1.0\nC 0 0 1.0\nC 0 1 1.0\nC 1 1 1.0\n")
    dual = write(tmp_path, "dual.txt", "covering 2 2 1.0\nC 0 0 0.4\nC 1 1 0.4\n")
    for inst, tag in ((primal, "covering_primal"), (dual, "packing_dual")):
        for argv in (["stream", inst], ["stream", inst, "--mode", "primalonly"],
                     ["online", inst]):
            assert main(argv + ["--verify"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["verify_result"]["ok"]
            if argv[-1] != "primalonly":
                assert payload["outcome_tag"] == tag


def test_overflow_instance_verifies_in_every_setting(tmp_path, capsys):
    # at eps = 0.003 the weights pass 1e300 long before the budget runs out,
    # so every setting must rescale its shared exponent to finish
    inst = write(tmp_path, "ovf.txt", "covering 1 20 1.0\nC 0 0 0.9\n")
    payloads = {}
    for command in ("solve", "stream", "online"):
        assert main([command, inst, "--eps", "0.003", "--verify"]) == 0
        payloads[command] = json.loads(capsys.readouterr().out)
        assert payloads[command]["outcome_tag"] == "packing_dual"
        assert payloads[command]["verify_result"]["ok"]
    assert payloads["stream"]["vector"] == payloads["solve"]["vector"]
    assert payloads["stream"]["stats"]["passes"] == payloads["solve"]["stats"]["phases"]


def test_stream_and_online_verify_catch_tampering(tmp_path, capsys, monkeypatch):
    import pclp.cli
    from pclp.certificates import Outcome
    from pclp.online import OnlineState

    inst = write(tmp_path, "inst.txt", "covering 2 2 1.0\nC 0 0 1.0\nC 0 1 1.0\nC 1 1 1.0\n")
    solve_stream = pclp.cli.solve_stream

    def halved_stream(cursor, eps):
        outcome, stats = solve_stream(cursor, eps)
        return Outcome.covering_primal(outcome.vector * 0.5), stats

    monkeypatch.setattr(pclp.cli, "solve_stream", halved_stream)
    monkeypatch.setattr(OnlineState, "maintained_vector", lambda state: 0.5 * state.x_hat / state.W)
    for command in ("stream", "online"):
        assert main([command, inst, "--verify"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert not payload["verify_result"]["ok"]
        assert "RowBelowCover" in payload["verify_result"]["violation"]


def test_positive_command_with_updates(tmp_path, capsys):
    inst = write(tmp_path, "p.txt", "positive 1 1 1\nP 0 0 1.0\nC 0 0 0.4\n")
    ups = write(tmp_path, "u.txt", "set C 0 0 1.2\n")
    code = main(["positive", inst, "--eps", "0.005", "--updates", ups, "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome_tag"] == "positive_solution"


def test_positive_entry_updates_after_translation_use_instance_units(tmp_path, capsys):
    # after a translation the stored row is rescaled; a later entry update
    # still names the instance's value (1.0 -> 0.8 and 0.25 -> 0.3 relax)
    inst = write(tmp_path, "p.txt",
                 "positive 1 1 2\nP 0 0 1.0\nP 0 1 1.0\nC 0 0 0.25\nC 0 1 0.25\n")
    for name, stream in (("pack.u", "set a 0 2.0\nset P 0 0 0.8\n"),
                         ("cover.u", "set b 0 0.5\nset C 0 0 0.3\n")):
        ups = write(tmp_path, name, stream)
        assert main(["positive", inst, "--updates", ups, "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify_result"]["ok"]
        assert payload["stats"]["translations_applied"] == 1


def test_positive_translation_after_solved_rescales_the_live_row(tmp_path, capsys):
    # after the solved verdict, 0.5 is written and the translation rescales
    # it to 0.25 (0.5 in instance units), so raising it to 0.8 is rejected
    inst = write(tmp_path, "p.txt",
                 "positive 1 1 2\nP 0 0 1.0\nP 0 1 1.0\nC 0 0 1.0\nC 0 1 1.0\n")
    ups = write(tmp_path, "u.txt", "set P 0 0 0.5\nset a 0 2.0\nset P 0 0 0.8\n")
    assert main(["positive", inst, "--updates", ups, "--verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "P[0,0] must decrease" in captured.err


def test_positive_relax_that_flushes_every_covering_weight(tmp_path, capsys):
    # set C 0 0 moves S_c far enough in one step that every covering
    # mantissa underflows to 0; the next boost's rescale must rebuild the
    # covering side from S_c instead of dividing by the largest mantissa.
    # The translation applies (1/0.89 > 1 + eps), so --verify checks the
    # verdict on the instance with every update in force.
    inst = write(tmp_path, "p.txt",
                 "positive 1 2 2\nP 0 1 1.9568430662801588\nC 0 0 1.4458668362534146\n"
                 "C 1 1 0.7729302844602052\n")
    ups = write(tmp_path, "u.txt",
                "set P 0 1 1.236237276145283\nset C 0 1 0.20004493514680838\n"
                "set b 0 0.8915513146242682\nset P 0 1 0.8912765509958722\n"
                "set C 0 0 2.875894524389669\nset C 1 0 0.5055576695349485\n")
    assert main(["positive", inst, "--eps", "0.001", "--updates", ups, "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["translations_applied"] == 1
    assert payload["verify_result"]["ok"]


# payload of `positive --updates` on the `gen --kind positive --seed 3` files
# (5x3x5, 50 relaxing events); a change to the greedy's storage must leave it
GOLDEN_POSITIVE_REPLAY = {
    "outcome_tag": "positive_solution",
    "vector": {"len": 5, "sum": 0.7859199034618171,
               "min": 0.0842208556884484, "max": 0.2229429666831455},
    "stats": {"boosts": 276296, "phases": 103, "heap_readjusts": 0,
              "weight_refreshes": 55806, "wstar_refreshes": 513,
              "translations_applied": 11, "jump_attempts": 4577, "jumps": 2554,
              "jump_boosts": 258160, "outcome": "positive_solution"},
}


def test_golden_positive_replay(tmp_path, capsys):
    out, ups = tmp_path / "p.txt", tmp_path / "p.ups"
    assert main(["gen", "--kind", "positive", "--seed", "3", "--out", str(out),
                 "--updates-out", str(ups)]) == 0
    capsys.readouterr()
    assert main(["positive", str(out), "--updates", str(ups)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload[key] for key in GOLDEN_POSITIVE_REPLAY} == GOLDEN_POSITIVE_REPLAY


def test_positive_eps_is_capped_at_one_two_hundredth(tmp_path, capsys):
    inst = write(tmp_path, "p.txt", "positive 1 1 1\nP 0 0 1.0\nC 0 0 0.4\n")
    assert main(["positive", inst, "--eps", "0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eps must be at most 1/200" in captured.err
    for argv, eps in (([], 1 / 200), (["--eps", "0.004"], 0.004)):
        assert main(["positive", inst, *argv]) == 0
        assert json.loads(capsys.readouterr().out)["eps"] == eps


def test_general_verify_gap(tmp_path, capsys):
    text = ("general 2 2\nC 0 0 1.0\nC 0 1 2.0\nC 1 0 2.0\nC 1 1 1.0\n"
            "a 0 1.0\na 1 1.0\nb 0 1.0\nb 1 1.0\n")
    inst = write(tmp_path, "g.txt", text)
    code = main(["general", inst, "--eps", "0.05", "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verify_result"]["ok"]
    assert payload["verify_result"]["opt_gap"] <= payload["verify_result"]["bound"]


def test_general_other_settings(tmp_path, capsys):
    text = ("general 2 2\nC 0 0 1.0\nC 0 1 2.0\nC 1 0 2.0\nC 1 1 1.0\n"
            "a 0 1.0\na 1 1.0\nb 0 1.0\nb 1 1.0\n")
    inst = write(tmp_path, "g.txt", text)
    ups = write(tmp_path, "g.ups", "set b 0 1.4\nset C 1 0 1.2\n")
    assert main(["general", inst, "--eps", "0.1", "--setting", "dynamic",
                 "--updates", ups]) == 0
    dyn = json.loads(capsys.readouterr().out)
    assert dyn["updates_seen"] == 2
    assert main(["general", inst, "--eps", "0.1", "--setting", "stream"]) == 0
    stm = json.loads(capsys.readouterr().out)
    assert stm["physical_passes"] >= 1
    assert main(["general", inst, "--eps", "0.1", "--setting", "online"]) == 0
    onl = json.loads(capsys.readouterr().out)
    assert onl["recourse"] >= 0 and onl["objective"] > 0


@pytest.mark.parametrize("setting", ["dynamic", "stream", "online"])
def test_general_verify_rejected_outside_static(tmp_path, capsys, setting):
    text = ("general 2 2\nC 0 0 1.0\nC 0 1 2.0\nC 1 0 2.0\nC 1 1 1.0\n"
            "a 0 1.0\na 1 1.0\nb 0 1.0\nb 1 1.0\n")
    inst = write(tmp_path, "g.txt", text)
    assert main(["general", inst, "--setting", setting, "--verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--setting {setting}" in captured.err


@pytest.mark.parametrize("setting", ["static", "stream", "online"])
def test_general_updates_rejected_outside_dynamic(tmp_path, capsys, setting):
    text = ("general 2 2\nC 0 0 1.0\nC 0 1 2.0\nC 1 0 2.0\nC 1 1 1.0\n"
            "a 0 1.0\na 1 1.0\nb 0 1.0\nb 1 1.0\n")
    inst = write(tmp_path, "g.txt", text)
    missing = str(tmp_path / "nonexistent.txt")
    assert main(["general", inst, "--setting", setting, "--updates", missing]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--setting {setting}" in captured.err


@pytest.mark.parametrize("setting", ["static", "dynamic", "stream", "online"])
def test_general_empty_row_exits_3(tmp_path, capsys, setting):
    # row 1 has no entry, so C x >= b cannot hold: every setting used to end
    # in a traceback (the guess grid never answering primal, or an overflow)
    inst = write(tmp_path, "g.txt", "general 2 1\nC 0 0 1.0\na 0 1.0\nb 0 1.0\nb 1 1.0\n")
    assert main(["general", inst, "--setting", setting]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "EmptyRow: C row 1 has no entry" in captured.err


def test_general_update_emptying_a_row_exits_3(tmp_path, capsys):
    inst = write(tmp_path, "g.txt", "general 1 1\nC 0 0 1.0\na 0 1.0\nb 0 1.0\n")
    ups = write(tmp_path, "g.ups", "set C 0 0 0.0\n")
    assert main(["general", inst, "--setting", "dynamic", "--updates", ups]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empties row 0" in captured.err


_UPDATE_COMMANDS = {
    "dynamic": ("covering 2 2 1.0\nC 0 0 1.0\nC 1 1 1.0\n", ["dynamic"]),
    "positive": ("positive 1 1 2\nP 0 0 1.0\nP 0 1 1.0\nC 0 0 1.0\nC 0 1 1.0\n", ["positive"]),
    "general": ("general 2 2\nC 0 0 1.0\nC 0 1 2.0\nC 1 1 1.5\na 0 1.0\na 1 2.0\n"
                "b 0 1.0\nb 1 1.0\n", ["general", "--setting", "dynamic"]),
}


def _exits_3(tmp_path, capsys, command, stream):
    text, argv = _UPDATE_COMMANDS[command]
    inst = write(tmp_path, "inst.txt", text)
    ups = write(tmp_path, "ups.txt", stream)
    assert main([*argv, inst, "--updates", ups]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("command", sorted(_UPDATE_COMMANDS))
@pytest.mark.parametrize("line", ["set C x 0 1.0", "set C 0 0 1.0.5"])
def test_update_with_bad_number_exits_3(tmp_path, capsys, command, line):
    # a non-integer index or a non-numeric value used to end in a ValueError
    err = _exits_3(tmp_path, capsys, command, f"set C 0 0 0.5\n{line}\n")
    assert err.startswith("error: line 2: set C needs integer indexes and a number")


@pytest.mark.parametrize("command, line", [("general", "set a 0 inf"), ("general", "set b 1 nan"),
                                           ("positive", "set a 0 inf"), ("dynamic", "set C 0 0 -inf")])
def test_update_with_non_finite_value_exits_3(tmp_path, capsys, command, line):
    # general --setting dynamic used to die in an OverflowError on `set a 0 inf`
    err = _exits_3(tmp_path, capsys, command, f"{line}\n")
    assert err.startswith(f"error: line 1: set {line.split()[1]} value is not finite")


@pytest.mark.parametrize("line, detail", [("set a 5 1.5", "a[5] outside shape (2,)"),
                                          ("set b 9 1.5", "b[9] outside shape (2,)"),
                                          ("set a -1 1.5", "a[-1] outside shape (2,)"),
                                          ("set C 0 -1 0.5", "C[0,-1] outside shape (2, 2)")])
def test_general_update_index_outside_exits_3(tmp_path, capsys, line, detail):
    # an index past the end used to die in an IndexError, and a negative one
    # wrapped to the last coordinate
    err = _exits_3(tmp_path, capsys, "general", f"{line}\n")
    assert err == f"error: set {line.split()[1]}: {detail}\n"


@pytest.mark.parametrize("line, detail", [("set a 5 2.0", "a[5] outside shape (1,)"),
                                          ("set b 3 2.0", "b[3] outside shape (1,)"),
                                          ("set a -1 2.0", "a[-1] outside shape (1,)")])
def test_positive_update_index_outside_exits_3(tmp_path, capsys, line, detail):
    # an index past the end used to die in an IndexError, and a negative one
    # reported a C entry the stream never named
    inst = write(tmp_path, "p.txt",
                 "positive 1 1 2\nP 0 0 1.0\nP 0 1 1.0\nC 0 0 1.0\nC 0 1 1.0\n")
    ups = write(tmp_path, "u.txt", f"{line}\n")
    assert main(["positive", inst, "--updates", ups]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: set {line.split()[1]}: {detail}\n"


_FROZEN = "covering 2 2 1.0\nC 0 0 1.0\nC 1 1 1.0\n"  # the dual freezes at preprocessing
_LIVE = "covering 2 2 1.0\nC 0 0 1.0\nC 0 1 1.0\nC 1 0 1.0\nC 1 1 1.0\n"


@pytest.mark.parametrize("text", [_FROZEN, _LIVE], ids=["frozen", "live"])
@pytest.mark.parametrize("line, detail", [("set C 0 5 0.5", "(0,5) outside 2x2"),
                                          ("set C -1 0 0.5", "(-1,0) outside 2x2"),
                                          ("set C 0 0 1.5", "1.5 is not below stored 1.0")])
def test_dynamic_impossible_update_exits_3_frozen_or_not(tmp_path, capsys, text, line, detail):
    # a frozen dual used to count any update as after terminal and exit 0
    inst = write(tmp_path, "c.txt", text)
    ups = write(tmp_path, "u.txt", f"set C 1 1 0.99\n{line}\n")
    assert main(["dynamic", inst, "--updates", ups]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert detail in captured.err


def test_dynamic_legal_update_after_freezing_is_counted(tmp_path, capsys):
    inst = write(tmp_path, "c.txt", _FROZEN)
    ups = write(tmp_path, "u.txt", "set C 0 0 0.5\nset C 1 0 0.0\n")
    assert main(["dynamic", inst, "--updates", ups, "--verify"]) == 3  # (1,0) is 0 already
    capsys.readouterr()
    ups = write(tmp_path, "u.txt", "set C 0 0 0.5\nset C 1 1 0.0\n")
    assert main(["dynamic", inst, "--updates", ups, "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["updates_after_terminal"] == 2
    assert payload["stats"]["updates_applied"] == 0
    assert payload["verify_result"]["ok"]


@pytest.mark.parametrize("kind", ["covering", "general"])
def test_bad_instance_record_exits_3_naming_its_line(tmp_path, capsys, kind):
    text = {"covering": "covering 2 2 1.0\n# entries\nC 0 0 1.0\nC 5 1 0.5\n",
            "general": "general 2 2\nC 0 0 1.0\nC 1 1 1.0\na 0 1.0\na -1 2.0\n"}[kind]
    inst = write(tmp_path, "inst.txt", text)
    assert main([{"covering": "solve", "general": "general"}[kind], inst]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {4 if kind == 'covering' else 5}: ")


@pytest.mark.parametrize("line", ["set b 0 0", "set b 0 -1", "set a 0 -1"])
def test_positive_non_positive_rhs_exits_3(tmp_path, capsys, line):
    # `set b 0 0` used to end in a ZeroDivisionError, `set b 0 -1` to be accepted
    err = _exits_3(tmp_path, capsys, "positive", f"{line}\n")
    assert "rhs 0 must be positive" in err


def test_gen_same_seed_byte_identical(tmp_path):
    a1 = tmp_path / "a1.txt"
    a2 = tmp_path / "a2.txt"
    for out in (a1, a2):
        assert main(["gen", "--kind", "covering", "--m", "4", "--n", "4",
                     "--seed", "9", "--out", str(out),
                     "--updates-out", str(out) + ".ups", "--tau", "20"]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    assert (tmp_path / "a1.txt.ups").read_bytes() == (tmp_path / "a2.txt.ups").read_bytes()


def test_gen_streams_are_monotone(tmp_path):
    out = tmp_path / "c.txt"
    ups = tmp_path / "c.ups"
    main(["gen", "--kind", "covering", "--m", "5", "--n", "5", "--seed", "3",
          "--out", str(out), "--updates-out", str(ups), "--tau", "40"])
    inst = parse_instance(out.read_text())
    live = {(i, j): v for i, j, v in inst.C.entries()}
    from pclp.formats import parse_updates
    for line in parse_updates(ups.read_text()):
        assert line.value < live[(line.row, line.col)]
        live[(line.row, line.col)] = line.value


def test_gen_general_updates_end_once_saturated(tmp_path, capsys):
    # the 2x2 seed-1 stream saturates at the bounds [0.5, 2] before the
    # default tau of 50, and the written updates replay through the solver
    out = tmp_path / "g.txt"
    ups = tmp_path / "g.ups"
    assert main(["gen", "--kind", "general", "--m", "2", "--n", "2", "--seed", "1",
                 "--out", str(out), "--updates-out", str(ups)]) == 0
    from pclp.formats import parse_updates
    lines = parse_updates(ups.read_text())
    assert 0 < len(lines) < 50
    assert all(0.5 <= line.value <= 2.0 for line in lines)
    capsys.readouterr()
    assert main(["general", str(out), "--setting", "dynamic", "--updates", str(ups)]) == 0
    assert json.loads(capsys.readouterr().out)["updates_seen"] == len(lines)


def test_roundtrip_parse_emit_generated(rng, tmp_path):
    inst = random_covering(rng, 6, 5, eps=0.1)
    text = emit_instance(inst)
    again = emit_instance(parse_instance(text))
    assert text == again
