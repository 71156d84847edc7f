import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from laminath import cli


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = buf, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, buf.getvalue(), err.getvalue()


def test_convergents_json():
    code, out, _ = run_cli(["--emit", "json", "convergents",
                            "--theta", "cf:[1;2]p", "--k", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["convergents"][-1] == {"k": 4, "p": 41, "q": 29}


def test_simple_word_text():
    code, out, _ = run_cli(["simple-word", "--slope", "5/3", "--start", "1"])
    assert code == 0
    assert "(2,2,1)@ba" in out


def test_word_round_trip_revalidates():
    code, out, _ = run_cli(["--emit", "json", "inadmissible",
                            "--theta", "cf:[1;2]p", "--k", "3"])
    doc = json.loads(out)
    from laminath.words import BlockWord
    w = BlockWord.parse(doc["serialized"])
    assert w.letters() == doc["letters"]
    assert list(w.blocks) == doc["blocks"]


def test_segment_and_measure_round_trip(tmp_path):
    code, out, _ = run_cli(["--emit", "json", "segment",
                            "--theta", "cf:[1;2]p", "--k", "2"])
    doc = json.loads(out)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(doc["path"]))
    code2, out2, _ = run_cli(["--emit", "json", "measure",
                              "--theta", "cf:[1;2]p",
                              "--path", str(path_file)])
    assert code2 == 0
    assert json.loads(out2)["measure"] == doc["measure"]


def test_admissible_block_query():
    code, out, _ = run_cli(["--emit", "json", "admissible",
                            "--theta", "cf:[1;2]p",
                            "--word", "(1,1,2,1,1)@ba", "--depth", "12"])
    doc = json.loads(out)
    assert doc["verdict"] == "inadmissible" and doc["aligned"]
    code2, out2, _ = run_cli(["--emit", "json", "admissible",
                              "--theta", "cf:[1;2]p", "--word", "babba"])
    assert json.loads(out2)["verdict"] == "admissible"


def test_admissible_sampling_respects_alignment():
    code, out, _ = run_cli(["--emit", "json", "--seed", "3", "admissible",
                            "--theta", "cf:[1;2]p",
                            "--word", "(1,1,2,1,1)@ba",
                            "--sample-letters", "20000"])
    doc = json.loads(out)
    assert doc["verdict"] == "inadmissible"
    assert doc["sampling"]["absent"]


def test_exotic_emits_ledger():
    code, out, _ = run_cli(["--emit", "json", "exotic", "--theta", "cf:[1;2]p",
                            "--indices", "2,4", "--prefix-blocks", "8"])
    doc = json.loads(out)
    assert doc["kept"] == [2, 4]
    assert len(doc["blocks"]) == 8
    assert len(doc["stages"]) == 2


def test_unknown_subcommand_exits_2():
    code, out, err = run_cli(["no-such-command"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "invalid-input"


# usage errors leave as one JSON line (invalid-input, exit 2), whether argparse
# or a handler catches them; --help still exits 0
@pytest.mark.parametrize("argv", [
    ["convergents"],
    ["nosuch"],
    ["ts"],
    ["ts", "loop"],
    ["factors"],
    ["--emit", "json", "factors", "--m", "3"],
    ["convergents", "--theta", "cf:[1;2]p", "--bogus"],
    ["ts", "return-map", "--surface", "slit-tori", "--edge", "5", "--tau", "2"],
])
def test_usage_error_is_one_json_line(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "invalid-input"


# the subcommand slot is named as the usage line shows it, not by the
# parser's internal destination
@pytest.mark.parametrize("argv, detail", [
    (["ts"], "the following arguments are required: COMMAND"),
    ([], "the following arguments are required: COMMAND"),
    (["nosuch"], "COMMAND: invalid choice: 'nosuch' (choose from 'convergents', "),
    (["ts", "nosuch"], "COMMAND: invalid choice: 'nosuch' (choose from 'validate', "),
])
def test_usage_error_names_the_subcommand_slot(argv, detail):
    code, out, err = run_cli(argv)
    doc = json.loads(err)
    assert code == 2 and out == "" and doc["error"] == "invalid-input"
    assert doc["detail"].startswith(detail) and "command" not in doc["detail"]


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["ts", "loop", "--help"])
    assert exc.value.code == 0


def test_missing_theta_exits_2():
    code, _, err = run_cli(["--emit", "json", "factors", "--m", "3"])
    assert code == 2


def test_bad_numeric_arguments_exit_2():
    code, _, err = run_cli(["inadmissible", "--theta", "cf:[1;2]p", "--k", "-5"])
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"
    code2, _, _ = run_cli(["measure", "--theta", "cf:[1;2]p",
                           "--path", "/nonexistent/p.json"])
    assert code2 == 2


@pytest.mark.parametrize("argv, option", [
    (["growth", "--theta", "cf:[1;2]p", "--direction", "1/0"], "--direction"),
    (["exotic", "--theta", "cf:[1;2]p", "--indices", "2,4", "--prefix-blocks", "-1"],
     "--prefix-blocks"),
    (["convergents", "--theta", "cf:[1;2]p", "--k", "-3"], "--k"),
    (["factors", "--theta", "cf:[1;2]p", "--m", "-1"], "--m"),
    (["ts", "loop", "--surface", "slit-tori", "--edge", "5", "--k", "-1"], "--k"),
    (["ts", "exotic", "--surface", "slit-tori", "--edge", "5", "--levels", "1,-2"],
     "--levels"),
    (["ts", "exotic", "--surface", "slit-tori", "--edge", "5", "--prefix", "-3"],
     "--prefix"),
    (["ts", "return-map", "--surface", "slit-tori", "--tau", "1/3", "--n", "-5"], "--n"),
    (["cut", "--theta", "cf:[1;2]p", "--start", "1/3", "--letters", "-3"], "--letters"),
    (["growth", "--theta", "cf:[1;2]p", "--samples", "-2"], "--samples"),
    (["growth", "--theta", "cf:[1;2]p", "--mode", "prescribed", "--segments", "-1"],
     "--segments"),
    (["ts", "partition", "--surface", "slit-tori", "--n", "-1"], "--n"),
    (["admissible", "--theta", "cf:[1;2]p", "--word", "ab", "--sample-letters", "-5"],
     "--sample-letters"),
    (["ts", "loop", "--surface", "slit-tori", "--edge", "5", "--budget", "-5"], "--budget"),
    (["admissible", "--theta", "cf:[1;2]p", "--word", "abab", "--depth", "-1"], "--depth"),
    (["factors", "--theta", "cf:[1;2]p", "--depth", "-3"], "--depth"),
    (["convergents", "--theta", "cf:[1;2]p", "--k", "abc"], "--k"),
    (["ts", "partition", "--surface", "slit-tori", "--edge", "x"], "--edge"),
])
def test_bad_option_is_named(argv, option):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "invalid-input"
    assert doc["detail"].startswith(option + " ") or doc["detail"].startswith(option + ":")


@pytest.mark.parametrize("argv, error, detail", [
    (["exotic", "--theta", "cf:[1;2]p", "--indices", "4,2"],
     "parity-mismatch", "indices must be strictly increasing"),
    (["ts", "exotic", "--surface", "sheared-torus", "--edge", "1", "--levels", "2,2"],
     "invalid-input", "level 2 does not exceed the level 2 before it"),
    (["ts", "exotic", "--surface", "sheared-torus", "--edge", "1", "--levels", "4,3,2",
      "--thin"], "invalid-input", "level 3 does not exceed the level 4 before it"),
])
def test_exotic_levels_must_increase(argv, error, detail):
    # a tail bound holds only for increasing levels, on either side
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == json.dumps({"detail": detail, "error": error}, sort_keys=True) + "\n"


@pytest.mark.parametrize("edge", ["-1", "6"])
def test_edge_out_of_range_exits_2(edge):
    # a negative index once wrapped around to the last pair and then traced
    # backward separatrices for the whole step budget
    code, out, err = run_cli(["ts", "return-map", "--surface", "slit-tori",
                              "--edge", edge])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-surface"


def test_ts_loop_budget_defaults_to_the_library_rule(monkeypatch):
    # without --budget the library picks the loop budget, as for ts exotic
    from laminath import tsurface
    seen = []
    build = tsurface.build_inadmissible_loop

    def spy(surface, trans, k, return_budget):
        seen.append(return_budget)
        return build(surface, trans, k, return_budget)

    monkeypatch.setattr(tsurface, "build_inadmissible_loop", spy)
    code, _, _ = run_cli(["ts", "loop", "--surface", "slit-tori", "--edge", "5", "--k", "2"])
    assert (code, seen) == (0, [None])


def test_ts_loop_budget_exit_3():
    code, _, err = run_cli(["ts", "loop", "--surface", "slit-tori",
                            "--k", "40", "--budget", "500"])
    assert code == 3
    assert json.loads(err)["error"] == "budget-exhausted"


def test_cylinder_exit_3(tmp_path):
    doc = json.dumps({
        "field": None,
        "polygons": [[["0", "0"], ["1", "1/3"], ["1", "4/3"], ["0", "1"]]],
        "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    })
    f = tmp_path / "surf.json"
    f.write_text(doc)
    code, _, err = run_cli(["ts", "partition", "--surface", str(f), "--n", "4"])
    assert code == 3
    assert json.loads(err)["error"] == "cylinder-decomposition-detected"


def test_singular_cut_exit_2():
    code, _, err = run_cli(["--emit", "json", "cut", "--theta", "5/3",
                            "--start", "1/3", "--letters", "8"])
    assert code == 2
    assert json.loads(err)["error"] == "singular-hit"


def test_growth_csv():
    code, out, _ = run_cli(["--emit", "csv", "growth", "--theta", "cf:[1;2]p",
                            "--mode", "linear", "--direction", "0",
                            "--t-max", "4", "--samples", "4"])
    assert out == "t,I\n1,1*sqrt2\n2,2*sqrt2\n3,3*sqrt2\n4,4*sqrt2\n"
    code, out, _ = run_cli(["--emit", "csv", "growth", "--theta", "cf:[1;2]p",
                            "--samples", "0"])
    assert code == 0 and out == "t,I\n"


def test_determinism_byte_identical():
    argv_sets = [
        ["--emit", "json", "exotic", "--theta", "cf:[1;2]p", "--indices", "2,4"],
        ["--emit", "json", "ts", "loop", "--surface", "sheared-torus", "--k", "3"],
        ["--emit", "csv", "growth", "--theta", "cf:[1;1]p", "--mode",
         "prescribed", "--f", "sqrt", "--segments", "3"],
        ["--emit", "json", "--seed", "7", "admissible", "--theta", "cf:[1;2]p",
         "--word", "(2,2)@ba", "--sample-letters", "2000"],
    ]
    for argv in argv_sets:
        c1, out1, _ = run_cli(argv)
        c2, out2, _ = run_cli(argv)
        assert c1 == c2 == 0
        assert out1.encode() == out2.encode()


def test_measure_path_with_quadratic_coordinates(tmp_path):
    doc = {"field": "sqrt2",
           "vertices": [["1/7", "1/9"], ["1/7", "10/9"],
                        ["8/7", "10/9+1*sqrt2"]],
           "markers": ["start", "hop", "leaf"]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli(["--emit", "json", "measure",
                            "--theta", "cf:[1;2]p", "--path", str(f)])
    assert code == 0
    # vertical unit hop contributes 1, the leaf segment 0
    assert json.loads(out)["measure"] == "1"


def test_console_script_matches_in_process():
    import shutil
    import subprocess
    if shutil.which("laminath") is None:
        pytest.skip("console script not installed")
    argv = ["--emit", "json", "convergents", "--theta", "cf:[1;2]p", "--k", "6"]
    _code, out, _ = run_cli(argv)
    proc = subprocess.run(["laminath", *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == out


def test_run_config_direct_dispatch(tmp_path):
    target = tmp_path / "a.json"
    cfg = cli.config_from_args(["--emit", "json", "--out", str(target),
                                "simple-word", "--slope", "7/5", "--start", "2"])
    assert cli.run(cfg) == 0
    assert json.loads(target.read_text())["blocks"] == [2, 1, 1, 2, 1]
    bad = cli.config_from_args(["inadmissible", "--theta", "cf:[1;2]p", "--k", "0"])
    assert cli.run(bad) == 2


def test_out_file(tmp_path):
    target = tmp_path / "cvs.json"
    code, out, _ = run_cli(["--emit", "json", "--out", str(target),
                            "convergents", "--theta", "cf:[1;1]p", "--k", "3"])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["convergents"][-1]["q"] == 3


# -- argv fuzz ---------------------------------------------------------------------

_INT = st.integers(-3, 6).map(str)
_INTS = st.lists(st.integers(-3, 6), max_size=4).map(lambda xs: ",".join(map(str, xs)))
# exact values, half well-formed and half not (zero denominators, dangling
# parts), so that a malformed value rarely hides the other options
_EXACT = st.one_of(
    st.sampled_from(["1/3", "5/3", "2-1*sqrt2", "1/2+1*sqrt5", "0", "1", "7", "-1", "-1/2",
                     "-1+1*sqrt2"]),
    st.sampled_from(["1/0", "0/0", "1/", "/2", "", "abc", "1*sqrt", "1/0*sqrt2",
                     "1+1/0*sqrt2", "2*sqrt4", "1*sqrt0"]))
_THETA = st.one_of(
    st.sampled_from(["cf:[1;2]p", "cf:[1;1]p", "cf:[0;3,1]", "cf:[2;1,2]p", "5/3", "1/3"]),
    st.sampled_from(["cf:[", "cf:[1;2", "cf:[]p", "cf:[;]p", "cf:[1;0]p", "cf:[1;2]q",
                     "cf:[0;0,0]"]),
    _EXACT)
_WORD = st.one_of(
    st.sampled_from(["abab", "babba", "(1,1,2,1,1)@ba", "(2,2)@ba", "AB", "(1,1,2,1,1)@ab"]),
    st.sampled_from(["", "(", "ab@", "(1,2)@xy", "(0,0)@ba", "(-1)@ba"]))
_SURFACE = st.sampled_from(["sheared-torus", "slit-tori", "no-such-surface"])


def _options(required, optional):
    """argv for one subcommand: every required option, each optional one or
    not, as --flag=value so that values may start with "-"."""
    parts = [strat.map(f"{flag}={{}}".format) for flag, strat in required]
    parts += [st.one_of(st.just(None), strat.map(f"{flag}={{}}".format))
              for flag, strat in optional]
    return st.tuples(*parts).map(lambda ps: [p for p in ps if p is not None])


# integer options that count or index something, where a negative value is
# invalid input (exit 2)
_COUNT_OPTIONS = {"--k", "--indices", "--prefix-blocks", "--loops", "--letters", "--depth",
                  "--sample-letters", "--m", "--samples", "--segments", "--edge", "--n",
                  "--budget", "--levels", "--prefix"}


def _negative_count(argv):
    for arg in argv:
        flag, _, value = arg.partition("=")
        if flag in _COUNT_OPTIONS and any(int(v) < 0 for v in value.split(",") if v):
            return True
    return False


_ARGV = {
    "convergents": _options([("--theta", _THETA)], [("--k", _INT)]),
    "simple-word": _options([("--slope", _EXACT)], [("--start", _INT)]),
    "inadmissible": _options([("--theta", _THETA)], [("--k", _INT)]),
    "segment": _options([("--theta", _THETA)], [("--k", _INT)]),
    "exotic": _options([("--theta", _THETA)], [("--indices", _INTS),
                                                ("--prefix-blocks", _INT)]),
    "cusp-exotic": _options([("--theta", _THETA)], [("--loops", _INTS)]),
    "cut": _options([("--theta", _THETA), ("--start", _EXACT)], [("--letters", _INT)]),
    "measure": _options([("--theta", _THETA),
                         ("--path", st.sampled_from(["", "/nonexistent/p.json"]))], []),
    "admissible": _options([("--theta", _THETA), ("--word", _WORD)],
                           [("--depth", _INT), ("--sample-letters", _INT)]),
    "factors": _options([], [("--theta", _THETA), ("--slope", _EXACT), ("--m", _INT),
                             ("--depth", _INT)]),
    "growth": _options([("--theta", _THETA)], [
        ("--mode", st.sampled_from(["linear", "prescribed"])), ("--direction", _EXACT),
        ("--f", st.sampled_from(["sqrt", "log"])), ("--t-max", _EXACT),
        ("--samples", _INT), ("--segments", _INT)]),
    "ts validate": _options([("--surface", _SURFACE)], []),
    "ts return-map": _options([("--surface", _SURFACE)], [("--edge", _INT),
                                                          ("--tau", _EXACT), ("--n", _INT)]),
    "ts partition": _options([("--surface", _SURFACE)], [("--edge", _INT), ("--n", _INT)]),
    "ts loop": _options([("--surface", _SURFACE)], [("--edge", _INT), ("--k", _INT),
                                                    ("--budget", _INT)]),
    "ts exotic": _options([("--surface", _SURFACE)], [("--edge", _INT), ("--levels", _INTS),
                                                      ("--prefix", _INT)]),
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(command, data):
    argv = command.split() + data.draw(_ARGV[command])
    if data.draw(st.booleans()):
        argv = ["--emit", "json"] + argv
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), argv
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert set(json.loads(lines[0])) == {"error", "detail"}, argv
    if _negative_count(argv):
        assert code == 2, (argv, err)


def test_cusp_negative_loop_count_exits_2_on_short_theta():
    # a rational theta's expansion ran out (exit 3) before the negative count
    # of the stage it was read for was seen
    code, out, err = run_cli(["cusp-exotic", "--theta=7", "--loops=1,-1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-slope",
                               "detail": "loop counts must be positive"}


def test_segment_level_below_two_exits_2():
    # a negative level once read the convergent table's (1, 0) seed row and
    # divided by zero
    code, out, err = run_cli(["segment", "--theta", "cf:[1;2]p", "--k=-1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input", "detail": "k must be >= 2"}
