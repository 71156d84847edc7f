import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import cli, tsurface

from reference import run_cli


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


def test_segment_output_ignores_environment(monkeypatch):
    argv = ["--emit", "json", "segment", "--theta", "cf:[1;2]p", "--k", "2"]
    plain = run_cli(argv)
    monkeypatch.setenv("LAMINATH_FIELD", "sqrt2")
    assert run_cli(argv) == plain


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


def test_exotic_prefix_builds_only_the_stage_words_it_reaches():
    # sqrt2 down to level 42, where q_k is about 10^16: the stage lengths are
    # B = 2 q_k - q_(k-1) without a word, and the 64 blocks come from the
    # level-2 and level-6 words alone
    import time
    from laminath import words
    from laminath.cf import ContinuedFraction
    theta, indices = ContinuedFraction.sqrt2(), list(range(2, 43, 4))
    start = time.perf_counter()
    code, out, _ = run_cli(["--emit", "json", "exotic", "--theta", "cf:[1;2]p", "--indices",
                            ",".join(map(str, indices)), "--prefix-blocks", "64"])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(out)
    head = b"".join(words.inadmissible_segment(theta, k).word.blocks for k in (2, 6))
    assert doc["blocks"] == list(head[:64])
    assert doc["letters"] == words.BlockWord(1, head[:64]).letters()
    assert [row["blocks"] for row in doc["stages"]] == [
        2 * theta.convergent(k).q - theta.convergent(k - 1).q for k in indices]
    assert elapsed < 1.0, elapsed


def test_memory_exhaustion_exits_3_with_one_json_line():
    # the level-13 segment word of [4;1,1,7]p does not fit in 1.5 GB of
    # address space: the MemoryError from the block kernel exits 3 with one
    # JSON line, not a traceback.  The limit acts on the child alone
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "laminath.cli", "segment", "--theta",
                           "cf:[4;1,1,7]p", "--k", "13"], capture_output=True, text=True,
                          env=env, preexec_fn=limit)
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    line, = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "memory-exhausted"


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
    # option values are read before any document is opened
    (["ts", "loop", "--surface", "/nonexistent.json", "--k", "-1"], "--k"),
    # a non-positive --t-max once wrote an empty table or a degenerate path
    (["growth", "--theta", "cf:[1;2]p", "--mode", "prescribed", "--t-max", "0"], "--t-max"),
    (["growth", "--theta", "cf:[1;2]p", "--mode", "linear", "--t-max", "-4"], "--t-max"),
    (["growth", "--theta", "cf:[1;2]p", "--t-max=-1/2"], "--t-max"),
])
def test_bad_option_is_named(argv, option):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "invalid-input"
    assert doc["detail"].startswith(option + " ") or doc["detail"].startswith(option + ":")


# a malformed list entry names the entry type, and a malformed continued
# fraction keeps its code, when the command line is read
@pytest.mark.parametrize("argv, error, detail", [
    (["exotic", "--theta", "cf:[1;2]p", "--indices", "2,x"],
     "invalid-input", "--indices: invalid int value: '2,x'"),
    (["convergents", "--theta", "cf:[1;2"],
     "invalid-slope", "cannot parse continued fraction 'cf:[1;2'"),
])
def test_malformed_option_value_detail(argv, error, detail):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error, "detail": detail}


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


def test_rational_shear_is_a_cylinder_decomposition(tmp_path):
    # every leaf of a rational shear closes; at shear 1/4999 both budgeted
    # searches once missed it, and ts loop certified a loop of depth 5000
    f = tmp_path / "shear.json"
    f.write_text(json.dumps(tsurface.sheared_torus_doc(Fraction(1, 4999))))
    code, out, _ = run_cli(["--emit", "json", "ts", "validate", f"--surface={f}"])
    assert code == 0 and json.loads(out)["horizontal_cylinder_decomposition"] is True
    code, out, err = run_cli(["ts", "loop", f"--surface={f}", "--edge", "1", "--k", "3"])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "cylinder-decomposition-detected"


def test_singular_cut_exit_2():
    code, _, err = run_cli(["--emit", "json", "cut", "--theta", "5/3",
                            "--start", "1/3", "--letters", "8"])
    assert code == 2
    assert json.loads(err)["error"] == "singular-hit"


def test_singular_tau_names_its_return():
    # the exchange kernel lands on a cut, and the flow names the return at
    # which the orbit meets the vertex
    argv = ["ts", "return-map", "--surface", "sheared-torus", "--edge", "1"]
    code, out, _ = run_cli(argv + ["--tau", "3-2*sqrt2", "--n", "1"])
    assert code == 0 and "'image': '2-1*sqrt2'" in out
    for tau, n, returns in (("3-2*sqrt2", "2", 1), ("2-1*sqrt2", "1", 0)):
        code, out, err = run_cli(argv + ["--tau", tau, "--n", n])
        assert (code, out) == (2, "")
        assert err == ('{"detail": "orbit hits a vertex after %d returns", '
                       '"error": "singular-hit"}\n' % returns)


def test_growth_csv():
    code, out, _ = run_cli(["--emit", "csv", "growth", "--theta", "cf:[1;2]p",
                            "--mode", "linear", "--direction", "0",
                            "--t-max", "4", "--samples", "4"])
    assert out == "t,I\n1,1*sqrt2\n2,2*sqrt2\n3,3*sqrt2\n4,4*sqrt2\n"
    code, out, _ = run_cli(["--emit", "csv", "growth", "--theta", "cf:[1;2]p",
                            "--samples", "0"])
    assert code == 0 and out == "t,I\n"


def test_growth_prescribed_honours_t_max():
    # --t-max once reached the library only above 16
    argv = ["--emit", "json", "growth", "--theta", "cf:[1;2]p", "--mode", "prescribed",
            "--segments", "6"]
    for t_max in ("4", "16"):
        code, out, _ = run_cli(argv + ["--t-max", t_max])
        table = json.loads(out)["table"]
        assert code == 0 and 0 < len(table) < 6
        assert all(Fraction(row["t"]) < Fraction(t_max) for row in table)
    code, out, _ = run_cli(argv)
    assert code == 0 and len(json.loads(out)["table"]) == 6


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
    # an installed console script runs as it is; otherwise its
    # [project.scripts] target runs in a child interpreter off the source tree
    import os
    import re
    import shutil
    import subprocess
    import sys
    from pathlib import Path
    argv = ["--emit", "json", "convergents", "--theta", "cf:[1;2]p", "--k", "6"]
    _code, out, _ = run_cli(argv)
    env = None
    if shutil.which("laminath") is not None:
        cmd = ["laminath"]
    else:
        root = Path(__file__).resolve().parents[1]
        module, func = re.search(r'^laminath = "([\w.]+):(\w+)"$',
                                 (root / "pyproject.toml").read_text(), re.M).groups()
        cmd = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([*cmd, *argv], capture_output=True, text=True, env=env)
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
# block words with a negative block are invalid input (exit 2)
_NEGATIVE_WORDS = ["(-1)@ba", "(-1,0)@ba", "(-2,-1)@ab"]
_WORD = st.one_of(
    st.sampled_from(["abab", "babba", "(1,1,2,1,1)@ba", "(2,2)@ba", "AB", "(1,1,2,1,1)@ab"]),
    st.sampled_from(["", "(", "ab@", "(1,2)@xy", "(0,0)@ba", "(1,x)@ba", "()@ba",
                     *_NEGATIVE_WORDS]))
# documents for --path and --surface, written once per session: malformed
# ones (exit 2 with one JSON line, not a traceback) and one valid each
_SQUARE = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
_MALFORMED_DOCS = {
    "path-vertices-int": {"vertices": 5},
    "path-list": [1, 2],
    "path-numbers": {"vertices": [[0, 1], [1, 2]]},
    "path-zero-denominator": {"vertices": [["1/3", "1/4"], ["1", "1/0"]]},
    "surface-polygons-int": {"polygons": 3, "identify": []},
    "surface-list": [1, 2],
    "surface-numbers": {"polygons": [[[0, 0], [1, 0], [1, 1], [0, 1]]],
                        "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]},
    "surface-edge-str": {"polygons": [_SQUARE], "identify": [[[0, "a"], [0, 2]]]},
    "surface-edge-float": {"polygons": [_SQUARE], "identify": [[[0, 0.5], [0, 2]]]},
    "surface-coord-str": {"polygons": [[["0", "0"], ["1", "x"], ["1", "1"], ["0", "1"]]],
                          "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]},
    "surface-two-tori": {"polygons": [_SQUARE, _SQUARE],
                         "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]],
                                      [[1, 0], [1, 2]], [[1, 1], [1, 3]]]},
    "surface-coord-zero": {"polygons": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1/0"]]],
                           "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]},
    "surface-mixed-fields": {"polygons": [[["0", "0"], ["1", "-1+1*sqrt2"], ["1", "1*sqrt3"],
                                           ["0", "1"]]],
                             "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]},
}
_VALID_DOCS = {
    "path-ok": {"vertices": [["0", "1/3"], ["2", "7/3"]], "markers": ["start", "leaf"]},
    "surface-ok": tsurface.sheared_torus_doc(),
}


def _doc_names(prefix):
    return [name for name in {**_MALFORMED_DOCS, **_VALID_DOCS} if name.startswith(prefix)]


_PATH = st.sampled_from(["", "/nonexistent/p.json", *_doc_names("path-")])
_SURFACE = st.sampled_from(["sheared-torus", "slit-tori", "no-such-surface",
                            *_doc_names("surface-")])


@pytest.fixture(scope="session")
def doc_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    for name, doc in {**_MALFORMED_DOCS, **_VALID_DOCS}.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


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


def _nonpositive_t_max(argv):
    for arg in argv:
        flag, _, value = arg.partition("=")
        if flag == "--t-max" and value in ("0", "-1", "-1/2"):
            return True
    return False


def _with_doc(arg, doc_dir):
    """--path=NAME or --surface=NAME for a session document: its file."""
    flag, _, value = arg.partition("=")
    if value in _MALFORMED_DOCS or value in _VALID_DOCS:
        return f"{flag}={doc_dir / value}.json"
    return arg


def _malformed_input(argv, doc_dir):
    bad = {f"{doc_dir / name}.json" for name in _MALFORMED_DOCS} | set(_NEGATIVE_WORDS)
    return any(arg.partition("=")[2] in bad for arg in argv
               if arg.startswith(("--path=", "--surface=", "--word=")))


_ARGV = {
    "convergents": _options([("--theta", _THETA)], [("--k", _INT)]),
    "simple-word": _options([("--slope", _EXACT)], [("--start", _INT)]),
    "inadmissible": _options([("--theta", _THETA)], [("--k", _INT)]),
    "segment": _options([("--theta", _THETA)], [("--k", _INT)]),
    "exotic": _options([("--theta", _THETA)], [("--indices", _INTS),
                                                ("--prefix-blocks", _INT)]),
    "cusp-exotic": _options([("--theta", _THETA)], [("--loops", _INTS)]),
    "cut": _options([("--theta", _THETA), ("--start", _EXACT)], [("--letters", _INT)]),
    "measure": _options([("--theta", _THETA), ("--path", _PATH)], []),
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
def test_argv_fuzz_exits_cleanly(command, data, doc_dir):
    argv = command.split() + [_with_doc(arg, doc_dir) for arg in data.draw(_ARGV[command])]
    if data.draw(st.booleans()):
        argv = ["--emit", "json"] + argv
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), argv
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert set(json.loads(lines[0])) == {"error", "detail"}, argv
    if _negative_count(argv) or _malformed_input(argv, doc_dir) or _nonpositive_t_max(argv):
        assert code == 2, (argv, err)


def test_cusp_negative_loop_count_exits_2_on_short_theta():
    # a rational theta's expansion ran out (exit 3) before the negative count
    # of the stage it was read for was seen
    code, out, err = run_cli(["cusp-exotic", "--theta=7", "--loops=1,-1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input",
                               "detail": "loop counts must be positive"}


def test_finite_slopes_decide_at_their_last_level():
    # 7/5 = [1; 2, 2] and 5/3 = [1; 1, 2] end at level 2: "aa" is decided
    # there with no level 3 to confirm it, and 4-letter factors, wider than
    # q_2 = 3, are counted there as --slope counts them (both exited 3)
    code, out, err = run_cli(["--emit", "json", "admissible", "--theta", "7/5", "--word", "aa"])
    doc = json.loads(out)
    assert (code, err, doc["verdict"], doc["levels"]) == (0, "", "inadmissible", [2])
    counts = [json.loads(run_cli(["--emit", "json", "factors", flag, "5/3", "--m", "4"])[1])
              ["count"] for flag in ("--theta", "--slope")]
    assert counts == [5, 5]


@pytest.mark.parametrize("theta", ["1/2", "1"])
def test_admissible_empty_word_slope_at_most_one_exits_2(theta):
    # the empty word is refused at the slopes where every other word is,
    # with the same detail as the one-letter word "b"; above 1 it is decided
    code, out, err = run_cli(["admissible", "--theta", theta, "--word", ""])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid-slope"
    assert run_cli(["admissible", "--theta", theta, "--word", "b"])[2] == err
    assert run_cli(["admissible", "--theta", "3/2", "--word", ""])[0] == 0


@pytest.mark.parametrize("slope", ["1/2", "0", "1"])
def test_factors_slope_at_most_one_exits_2(slope):
    code, out, err = run_cli(["factors", "--slope", slope, "--m", "3"])
    assert code == 2 and out == ""
    assert err == ('{"detail": "slope must be > 1, got %s", "error": "invalid-slope"}\n'
                   % slope)


@pytest.mark.parametrize("argv", [["admissible", "--word", "ab"], ["factors", "--m", "3"]])
def test_slope_below_one_is_named_by_its_value(argv):
    # the refusal names theta = sqrt2 - 1, not the convergent 2/5 it reached
    code, out, err = run_cli([*argv, "--theta", "cf:[0;2]p"])
    assert (code, out) == (2, "")
    assert err == ('{"detail": "slope must be > 1, got -1+1*sqrt2", '
                   '"error": "invalid-slope"}\n')


def test_segment_level_below_two_exits_2():
    # a negative level once read the convergent table's (1, 0) seed row and
    # divided by zero
    code, out, err = run_cli(["segment", "--theta", "cf:[1;2]p", "--k=-1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input", "detail": "k must be >= 2"}


@pytest.mark.parametrize("argv", [
    *(["admissible", "--theta=cf:[1;2]p", f"--word={word}"] for word in _NEGATIVE_WORDS),
    *(["measure", "--theta=cf:[1;2]p", f"--path={name}"]
      for name in _MALFORMED_DOCS if name.startswith("path-")),
    *(["ts", "validate", f"--surface={name}"]
      for name in _MALFORMED_DOCS if name.startswith("surface-")),
])
def test_malformed_input_exits_2(argv, doc_dir):
    # a negative block once read as letters its count did not match, and a
    # document of the wrong shape ended in a TypeError or AttributeError
    code, out, err = run_cli([_with_doc(arg, doc_dir) for arg in argv])
    assert code == 2 and out == "", (argv, err)
    lines = err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}, err


def test_disconnected_surface_exits_2(doc_dir):
    code, out, err = run_cli(["ts", "validate", f"--surface={doc_dir / 'surface-two-tori.json'}"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-surface", "detail": "surface is not connected"}


@pytest.mark.parametrize("polygon", [
    [["0", "0"], ["4", "0"], ["4", "4"], ["2", "0"], ["0", "4"]],
    [["0", "0"], ["3", "0"], ["3", "1"], ["2", "0"], ["1", "0"], ["0", "1"]],
    [["0", "0"], ["2", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
], ids=["touching", "overlap", "fold-back"])
def test_non_simple_polygon_exits_2(polygon, tmp_path):
    # a vertex on an edge, overlapping edges and an edge folded back onto
    # the one before it once passed validation and exited 0
    f = tmp_path / "surface.json"
    f.write_text(json.dumps({"polygons": [polygon], "identify": []}))
    code, out, err = run_cli(["ts", "validate", f"--surface={f}"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-surface", "detail": "polygon 0 self-intersects"}


def test_mixed_field_surface_exits_2(doc_dir):
    # a sqrt 2 and a sqrt 3 vertex in one polygon once failed in arithmetic
    # during validation and came out as invalid-input
    code, out, err = run_cli(["ts", "validate",
                              f"--surface={doc_dir / 'surface-mixed-fields.json'}"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-surface",
                               "detail": "mixed fields sqrt2 and sqrt3"}


def test_sampling_that_cannot_fail_exits_2():
    # three letters per height cannot hold a five-letter word, and an absent
    # report once printed next to an admissible verdict
    code, out, err = run_cli(["admissible", "--theta", "cf:[1;2]p", "--word", "babba",
                              "--sample-letters", "3"])
    assert (code, out) == (2, "")
    assert err == json.dumps({"detail": "sampling needs at least 5 letters per height "
                                        "(the word's length), got 3",
                              "error": "invalid-input"}, sort_keys=True) + "\n"


def test_short_sample_is_refused_before_the_verdict(monkeypatch):
    # the sample's length is checked before any admissibility level is decided
    from laminath import oracle

    def unreachable(*args, **kwargs):
        raise AssertionError("is_admissible ran before the sample check")

    monkeypatch.setattr(oracle, "is_admissible", unreachable)
    code, out, err = run_cli(["admissible", "--theta", "cf:[1;2]p", "--word", "(2,2)@ba",
                              "--sample-letters", "5"])
    assert (code, out) == (2, "")
    assert err == json.dumps({"detail": "sampling needs at least 6 letters per height "
                                        "(the word's length), got 5",
                              "error": "invalid-input"}, sort_keys=True) + "\n"


def test_malformed_surface_coordinate_names_its_place(doc_dir):
    # an unparsable coordinate once read as invalid-input, naming neither the
    # polygon nor the vertex
    code, out, err = run_cli(["ts", "validate", f"--surface={doc_dir / 'surface-coord-str.json'}"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-surface", "detail":
                               "polygon 0 vertex 1: cannot parse 'x' "
                               "(Invalid literal for Fraction: 'x')"}
