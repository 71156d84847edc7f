import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import laminath
from laminath.cf import ContinuedFraction
from laminath.errors import EXHAUSTION_ERRORS, CertificateViolation
from laminath.exactnum import QuadNum

PACKAGE = pathlib.Path(laminath.__file__).resolve().parent


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys; from fractions import Fraction; from laminath import oracle; "
            "from laminath.cf import ContinuedFraction; "
            "oracle.leaf_letter_stream(ContinuedFraction.sqrt2(), Fraction(1, 3), 10 ** 5); "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_bare_asserts():
    # certificate checks must survive python -O
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: bare assert at lines {lines}"


def test_no_assertion_errors_raised():
    # failed certificate checks raise CertificateViolation (CLI exit 2)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
                 and "AssertionError" in ast.unparse(node.exc or ast.Constant(None))]
        assert not lines, f"{path.name}: AssertionError raised at lines {lines}"
    assert CertificateViolation.code == "certificate-violation"
    assert not issubclass(CertificateViolation, EXHAUSTION_ERRORS)


def test_every_option_value_is_parsed_where_it_is_declared():
    # handlers read ready values: each option taking one value declares its
    # parser, except the output targets and the documents a handler opens
    from laminath import cli
    untyped, parsers = set(), [cli.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif (action.option_strings and action.nargs is None
                  and action.choices is None and action.type is None):
                untyped.update(action.option_strings)
    assert untyped == {"--emit", "--out", "--path", "--surface", "--word"}


def test_surface_kernel_has_no_float():
    # every branch in tsurface and in its exchange kernel is decided in exact
    # arithmetic
    for name in ("tsurface.py", "iet.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        floats = [f.lineno for f in calls if isinstance(f, ast.Name) and f.id == "float"]
        sqrts = [f.lineno for f in calls if isinstance(f, ast.Attribute) and f.attr == "sqrt"
                 and isinstance(f.value, ast.Name) and f.value.id == "math"]
        assert not floats and not sqrts, f"{name}: float at {floats}, math.sqrt at {sqrts}"


def test_only_exactnum_calls_private_quadnum_methods():
    # other modules read QuadNum through its operators and the pair encoding
    private = {name for name in vars(QuadNum) if name.startswith("_") and
               not name.startswith("__") and callable(getattr(QuadNum, name))}
    assert {"_align", "_cmp"} <= private
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr in private]
        assert not lines, f"{path.name}: private QuadNum method at lines {lines}"


def test_only_cf_reads_the_convergent_table():
    # other modules read slope facts through ContinuedFraction's methods
    private = {"_p", "_q", "_grow", "_checked"}
    assert private <= set(vars(ContinuedFraction.sqrt2())) | set(vars(ContinuedFraction))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cf.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr in private]
        assert not lines, f"{path.name}: private convergent table at lines {lines}"


def test_one_backward_flow_pass_per_transversal(monkeypatch):
    # the non-saddle search reads the first crossings the exchange flowed
    # instead of flowing every backward separatrix again, and flows no
    # forward separatrix: its forward traces are the exchange's two probes
    # per interval
    from laminath import tsurface as ts
    trace, calls = ts._FlowKernel.trace, []

    def counting(self, st, back=False):
        calls.append(back)
        return trace(self, st, back)

    monkeypatch.setattr(ts._FlowKernel, "trace", counting)
    for edge in (0, 4, 5):
        S = ts.load_surface(ts.slit_tori_doc())
        calls.clear()
        tr = ts.Transversal(S, edge)
        tr.non_saddle_cut()
        assert calls.count(True) == len(S.corner_germs(-1)), edge
        assert calls.count(False) == 2 * len(tr.return_map().intervals), edge


def test_surface_setup_multiplies_no_field_elements(monkeypatch):
    # validation, corner germs, the first cuts and the exchange's probes run
    # on the surface's integer pairs; only decoding the exchange's values
    # builds field elements, and decoding multiplies and divides none
    from laminath import tsurface as ts
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counting(self, other, _method=getattr(QuadNum, name), _name=name):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(QuadNum, name, counting)
    S = ts.load_surface(ts.slit_tori_doc())
    ts.Transversal(S, 5).return_map()
    assert calls == []
    assert QuadNum(1, 1, 2) * 3 / QuadNum(0, 1, 2) == 3 + QuadNum(0, 3, 2) / 2
    assert calls == ["__mul__", "__truediv__", "__truediv__"]


def test_same_field_arithmetic_builds_no_fraction(monkeypatch):
    # a QuadNum is an integer triple: + - * / and < between two elements of
    # one field are integer arithmetic, with no Fraction on the way
    calls, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    x, y = QuadNum(Fraction(3, 7), Fraction(-5, 11), 2), QuadNum(Fraction(1, 3), Fraction(2, 9), 2)
    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [x + y, x - y, x * y, x / y]
    assert x < y or y < x
    assert calls == []
    assert all(type(r) is QuadNum for r in results)
    assert results[0].a == Fraction(16, 21) and calls


def test_cylinder_check_stops_at_first_open_germ(monkeypatch):
    # the cylinder flag is decided by the first forward separatrix that
    # stays open instead of flowing every germ to the full budget
    from laminath import tsurface as ts
    trace, calls = ts._FlowKernel.trace, []

    def counting(self, st, back=False):
        calls.append(back)
        return trace(self, st, back)

    monkeypatch.setattr(ts._FlowKernel, "trace", counting)
    S = ts.load_surface(ts.slit_tori_doc())
    calls.clear()
    assert S.horizontal_is_cylinder_decomposition() is False
    assert len(calls) == 1


def test_ledger_and_surfaces_import_no_torus_module():
    # the exotic ledger and the surface code run without the torus modules
    torus = {"words", "flat", "cf", "oracle"}
    for name in ("tsurface.py", "iet.py", "ledger.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= ({node.module} if node.module else {a.name for a in node.names})
        assert not imported & torus, f"{name} imports {sorted(imported & torus)}"


def _child(code, *argv):
    """Run ``code`` in a fresh interpreter; returns its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


_LOADED = "print(*sorted(m[9:] for m in sys.modules if m.startswith('laminath.')))"
# stdlib modules that cost a CLI call milliseconds to import and that no
# laminath module needs: dataclasses pulls in inspect, ast, dis and tokenize
_HEAVY = "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"


def test_import_loads_no_submodule():
    assert _child("import sys, laminath; " + _LOADED) == [""]


def test_exchange_imports_no_surface_or_torus_module():
    # the exchange code stands alone: importing it compiles neither the
    # surface module nor the torus modules
    loaded = set(_child("import sys, laminath.iet; " + _LOADED)[0].split())
    assert "iet" in loaded and not loaded & {"tsurface", "flat", "words", "cf", "oracle"}, loaded


def test_every_module_compiles_in_bounded_memory():
    # tripwire: compiling a module with no cached bytecode costs memory in
    # proportion to its size, so no module may grow past 2.5 MiB of compile
    # peak (tracemalloc, least of three compiles)
    if sys.implementation.name != "cpython":
        pytest.skip("compile memory is measured on CPython")
    import tracemalloc

    def peak(source, name):
        tracemalloc.start()
        try:
            compile(source, name, "exec")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = {path.name: min(peak(path.read_text(), str(path)) for _ in range(3))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {"iet.py", "tsurface.py"} <= set(peaks)
    over = {name: round(p / 2 ** 20, 3) for name, p in peaks.items() if p >= 2.5 * 2 ** 20}
    assert not over, over


@pytest.mark.parametrize("argv, unloaded", [
    (["convergents", "--theta", "cf:[1;2]p"],
     {"tsurface", "iet", "words", "flat", "oracle", "ledger"}),
    (["segment", "--theta", "cf:[1;2]p", "--k", "3"], {"tsurface", "iet"}),
    (["exotic", "--theta", "cf:[1;2]p", "--indices", "2,4"], {"tsurface", "iet"}),
    (["admissible", "--theta", "cf:[1;2]p", "--word", "(2,2)@ba"], {"tsurface", "iet"}),
    (["ts", "validate", "--surface", "slit-tori"], {"cf", "words", "flat", "oracle", "iet"}),
    (["ts", "loop", "--surface", "sheared-torus", "--k", "3"], {"cf", "words", "flat", "oracle"}),
])
def test_subcommands_load_only_what_they_run(argv, unloaded):
    # each handler imports the modules it calls; the torus and surface
    # subcommands do not compile each other's modules, and none loads
    # dataclasses or inspect
    code = ("import contextlib, io, sys\nfrom laminath import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(sys.argv[1:])\n"
            "print(status)\n" + _LOADED + "\n" + _HEAVY)
    status, loaded, heavy = _child(code, *argv)
    assert status == "0"
    assert not set(loaded.split()) & unloaded, loaded
    assert heavy == "", heavy


def test_text_calls_leave_json_unloaded():
    # json is imported where JSON is read or written: a text-mode call loads
    # it exactly when a bare interpreter does, a JSON call always
    code = ("import contextlib, io, sys\nfrom laminath import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(sys.argv[1:])\n"
            "print(status, 'json' in sys.modules)")
    bare = _child("import sys; print('json' in sys.modules)")
    assert _child(code, "convergents", "--theta", "cf:[1;2]p") == ["0 " + bare[0]]
    assert _child(code, "--emit", "json", "convergents", "--theta", "cf:[1;2]p") == ["0 True"]


def test_submodules_import_no_dataclasses_or_inspect():
    # records come from laminath._record, not from the dataclasses module
    code = "import sys\nimport laminath\nfrom laminath import *\n" + _LOADED + "\n" + _HEAVY
    loaded, heavy = _child(code)
    assert loaded.split() == ["_record", "cf", "errors", "exactnum", "flat", "iet", "ledger",
                              "oracle", "tsurface", "words"]
    assert heavy == "", heavy


# the names the package exports, by the submodule that defines them
_EXPORTS = {
    "cf": "ContinuedFraction Convergent",
    "exactnum": "QuadNum format_exact parse_exact",
    "words": "BlockWord cusp_exotic_word exotic_word inadmissible_segment inadmissible_word "
             "letters_to_blocks simple_word",
    "flat": "FlatPath FlatPoint cutting_sequence homotopy_clearance linear_growth_probe "
            "prescribed_growth_path transverse_measure",
    "oracle": "factor_count is_admissible rational_factors sampling_cross_check",
    "tsurface": "TranslationSurface Transversal build_inadmissible_loop find_non_saddle_point "
                "first_return load_surface return_partition synthesize_exotic",
}


def test_star_import_binds_every_export():
    # lazy exports bind the same 31 names and 9 submodules as eager imports;
    # an unknown name is still an AttributeError
    code = """
import json, sys, laminath
expected = json.loads(sys.argv[1])
ns = {}
exec("from laminath import *", ns)
del ns["__builtins__"]
assert sorted(ns) == sorted(expected), sorted(set(ns) ^ set(expected))
for name, module in expected.items():
    home = sys.modules["laminath." + module]
    assert ns[name] is (home if name == module else getattr(home, name)), name
try:
    laminath.nosuch
except AttributeError as exc:
    print(exc)
"""
    expected = {name: module for module, names in _EXPORTS.items() for name in names.split()}
    expected.update((module, module) for module in ("cf", "errors", "exactnum", "flat", "iet",
                                                    "ledger", "oracle", "tsurface", "words"))
    assert len(expected) == 40
    assert _child(code, json.dumps(expected)) == [
        "module 'laminath' has no attribute 'nosuch'"]


def test_readme_quick_tour_runs():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_scripts_run(tmp_path):
    # each script runs from a copy, so the CSVs growth_experiment writes next
    # to itself land in tmp_path
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for name in ("exotic_demo.py", "growth_experiment.py"):
        script = tmp_path / name
        script.write_text((PACKAGE.parents[1] / "scripts" / name).read_text())
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                       capture_output=True, text=True, check=True)
    assert len(list(tmp_path.glob("growth_*.csv"))) == 5


def test_clearance_builds_no_fraction_per_height(monkeypatch):
    # homotopy_clearance keeps its heights as integer numerators: a call with
    # q_k >= 2000 builds O(1) Fractions in flat, and O(1) anywhere
    import fractions
    from laminath import flat
    from laminath.cf import ContinuedFraction
    theta, k = ContinuedFraction.sqrt2(), 9
    assert theta.convergent(k).q >= 2000
    s = fractions.Fraction(1, 3)
    theta.value()  # cached before counting
    in_flat, anywhere = [], []
    new = fractions.Fraction.__new__

    class Counting(fractions.Fraction):
        def __new__(cls, *args, **kwargs):
            in_flat.append(args)
            return fractions.Fraction(*args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        anywhere.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(flat, "Fraction", Counting)
    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    cert = flat.homotopy_clearance(s, theta, k)
    monkeypatch.undo()
    assert len(in_flat) <= 4 and len(anywhere) <= 40, (len(in_flat), len(anywhere))
    assert len(cert.agreements) == theta.convergent(k).q - 1


def test_segment_certificate_builds_bounded_fractions(monkeypatch):
    # inadmissible_segment decides its measure, bound and lattice check on
    # integer pairs: at most 24 Fractions per call, at every level (the
    # generic path validation and QuadNum arithmetic built about 150)
    import fractions
    from laminath import words
    from laminath.cf import ContinuedFraction
    theta = ContinuedFraction.sqrt2()
    new = fractions.Fraction.__new__
    for k in (5, 9, 12):
        words.inadmissible_segment(theta, k)  # convergents and value cached
        built = []

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
        cert = words.inadmissible_segment(theta, k)
        monkeypatch.undo()
        assert len(built) <= 24, (k, len(built))
        assert cert.measure <= cert.bound


def test_loop_certificate_builds_bounded_fractions(monkeypatch):
    # build_inadmissible_loop decides its points, checks and measure on the
    # exchange kernel's integer pairs: with the certificate's values unread,
    # a loop builds the same few Fractions at k = 5 and k = 10 on both
    # fixtures (the Fraction/QuadNum bookkeeping built 111 to 121 per loop)
    import fractions
    from laminath import tsurface as ts
    new = fractions.Fraction.__new__
    for name, edge in (("sheared-torus", 1), ("slit-tori", 5)):
        tr = ts.Transversal(ts.preset_surface(name), edge)
        tr.return_map(), tr.non_saddle_cut()  # the exchange and its cut P, built once
        counts = []
        for k in (5, 10):
            built = []

            def counting_new(cls, *args, **kwargs):
                built.append(args)
                return new(cls, *args, **kwargs)

            monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
            cert = ts.build_inadmissible_loop(tr.surface, tr, k)
            monkeypatch.undo()
            counts.append(len(built))
            assert cert.measure < cert.measure_constant * fractions.Fraction(1, 2 ** k)
        assert counts[0] == counts[1] <= 4, (name, counts)


def test_segment_word_reads_its_own_path(monkeypatch):
    # the segment word is the cutting sequence of its path, not a flipped
    # simple word spliced with a second simple-word run
    from laminath import words
    from laminath.cf import ContinuedFraction

    def refuse(*args, **kwargs):
        raise RuntimeError("simple_word called")

    monkeypatch.setattr(words, "simple_word", refuse)
    for k in (2, 3, 8, 9):
        cert = words.inadmissible_segment(ContinuedFraction.sqrt2(), k)
        assert cert.word.blocks[:cert.convergent.q] == words.inadmissible_word(
            ContinuedFraction.sqrt2(), k).blocks


def test_partition_words_step_the_exchange_kernel(monkeypatch):
    # level-set words are read on the exchange kernel, not by the reference
    # stepper once per letter
    from laminath import tsurface as ts

    def refuse(*args, **kwargs):
        raise RuntimeError("reference stepper called")

    monkeypatch.setattr(ts.ReturnMapIET, "orbit_word", refuse)
    monkeypatch.setattr(ts.ReturnMapIET, "step", refuse)
    for name, edge in (("sheared-torus", 1), ("slit-tori", 5)):
        part = ts.return_partition(ts.preset_surface(name), edge, 8)
        assert all(iv.word for iv in part.intervals), name


def test_first_return_reads_the_exchange_kernel(monkeypatch):
    # once the transversal holds its exchange, first returns step the exchange
    # kernel and do not flow the surface polygon by polygon
    from fractions import Fraction

    from laminath import tsurface as ts

    def refuse(*args, **kwargs):
        raise RuntimeError("flow kernel called")

    def typed(res):
        return type(res[0]).__name__, res

    starts = (Fraction(1, 3), Fraction(123, 997), QuadNum(Fraction(1, 5), Fraction(1, 7), 2))
    cases = [(ts.sheared_torus_doc(), 1, starts), (ts.slit_tori_doc(), 5, starts),
             (ts.sheared_torus_doc(Fraction(1, 3)), 1,
              (QuadNum(Fraction(-1, 2), Fraction(1, 2), 5), Fraction(1, 4)))]
    built, want = [], []
    for doc, edge, taus in cases:
        surface = ts.load_surface(doc)
        flow, trans = ts.Transversal(surface, edge), ts.Transversal(surface, edge)
        trans.return_map()
        calls = [(tau, n) for tau in taus for n in (1, 5, 50)]
        built.append((trans, calls))
        want.append([typed(ts.first_return(flow, tau, n)) for tau, n in calls])
    monkeypatch.setattr(ts._FlowKernel, "trace", refuse)
    got = [[typed(ts.first_return(trans, tau, n)) for tau, n in calls]
           for trans, calls in built]
    assert got == want
    assert [t for t, _ in want[2]] == ["QuadNum"] * 3 + ["Fraction"] * 3


def test_opaque_slopes_read_the_window_kernel(monkeypatch):
    # an opaque slope reads an exact convergent line on the window kernel and
    # makes no enclosure comparison per block
    from fractions import Fraction

    from laminath import flat
    from laminath.cf import ContinuedFraction

    def refuse(*args, **kwargs):
        raise RuntimeError("enclosure comparison made")

    theta = ContinuedFraction.sqrt2()
    opaque = ContinuedFraction(source=theta.coefficient)
    s, n = Fraction(1, 3), 10 ** 5
    want = flat.sturmian_letters(theta, s, n)
    monkeypatch.setattr(ContinuedFraction, "compare", refuse)
    assert flat.sturmian_letters(opaque, s, n) == want


def test_block_word_verdicts_read_no_letter_haystack(monkeypatch):
    # a "ba" block-word verdict reads the convergent's block offsets: no
    # letter plan is made and no letter stream read
    from laminath import oracle, words
    from laminath.cf import ContinuedFraction
    from reference import is_admissible_letters, refuse_letters

    cases = [(theta, words.inadmissible_segment(theta, k).word)
             for theta in (ContinuedFraction.sqrt2(), ContinuedFraction.from_text("cf:[4;1,1,7]p"))
             for k in (2, 3, 6, 7)]
    want = [is_admissible_letters(word, theta) for theta, word in cases]
    refuse_letters(monkeypatch)
    assert [oracle.is_admissible(word, theta) for theta, word in cases] == want
    assert {cert.verdict for cert in want} == {"inadmissible"}


def test_sampling_reads_block_bytes_and_plans_each_slope_once(monkeypatch):
    # a "ba" block word is sampled on the window kernel's block offsets: no
    # letter stream is read, and one call over 8 heights (j/9 reduce to
    # ninths and thirds) reads the slope's partial quotients once
    from fractions import Fraction

    from laminath import flat, oracle, words
    from laminath.cf import ContinuedFraction
    from reference import first_occurrence_letters, refuse_letters, search_form

    theta = ContinuedFraction.from_text("cf:[2;1,3]p")
    cases = [(word, seed) for word in (words.inadmissible_word(theta, 4),
                                       words.simple_word(Fraction(119, 43), 1))
             for seed in (None, 3)]
    want = []
    for word, seed in cases:
        heights = oracle.sampling_cross_check("a", theta, 20_000, 8, seed).heights
        want.append(first_occurrence_letters(*search_form(word), theta,
                                             ((s, 20_000) for s in heights)))
    assert want[0] is want[1] is None and want[2] and want[3]

    reads = []
    quotients = flat.partial_quotients
    refuse_letters(monkeypatch)
    monkeypatch.setattr(flat, "partial_quotients", lambda *args: reads.append(args)
                        or quotients(*args))
    for (word, seed), found in zip(cases, want):
        reads.clear()
        assert oracle.sampling_cross_check(word, theta, 20_000, 8, seed).found_at == found
        assert len(reads) == 1


def test_segments_and_clearances_read_no_letters(monkeypatch):
    # segment words and clearance certificates are read on the window
    # kernel's block read-out: no letter plan is made
    from fractions import Fraction

    from laminath import flat, words
    from laminath.cf import ContinuedFraction
    from reference import refuse_letters

    thetas = (ContinuedFraction.sqrt2(), ContinuedFraction.from_text("cf:[4;1,1,7]p"),
              ContinuedFraction.from_text("cf:[300;2]p"))
    cases = [(theta, k) for theta in thetas for k in (2, 3, 6, 7)]

    def certify(theta, k):
        seg = words.inadmissible_segment(theta, k)
        clearance = flat.homotopy_clearance(Fraction(1, 4) if k % 2 == 0 else Fraction(3, 4),
                                            theta, k)
        return seg.word, seg.measure, clearance

    want = [certify(theta, k) for theta, k in cases]
    refuse_letters(monkeypatch)
    assert [certify(theta, k) for theta, k in cases] == want
