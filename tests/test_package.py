import ast
import os
import pathlib
import subprocess
import sys

import laminath
from laminath.errors import EXHAUSTION_ERRORS, CertificateViolation

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


def test_surface_kernel_has_no_float():
    # every branch in tsurface is decided in exact arithmetic
    tree = ast.parse((PACKAGE / "tsurface.py").read_text())
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    floats = [f.lineno for f in calls if isinstance(f, ast.Name) and f.id == "float"]
    sqrts = [f.lineno for f in calls if isinstance(f, ast.Attribute) and f.attr == "sqrt"
             and isinstance(f.value, ast.Name) and f.value.id == "math"]
    assert not floats and not sqrts, f"float at {floats}, math.sqrt at {sqrts}"


def test_one_backward_flow_pass_per_transversal(monkeypatch):
    # the non-saddle search reads the first crossings the exchange flowed
    # instead of flowing every backward separatrix again
    from laminath import tsurface as ts
    trace, calls = ts._FlowKernel.trace, []

    def counting(self, st, back=False):
        calls.append(back)
        return trace(self, st, back)

    monkeypatch.setattr(ts._FlowKernel, "trace", counting)
    for edge in (0, 4, 5):
        S = ts.load_surface(ts.slit_tori_doc())
        calls.clear()
        ts.Transversal(S, edge).non_saddle_cut()
        assert calls.count(True) == len(S.corner_germs(-1)), edge


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
