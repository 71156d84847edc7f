import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath.exactnum import (QuadNum, decode, denominator, encode, exact_floor,
                               format_exact, frac_part, parse_exact,
                               squarefree_decompose)

import reference as ref

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
ds = st.sampled_from([2, 3, 5, 7, 13])


def quads(d=None):
    if d is None:
        return st.builds(QuadNum, fractions, fractions, ds)
    return st.builds(QuadNum, fractions, fractions, st.just(d))


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(12) == (3, 2)
    assert squarefree_decompose(49) == (1, 7)
    assert squarefree_decompose(5) == (5, 1)
    assert squarefree_decompose(1_000_003 ** 2 * 7) == (7, 1_000_003)
    # the discriminant of cf:[299;22,39,4,13,22,22,39,28]periodic(7), which
    # is 977 * 1055501 * 1191966977
    assert squarefree_decompose(1229185522458096029) == (1229185522458096029, 1)


def _squarefree_reference(n):
    f = max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)
    return n // (f * f), f


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200_000))
def test_squarefree_decompose_matches_reference(n):
    assert squarefree_decompose(n) == _squarefree_reference(n)


def test_normalization_folds_square_factors():
    x = QuadNum(1, 1, 8)  # 1 + sqrt8 = 1 + 2 sqrt2
    assert x.d == 2 and x.b == 2
    y = QuadNum(0, 3, 4)  # 3 sqrt4 = 6
    assert y.b == 0 and y.a == 6


def test_sign_and_comparisons():
    s2 = QuadNum(0, 1, 2)
    assert s2.sign() == 1
    assert (1 - s2).sign() == -1
    assert (2 - s2).sign() == 1
    assert QuadNum(7, -5, 2).sign() == -1          # 7 < 5 sqrt2
    assert QuadNum(Fraction(3, 2), -1, 2) > 0
    assert QuadNum(-3, 2, 2) < 0                   # 2 sqrt2 < 3


def test_floor_matches_float():
    cases = [QuadNum(0, 1, 2), QuadNum(0, -1, 2),
             QuadNum(Fraction(7, 2), Fraction(-5, 3), 2),
             QuadNum(Fraction(-9, 4), Fraction(11, 7), 5)]
    for x in cases:
        assert exact_floor(x) == math.floor(float(x))


@settings(max_examples=100, deadline=None)
@given(quads())
def test_floor_definition(x):
    m = exact_floor(x)
    assert m <= x < m + 1
    assert 0 <= frac_part(x) < 1


@settings(max_examples=100, deadline=None)
@given(quads(2), quads(2), quads(2))
def test_ring_identities(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert x - x == 0
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(quads())
def test_format_parse_round_trip(x):
    assert parse_exact(format_exact(x)) == x


def test_parse_examples():
    assert parse_exact("7/5") == Fraction(7, 5)
    assert parse_exact("2-1*sqrt2") == QuadNum(2, -1, 2)
    assert parse_exact("-1/2+3/4*sqrt5") == QuadNum(Fraction(-1, 2), Fraction(3, 4), 5)
    assert parse_exact("33/4*sqrt5") == QuadNum(0, Fraction(33, 4), 5)
    with pytest.raises(ValueError):
        parse_exact("sqrt2+1")


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/0*sqrt2", "1+1/0*sqrt2"])
def test_parse_zero_denominator_is_value_error(text):
    # a zero denominator once raised ZeroDivisionError, past the ValueError
    # handlers of the CLI and the document loaders
    with pytest.raises(ValueError, match="zero denominator"):
        parse_exact(text)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    # rational-valued elements mix freely
    assert QuadNum(3, 0, 2) + QuadNum(0, 1, 3) == QuadNum(3, 1, 3)


def _typed_right(x):
    """Does x follow the type rule: a QuadNum exactly when its b is nonzero?"""
    if isinstance(x, QuadNum):
        return x.b != 0
    return type(x) is Fraction


# elements of Q(sqrt 2): QuadNums, Fractions and QuadNum-typed rationals
_elements = st.one_of(quads(2), fractions, st.builds(QuadNum, fractions))


@settings(max_examples=200, deadline=None)
@given(_elements, _elements, st.integers(0, 4))
def test_arithmetic_returns_quadnum_exactly_when_b_is_nonzero(x, y, n):
    (a, b), (c, e) = ref.parts(x), ref.parts(y)
    results = {"+": (x + y, (a + c, b + e)), "-": (x - y, (a - c, b - e)),
               "*": (x * y, (a * c + 2 * b * e, a * e + b * c)),
               "neg": (-x, (-a, -b)), "abs": (abs(x), (a, b) if x >= 0 else (-a, -b))}
    if y != 0:
        norm = c * c - 2 * e * e
        results["/"] = (x / y, ((a * c - 2 * b * e) / norm, (b * c - a * e) / norm))
    pa, pb = Fraction(1), Fraction(0)
    for _ in range(n):
        pa, pb = pa * a + 2 * pb * b, pa * b + pb * a
    results["**"] = (x ** n, (pa, pb))
    for op, (got, want) in results.items():
        assert _typed_right(got), (op, x, y)
        assert ref.parts(got) == want, (op, x, y)


@settings(max_examples=200, deadline=None)
@given(_elements, st.integers(1, 30))
def test_pair_encoding_round_trips(x, m):
    D = denominator(x) * m
    got = decode(encode(x, D), D, 2)
    assert got == x and _typed_right(got)


def test_vanished_surd_gives_a_fraction():
    assert type(QuadNum(2, 1, 2) ** 0) is Fraction
    assert type(QuadNum(0, 1, 2) * QuadNum(0, 1, 2)) is Fraction
    assert type(QuadNum(Fraction(1, 3)) + 1) is Fraction
    # sqrt 4 folds into the rational part
    got = decode((1, 1), 1, 4)
    assert got == 3 and type(got) is Fraction


# -- the integer triples against the Fraction-pair reference -------------------

_FIELDS = [2, 3, 5, 37, 4, 8, 12]   # square-free, and three that fold
_ratios = st.fractions(min_value=-30, max_value=30, max_denominator=24)


def _both(a, b, d):
    return QuadNum(a, b, d), ref.QuadNum(a, b, d)


# (exactnum value, reference value): a QuadNum (b = 0 too), a Fraction or an int
_operands = st.one_of(
    st.builds(_both, _ratios, st.one_of(_ratios, st.just(0)), st.sampled_from(_FIELDS)),
    _ratios.map(lambda q: (q, q)), st.integers(-3, 3).map(lambda n: (n, n)))

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


def _outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return "value", f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _same(got, want, what):
    """The exactnum outcome ``got`` is the reference outcome ``want``: the
    same value of the same type, or the same error."""
    if isinstance(want[1], ref.QuadNum):
        x, w = got[1], want[1]
        assert type(x) is QuadNum, what
        assert (x.a, x.b, x.d) == (w.a, w.b, w.d), what
        # a reduced triple: D is the lcm of the denominators, and the
        # hash is that of the same element built afresh
        assert denominator(x) == math.lcm(w.a.denominator, w.b.denominator), what
        assert hash(x) == hash(QuadNum(w.a, w.b, w.d)), what
    else:
        assert (type(got[0]), type(got[1])) == (type(want[0]), type(want[1])), what
        assert got == want, what


def _check_against_reference(x, rx, y, ry, n):
    for name, op in _BINARY.items():
        _same(_outcome(op, x, y), _outcome(op, rx, ry), (name, x, y))
    if not isinstance(x, QuadNum):
        return
    unary = {"neg": operator.neg, "abs": abs, "pow": lambda v: v ** n,
             "sign": lambda v: v.sign(), "is_zero": lambda v: v.is_zero(), "bool": bool,
             "floor": lambda v: v.floor(), "float": float, "parts": lambda v: (v.a, v.b, v.d)}
    for name, op in unary.items():
        _same(_outcome(op, x), _outcome(op, rx), (name, x))
    text = format_exact(x)
    assert text == ref.format_exact(rx) and repr(x) == f"QuadNum({text!r})"
    back = parse_exact(text)
    assert back == x and _typed_right(back)
    assert exact_floor(x) == rx.floor()
    _same(("value", frac_part(x)), ("value", rx - rx.floor()), ("frac_part", x))
    # equal elements hash alike; b = 0 hashes as its Fraction
    assert hash(x) == (hash(rx.a) if rx.b == 0 else hash(QuadNum(x.a, x.b, x.d)))
    if isinstance(y, QuadNum) and _outcome(operator.eq, x, y) == ("value", True):
        assert hash(x) == hash(y)
    # the pair encoding reads the triple: D is the lcm of the denominators
    D = math.lcm(rx.a.denominator, rx.b.denominator)
    assert denominator(x) == D and ref.parts(x) == (rx.a, rx.b)
    assert encode(x, 3 * D) == (int(rx.a * 3 * D), int(rx.b * 3 * D))
    if D > 1:
        with pytest.raises(ValueError, match="does not divide"):
            encode(x, D + 1)
    _same(("value", decode(encode(x, D), D, x.d)),
          ("value", ref._element(rx.a, rx.b, rx.d)), ("decode", x))
    with pytest.raises(AttributeError, match="immutable"):
        x.a = 1


@settings(max_examples=400, deadline=None)
@given(_operands, _operands, st.integers(0, 4))
def test_triples_match_fraction_pair_reference(x, y, n):
    _check_against_reference(*x, *y, n)


@pytest.mark.parametrize("x, y", [
    ((1, 1, 2), (0, 1, 3)),                          # mixed fields
    ((1, 1, 2), (0, 0, 3)), ((5, 0, 3), (0, 1, 2)),  # b = 0 takes the other's field
    ((1, 1, 2), (0, 0, 2)), ((0, 0, 5), (1, 1, 2)),  # division by a zero element
    ((1, 1, 2), (1, -1, 2)), ((1, 1, 2), (0, 2, 8)), # conjugates; sqrt 8 folds to 2 sqrt 2
    ((2, 1, 4), (1, 1, 12)), ((0, 3, 4), (1, 0, 2)), # sqrt 4 folds into the rational part
])
def test_reference_corner_cases(x, y):
    for n in (0, 1, 3):
        _check_against_reference(*_both(*x), *_both(*y), n)
    _check_against_reference(*_both(*x), 0, 0, 2)
    _check_against_reference(*_both(*x), Fraction(-3, 4), Fraction(-3, 4), 2)


@pytest.mark.parametrize("other", [1.5, "1", None])
def test_order_against_another_type_names_both_types(other):
    x, kind = QuadNum(1, 1, 2), type(other).__name__
    for name in ("<", "<=", ">", ">="):
        for a, b, types in ((x, other, f"'QuadNum' and '{kind}'"),
                            (other, x, f"'{kind}' and 'QuadNum'")):
            with pytest.raises(TypeError) as exc:
                _BINARY[name](a, b)
            assert str(exc.value) == f"'{name}' not supported between instances of {types}"
