from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import flat
from laminath.cf import ContinuedFraction, compare, convergents, floor_part, q_error
from laminath.errors import InvalidSlope, PrecisionExhausted
from laminath.exactnum import QuadNum


def test_golden_convergents():
    g = ContinuedFraction.golden()
    cvs = convergents(g, 4)
    assert [(c.p, c.q) for c in cvs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_sqrt2_convergents():
    s2 = ContinuedFraction.sqrt2()
    cvs = convergents(s2, 4)
    assert [(c.p, c.q) for c in cvs] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_rational_single_convergent():
    r = ContinuedFraction.from_rational(3)
    assert [(c.p, c.q) for c in convergents(r, 0)] == [(3, 1)]


def test_values():
    assert ContinuedFraction.sqrt2().value() == QuadNum(0, 1, 2)
    assert ContinuedFraction.golden().value() == QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
    assert ContinuedFraction.from_rational(Fraction(5, 3)).value() == Fraction(5, 3)


def test_floor_part():
    assert floor_part(ContinuedFraction.sqrt2()) == 1
    assert floor_part(ContinuedFraction.from_rational(Fraction(5, 3))) == 1
    assert floor_part(ContinuedFraction.golden()) == 1


def test_compare():
    s2 = ContinuedFraction.sqrt2()
    assert compare(s2, Fraction(7, 5)) == 1
    assert compare(s2, Fraction(3, 2)) == -1
    r = ContinuedFraction.from_rational(Fraction(5, 3))
    assert compare(r, Fraction(5, 3)) == 0


def test_compare_opaque_source_by_enclosure():
    # sqrt2 fed as a bare coefficient callable: no exact value available
    s2 = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    assert s2.value() is None
    assert s2.compare(Fraction(7, 5)) == 1
    assert s2.compare(Fraction(3, 2)) == -1
    assert s2.compare(Fraction(41, 29)) == 1   # an even convergent itself


def test_precision_exhausted():
    r = ContinuedFraction.from_rational(Fraction(5, 3))
    with pytest.raises(PrecisionExhausted):
        convergents(r, 9)
    short = ContinuedFraction(source=lambda i: [1, 2, 2][i])
    with pytest.raises(PrecisionExhausted):
        convergents(short, 5)


def test_convergent_table_requests_each_index_once():
    calls = []

    def source(i):
        calls.append(i)
        return [1, 2, 2, 2, 2][i]   # sqrt2's coefficients, ending after c4

    theta = ContinuedFraction(source=source)
    cvs = [theta.convergent(k) for k in range(5)]
    assert [(c.p, c.q) for c in cvs] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert calls == [0, 1, 2, 3, 4]
    # later reads come from the table
    assert theta.convergents(4, verify=False) == cvs
    assert theta.compare(Fraction(7, 5)) == 1 and theta.floor_part() == 1
    assert calls == [0, 1, 2, 3, 4]
    with pytest.raises(PrecisionExhausted):
        theta.convergent(5)
    assert theta.convergent(3) == cvs[3]
    with pytest.raises(PrecisionExhausted):
        theta.convergent(5)


def test_canonical_form():
    assert ContinuedFraction([2, 1])._finite == (3,)
    assert ContinuedFraction([1, 2, 1])._finite == (1, 3)
    assert ContinuedFraction([1])._finite == (1,)
    with pytest.raises(InvalidSlope):
        ContinuedFraction([1, 0, 2])


def test_text_round_trip():
    for text in ("cf:[1;2]p", "cf:[1;2,2,2]", "cf:[2;1,2]periodic(2)", "cf:[3]"):
        assert ContinuedFraction.from_text(text).to_text() == text
    assert ContinuedFraction.from_text("5/3").value() == Fraction(5, 3)


def test_periodic_2_value():
    t = ContinuedFraction.from_text("cf:[2;1,2]periodic(2)")
    assert t.value() == QuadNum(1, 1, 3)


def test_approx_inequality_exact():
    for theta in (ContinuedFraction.sqrt2(), ContinuedFraction.golden()):
        val = theta.value()
        cvs = theta.convergents(12)
        for k in range(12):
            err = abs(q_error(val, cvs[k]))
            assert err < Fraction(1, cvs[k + 1].q)


def test_even_odd_enclosure():
    s2 = ContinuedFraction.sqrt2()
    val = s2.value()
    for c in s2.convergents(9):
        if c.k % 2 == 0:
            assert Fraction(c.p, c.q) < val
        else:
            assert Fraction(c.p, c.q) > val


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_determinant_identity(coeffs):
    theta = ContinuedFraction(coeffs)
    cvs = theta.convergents(len(theta._finite) - 1, verify=False)
    prev = None
    for c in cvs:
        if prev is not None:
            assert c.p * prev.q - prev.p * c.q in (1, -1)
        prev = c
    # the last convergent reproduces the rational exactly
    assert Fraction(cvs[-1].p, cvs[-1].q) == theta.value()


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=200))
def test_from_rational_round_trip(r):
    assert ContinuedFraction.from_rational(r).value() == r


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=8))
def test_finite_convergents_verify(coeffs):
    # a rational theta = p_n/q_n meets the approximation bound with equality
    # at k = n - 1, which the verified table accepts
    theta = ContinuedFraction(coeffs)
    n = len(theta._finite) - 1
    cvs = theta.convergents(n)
    if n >= 1:
        assert abs(q_error(theta.value(), cvs[n - 1])) == Fraction(1, cvs[n].q)


def test_negative_convergent_index_raises():
    theta = ContinuedFraction.sqrt2()
    for k in (-1, -2):
        with pytest.raises(ValueError):
            theta.convergent(k)
    with pytest.raises(ValueError):
        flat.homotopy_clearance(Fraction(1, 4), theta, -1)
