from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import flat
from laminath.cf import ContinuedFraction, q_error
from laminath.errors import CertificateViolation, InvalidSlope, PrecisionExhausted
from laminath.exactnum import QuadNum


def test_golden_convergents():
    g = ContinuedFraction.golden()
    cvs = g.convergents(4)
    assert [(c.p, c.q) for c in cvs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_sqrt2_convergents():
    s2 = ContinuedFraction.sqrt2()
    cvs = s2.convergents(4)
    assert [(c.p, c.q) for c in cvs] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_rational_single_convergent():
    r = ContinuedFraction.from_rational(3)
    assert [(c.p, c.q) for c in r.convergents(0)] == [(3, 1)]


def test_values():
    assert ContinuedFraction.sqrt2().value() == QuadNum(0, 1, 2)
    assert ContinuedFraction.golden().value() == QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
    assert ContinuedFraction.from_rational(Fraction(5, 3)).value() == Fraction(5, 3)


def test_floor_part():
    assert ContinuedFraction.sqrt2().floor_part() == 1
    assert ContinuedFraction.from_rational(Fraction(5, 3)).floor_part() == 1
    assert ContinuedFraction.golden().floor_part() == 1


def test_compare():
    s2 = ContinuedFraction.sqrt2()
    assert s2.compare(Fraction(7, 5)) == 1
    assert s2.compare(Fraction(3, 2)) == -1
    r = ContinuedFraction.from_rational(Fraction(5, 3))
    assert r.compare(Fraction(5, 3)) == 0


def test_compare_opaque_source_by_enclosure():
    # sqrt2 fed as a bare coefficient callable: no exact value available
    s2 = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    assert s2.value() is None
    assert s2.compare(Fraction(7, 5)) == 1
    assert s2.compare(Fraction(3, 2)) == -1
    assert s2.compare(Fraction(41, 29)) == 1   # an even convergent itself


def test_opaque_source_prints_without_text_form():
    s2 = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    assert repr(s2) == "ContinuedFraction(source=...)"
    with pytest.raises(ValueError, match="no text form"):
        s2.to_text()


def test_precision_exhausted():
    r = ContinuedFraction.from_rational(Fraction(5, 3))
    with pytest.raises(PrecisionExhausted):
        r.convergents(9)
    short = ContinuedFraction(source=lambda i: [1, 2, 2][i])
    with pytest.raises(PrecisionExhausted):
        short.convergents(5)


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
    assert [theta.convergent(k) for k in range(5)] == cvs
    assert theta.compare(Fraction(7, 5)) == 1 and theta.floor_part() == 1
    assert calls == [0, 1, 2, 3, 4]
    with pytest.raises(PrecisionExhausted):
        theta.convergent(5)
    assert theta.convergent(3) == cvs[3]
    with pytest.raises(PrecisionExhausted):
        theta.convergent(5)


def test_canonical_form():
    for coeffs, canonical in (([2, 1], (3,)), ([1, 2, 1], (1, 3)), ([1], (1,))):
        theta = ContinuedFraction(coeffs)
        assert theta.length == len(canonical)
        assert tuple(map(theta.coefficient, range(theta.length))) == canonical
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
    cvs = theta.convergents(theta.length - 1)
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
    n = theta.length - 1
    cvs = theta.convergents(n)
    if n >= 1:
        assert abs(q_error(theta.value(), cvs[n - 1])) == Fraction(1, cvs[n].q)


def _first_miss(theta, val, k_max):
    """The q_error reference: the first k <= k_max whose convergent misses
    |q_k val - p_k| < 1/q_{k+1} (equality allowed when val = p_{k+1}/q_{k+1}),
    or None."""
    for k in range(k_max + 1):
        cv, nxt = theta.convergent(k), theta.convergent(k + 1)
        err, bound = abs(q_error(val, cv)), Fraction(1, nxt.q)
        if not (err < bound or err == bound and val == nxt.value):
            return k
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.lists(st.integers(min_value=1, max_value=5), max_size=2),
       st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3), st.data())
def test_verified_convergents_match_q_error(c0, pre, per, data):
    # the integer-pair check against the q_error reference, on the true value
    # and on planted values: a convergent p_{j+1}/q_{j+1} and its mirror
    # image across p_j/q_j (both exactly 1/q_{j+1} from it, as a rational
    # theta at its next convergent), and quadratic or rational values near
    # theta
    theta = ContinuedFraction.periodic([c0] + pre, per)
    k_max = data.draw(st.integers(min_value=0, max_value=10))
    true = theta.value()
    j = data.draw(st.integers(min_value=0, max_value=k_max + 1))
    cv, nxt = theta.convergent(j), theta.convergent(j + 1)
    mirror = Fraction(2 * cv.p * nxt.q - nxt.p * cv.q, cv.q * nxt.q)
    nudge = data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6))
    val = data.draw(st.sampled_from([true, nxt.value, mirror, true + nudge, true.a + nudge,
                                     QuadNum(true.a, true.b + nudge, true.d)]))
    theta._value_cache = val
    miss = _first_miss(theta, val, k_max)
    if miss is None:
        assert theta.convergents(k_max) == [theta.convergent(k) for k in range(k_max + 1)]
    else:
        with pytest.raises(CertificateViolation, match=f"at k={miss}$"):
            theta.convergents(k_max)


@pytest.mark.parametrize("order", [(2, 5), (5, 2)])
def test_corrupted_convergent_is_caught_in_either_order(order):
    # p_4, corrupted before any call reaches level 3, breaks the checks of
    # levels 3 and 4: the k = 5 call raises whether or not a k = 2 call has
    # checked levels 0..2 first, and no failed level is kept as checked
    theta = ContinuedFraction.sqrt2()
    want = [theta.convergent(k) for k in range(3)]
    theta._grow(6)
    theta._p[4 + 2] += 1
    for k in order:
        if k == 5:
            with pytest.raises(CertificateViolation, match="determinant"):
                theta.convergents(5)
        else:
            assert theta.convergents(2) == want
    with pytest.raises(CertificateViolation, match="determinant"):
        theta.convergents(5)


def test_convergent_levels_are_checked_once_per_slope(monkeypatch):
    # each level costs two exact sign tests, once per slope: later calls
    # check only the levels no earlier call reached, and return the same
    # records
    from laminath import cf
    calls = []
    sign = cf.pair_sign
    monkeypatch.setattr(cf, "pair_sign", lambda *args: calls.append(args) or sign(*args))
    theta = ContinuedFraction.golden()
    first = theta.convergents(5)
    assert len(calls) == 12
    assert theta.convergents(2) == first[:3] and len(calls) == 12
    assert theta.convergents(7)[:6] == first and len(calls) == 16
    assert theta.convergents(7) == ContinuedFraction.golden().convergents(7)


def test_negative_convergent_index_raises():
    theta = ContinuedFraction.sqrt2()
    for k in (-1, -2):
        with pytest.raises(ValueError):
            theta.convergent(k)
    with pytest.raises(ValueError):
        flat.homotopy_clearance(Fraction(1, 4), theta, -1)
