"""An interval exchange that no surface built: the kernel from integer data.

ABCD -> DCBA with lengths (sqrt2 - 1, 1/3, 2 - sqrt2, 2/7), so the exchange
of (0, 34/21) given as pairs (u, v) for (u + v sqrt2)/21.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import iet
from laminath.errors import CertificateViolation, SingularHit
from laminath.exactnum import QuadNum, frac_part

from reference import exact_orbit

SQRT2 = QuadNum(0, 1, 2)
LENGTHS = (SQRT2 - 1, Fraction(1, 3), 2 - SQRT2, Fraction(2, 7))
LOWS = [(0, 0), (-21, 21), (-14, 21), (28, 0)]           # A, B, C, D
SHIFTS = [(55, -21), (69, -42), (20, -21), (-28, 0)]     # images in the order D, C, B, A
END = (34, 0)


def _kernel():
    return iet._IETKernel(LOWS, SHIFTS, END, 21, 2, ["A", "B", "C", "D"])


def test_exchange_decodes_its_integer_data():
    kernel = _kernel()
    ivs = kernel.intervals
    assert [iv.hi - iv.lo for iv in ivs] == list(LENGTHS)
    assert ivs[-1].hi == Fraction(34, 21) and [iv.word for iv in ivs] == [""] * 4
    images = sorted((iv.lo + iv.shift, iv.hi + iv.shift, i) for i, iv in enumerate(ivs))
    assert [i for _, _, i in images] == [3, 2, 1, 0]
    assert images[0][0] == 0 and all(a[1] == b[0] for a, b in zip(images, images[1:]))
    with pytest.raises(CertificateViolation, match="do not tile"):
        iet._IETKernel(LOWS, SHIFTS[::-1], END, 21, 2, ["A", "B", "C", "D"])


def _outcome(orbit, state, steps):
    """Each step's index and state, and the step that raised SingularHit."""
    seen = []
    try:
        for _, i in zip(range(steps), orbit):
            seen.append((i, tuple(state)))
    except SingularHit:
        return seen, len(seen) + 1
    return seen, None


_starts = st.one_of(
    st.fractions(Fraction(1, 10 ** 6), Fraction(33, 21), max_denominator=10 ** 6),
    st.builds(lambda a, b: frac_part(QuadNum(Fraction(a, 11), Fraction(b, 13), 2)),
              st.integers(-30, 30), st.integers(1, 12)))


@settings(max_examples=30, deadline=None)
@given(_starts, st.booleans())
def test_keyed_orbit_matches_exact_orbit(x, back):
    # 2,000 steps each way, from points over other denominators (a rescaled
    # copy) and of the exchange's field
    kernel = _kernel().fast(x)
    state = kernel.start(x)
    ref, got = list(state), list(state)
    want = _outcome(exact_orbit(kernel, ref, back), ref, 2000)
    assert _outcome(kernel.orbit(got, back=back), got, 2000) == want


def test_orbit_returns_exactly():
    # 2,000 steps forward and back on the exchange's own denominator
    kernel = _kernel()
    x = Fraction(10, 21)
    state = kernel.start(x)
    for _, _ in zip(range(2000), kernel.orbit(state)):
        pass
    assert kernel.value(state) != x
    for _, _ in zip(range(2000), kernel.orbit(state, back=True)):
        pass
    assert kernel.value(state) == x


@settings(max_examples=30, deadline=None)
@given(_starts, st.integers(1, 20_000))
def test_tower_stream_equals_plain_stepping(x, n):
    kernel = _kernel().fast(x)
    induced = kernel.towers
    assert induced.end != kernel.end and min(map(len, induced.words)) > 1
    state = kernel.start(x)

    def plain():
        orbit = kernel.orbit(list(state))
        return "".join([kernel.words[next(orbit)] for _ in range(n)])

    def outcome(stream):
        try:
            return stream()
        except SingularHit as exc:
            return str(exc)

    assert outcome(lambda: kernel.letters(list(state), n)) == outcome(plain)
