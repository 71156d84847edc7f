import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from laminath import flat, oracle, words
from laminath.cf import ContinuedFraction, Convergent, partial_quotients
from laminath.errors import (CertificateViolation, ClearanceViolated, InvalidGrowthFunction,
                             PrecisionExhausted, SingularHit)
from laminath.exactnum import QuadNum, exact_floor, frac_part

import reference as ref
from reference import (concat, cutting_blocks, is_finite, path_crossing_word, rotate,
                       three_distance_points)

SQRT2 = ContinuedFraction.sqrt2()
R53 = ContinuedFraction.from_rational(Fraction(5, 3))


# -- cutting sequences ---------------------------------------------------------

def test_cutting_sequence_example():
    assert flat.cutting_sequence(Fraction(1, 4), R53, 8) == "babbabba"


def test_cutting_sequence_integer_slope():
    r2 = ContinuedFraction.from_rational(2)
    assert flat.cutting_sequence(Fraction(1, 7), r2, 3) == "bba"


def test_cutting_sequence_singular():
    with pytest.raises(SingularHit) as exc:
        flat.cutting_sequence(Fraction(1, 3), R53, 8)
    assert tuple(exc.value.point) == (1, 2)


def test_cutting_sequence_rational_periodicity():
    # rational slope words repeat with period p + q and each period is a
    # rotation of the convergent word
    for r in (Fraction(5, 3), Fraction(7, 5), Fraction(7, 2)):
        theta = ContinuedFraction.from_rational(r)
        period = r.numerator + r.denominator
        word = flat.cutting_sequence(Fraction(1, 2 * r.denominator), theta,
                                     3 * period)
        assert word[:period] * 3 == word
        bw = words.letters_to_blocks(word[:period])
        base = words.simple_word(r, 1)
        assert any(rotate(base, j).blocks == bw.blocks
                   for j in range(len(base.blocks)))


def test_cutting_sequence_opaque_source():
    lazy = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    exact = flat.cutting_sequence(Fraction(1, 4), SQRT2, 64)
    assert flat.cutting_sequence(Fraction(1, 4), lazy, 64) == exact


# -- the Sturmian kernel against slow references ---------------------------------

def _reference_walk(s, theta):
    """The exact step-by-step crossing walk: compares theta m + s with the
    next horizontal line n before every letter; raises SingularHit where the
    line meets a lattice point."""
    theta_val = theta.value()
    m, n = 1, exact_floor(s) + 1
    while True:
        if theta_val is not None:
            crit = theta_val * m + s
            cmp = 1 if crit > n else (-1 if crit < n else 0)
        else:
            cmp = theta.compare(Fraction(n - s, m))
        if cmp == 0:
            raise SingularHit(f"line hits lattice point ({m}, {n})",
                              point=flat.FlatPoint(Fraction(m), Fraction(n)))
        if cmp > 0:
            yield "b"
            n += 1
        else:
            yield "a"
            m += 1


def _walk_letters(s, theta, num_letters):
    return "".join(itertools.islice(_reference_walk(s, theta), num_letters))


def _walk_blocks(s, theta, num_blocks):
    walk = _reference_walk(s, theta)
    blocks, count = [], 0
    while len(blocks) < num_blocks:
        if next(walk) == "b":
            count += 1
        else:
            blocks.append(count)
            count = 0
    return tuple(blocks)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SingularHit as exc:
        return "hit", tuple(exc.point)


@st.composite
def _slopes(draw):
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=30))
        p = draw(st.integers(min_value=1, max_value=5 * q))
        return ContinuedFraction.from_rational(Fraction(p, q))
    c0 = draw(st.integers(min_value=0, max_value=3))
    pre = draw(st.lists(st.integers(min_value=1, max_value=4), max_size=2))
    per = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    return ContinuedFraction.periodic([c0] + pre, per)


def _rational_heights(theta):
    # heights over the slope's denominator meet the lattice
    q = theta.value().denominator if is_finite(theta) else 7
    return st.one_of(
        st.fractions(min_value=-2, max_value=3, max_denominator=60),
        st.integers(min_value=-2 * q, max_value=3 * q).map(lambda k: Fraction(k, q)))


def _heights(theta):
    # quadratic heights a + b theta lie in theta's field; integer a and b
    # put a lattice point on the line at abscissa -b
    val = theta.value()
    unit = QuadNum(0, 1, 2) if is_finite(theta) else val
    quadratic = st.builds(lambda a, b: a + b * unit,
                          st.one_of(st.integers(min_value=-2, max_value=3),
                                    st.fractions(min_value=-2, max_value=3,
                                                 max_denominator=4)),
                          st.integers(min_value=-6, max_value=2))
    return st.one_of(_rational_heights(theta), quadratic)


@settings(max_examples=150, deadline=None)
@given(_slopes(), st.data())
def test_cutting_matches_reference_walk(theta, data):
    s = data.draw(_heights(theta))
    n = data.draw(st.integers(min_value=0, max_value=250))
    assert (_outcome(flat.cutting_sequence, s, theta, n)
            == _outcome(_walk_letters, s, theta, n))
    assert (_outcome(cutting_blocks, s, theta, n // 2)
            == _outcome(_walk_blocks, s, theta, n // 2))
    if not is_finite(theta) and not isinstance(s, QuadNum):
        lazy = ContinuedFraction(source=theta.coefficient)
        assert _outcome(flat.cutting_sequence, s, lazy, n) == _outcome(_walk_letters, s, theta, n)


@settings(max_examples=100, deadline=None)
@given(_slopes(), st.data())
def test_oracle_streams_are_floor_differences(theta, data):
    # the streams read floor differences straight through lattice hits
    s = data.draw(_rational_heights(theta))
    num_blocks = data.draw(st.integers(min_value=0, max_value=200))
    val = theta.value()
    floors = [exact_floor(j * val + s) for j in range(num_blocks + 1)]
    ref = [y - x for x, y in zip(floors, floors[1:])]
    assert oracle.leaf_block_stream(theta, s, num_blocks) == ref
    letters = "".join("b" * n + "a" for n in ref)
    n = data.draw(st.integers(min_value=0, max_value=len(letters)))
    assert oracle.leaf_letter_stream(theta, s, n) == letters[:n]
    if not is_finite(theta):
        # an opaque twin meets no lattice point at a rational height either
        lazy = ContinuedFraction(source=theta.coefficient)
        assert oracle.leaf_block_stream(lazy, s, num_blocks) == ref
        assert oracle.leaf_letter_stream(lazy, s, n) == letters[:n]


@pytest.mark.parametrize("s", [-1, 0, Fraction(5, 2), Fraction(-1, 58)])
@pytest.mark.parametrize("n", [0, 1, 2, 11])
def test_opaque_edge_cases_match_reference_walk(s, n):
    # c0 = 0 and c1 = 1000 make theta's first blocks all 0, and an integer
    # height starts theta's line on a horizontal grid line, just below the
    # stand-in line's nudged start
    lazy = ContinuedFraction(source=lambda i: (0, 1000)[i] if i < 2 else 2)
    assert flat.sturmian_letters(lazy, s, n) == (_walk_letters(s, lazy, n), None)
    assert flat.sturmian_blocks(lazy, s, n) == (list(_walk_blocks(s, lazy, n)), None)


def test_ending_opaque_source_is_exhausted():
    # an opaque source is irrational by contract; one that ends raises once
    # the stand-in line needs a convergent past its end, here where the
    # enclosure walk once answered "babba"
    lazy = ContinuedFraction(source=lambda i: [1, 2, 2][i])
    with pytest.raises(PrecisionExhausted):
        flat.cutting_sequence(Fraction(1, 4), lazy, 5)
    with pytest.raises(PrecisionExhausted):
        cutting_blocks(Fraction(1, 4), lazy, 2)


def _blocks_python(E, F, S, G, d, C, J):
    """The reference block kernel: one exact isqrt floor per block."""
    floors = []
    for j in range(J + 1):
        B = F * j + G
        t = B * B * d
        root = math.isqrt(t)
        if B < 0:
            root = -root - (root * root != t)
        floors.append((E * j + S + root) // C)
    return [y - x for x, y in zip(floors, floors[1:])]


def _plan(E, F, d, C, J, cap, letters=False):
    """The window kernel's slope half for J blocks, or with q capped at
    ``cap`` when given: the plan for cap - 1 blocks."""
    return flat._slope_plan(E, F, d, C, J if cap is None else cap - 1, letters)


def _window_blocks(E, F, S, G, d, C, J, cap):
    """Blocks of the window kernel's block read-out with its window length
    capped at ``cap``."""
    offsets, c = flat._window_blocks(E, F, S, G, d, C, J, plan=_plan(E, F, d, C, J, cap))
    return [o + c for o in offsets]


def _letter_read(E, F, S, G, d, C, J, cap):
    """(read, want): the letter read-out's whole windows over J blocks, its
    window length capped at ``cap``, and the reference letters of the same
    blocks."""
    plan = _plan(E, F, d, C, J, cap, letters=True)
    q = plan[2]
    want = "".join("b" * n + "a" for n in _blocks_python(E, F, S, G, d, C, -(-J // q) * q))
    return flat._window_read(plan, flat._window_plan(plan, E, F, S, G, d, C, J)), want


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-60, max_value=60),
       st.one_of(st.just(0), st.integers(min_value=-20, max_value=20)),
       st.integers(min_value=-900, max_value=900),
       st.one_of(st.just(0), st.integers(min_value=-900, max_value=900)),
       st.sampled_from([2, 3, 5, 7, 13]), st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=300),
       st.sampled_from([None, 1, 2, 3, 5, 30]))
def test_window_blocks_match_reference(E, F, S, G, d, C, J, cap):
    # any sign of E and F, slopes below 1, rational slopes (F = 0: no defect
    # once q reaches the denominator), and short windows (cap = 2: a
    # defect in most windows)
    ref = _blocks_python(E, F, S, G, d, C, J)
    assert list(flat._block_values(*flat._window_blocks(E, F, S, G, d, C, J))) == ref
    assert _window_blocks(E, F, S, G, d, C, J, cap) == ref
    # a slope plan built at another scale of the same slope reads the same
    plan = _plan(3 * E, 3 * F, d, 3 * C, J, cap)
    offsets, c = flat._window_blocks(E, F, S, G, d, C, J, plan=plan)
    assert [c + o for o in offsets] == ref
    if E + F * QuadNum(0, 1, d) >= 0:
        read, want = _letter_read(E, F, S, G, d, C, J, cap)
        assert read == want


def test_block_period_matches_direct_floors():
    # every P/q with q <= 60 and integer part 0..3, in its canonical
    # expansion and in the one ending in 1 that a window convergent may have;
    # q = 1 gives [c] and [c - 1; 1], whose block c is offset 1 from c - 1.
    # The periods from level l on are those of the truncations [c; a_1..a_l],
    # in the letter images too where c >= 0
    for q in range(1, 61):
        for P in range(4 * q):
            if math.gcd(P, q) != 1:
                continue
            canonical = list(partial_quotients(P, 0, 0, q))
            for form in (canonical, canonical[:-1] + [canonical[-1] - 1, 1]):
                want = []
                p0, q0, p1, q1 = 0, 1, 1, 0
                for a in form:
                    p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
                    want.append(bytes((t + 1) * p1 // q1 - t * p1 // q1 - form[0]
                                      for t in range(q1)))
                c = form[0]
                letters = ["".join("b" * (c + o) + "a" for o in w) for w in want]
                for l in range(len(form)):
                    assert list(flat._block_periods(form, l)) == want[l:], (P, q, form, l)
                    if c >= 0:  # letters b^c a need c >= 0
                        assert list(flat._block_periods(form, l, flat._letter_images(c))
                                    ) == letters[l:], (P, q, form, l)


def test_window_blocks_short_lengths_and_steep_slopes():
    # blocks of 255 and more do not fit the byte-per-block read-out
    for form in ((7, 5, 3, 2, 2, 9), (-7, 0, 3, 0, 2, 5), (0, -3, 11, 4, 5, 7),
                 (1000, 1, 3, 2, 2, 3), (-1000, -1, 3, 2, 2, 3)):
        for J in (0, 1, 40):
            assert (list(flat._block_values(*flat._window_blocks(*form, J)))
                    == _blocks_python(*form, J))
    assert flat.sturmian_letters(SQRT2, Fraction(1, 4), 0) == ("", None)
    assert flat.sturmian_letters(SQRT2, Fraction(1, 4), 1)[0] == "b"


@pytest.mark.parametrize("s, cap, p", [
    (Fraction(1, 10), 2, 3),    # 3/2 > sqrt2, r = 0: one 'b' dropped at i* = q
    (Fraction(19, 20), 5, 7),   # 7/5 < sqrt2, r = q - 1: one 'b' added at i* = q
    (Fraction(7, 10), 1, 1),    # 1/1, q = 1: every window ends on i* = q
])
def test_window_defect_at_the_window_end(s, cap, p):
    E, F, S, G, d, C = flat._integer_form(SQRT2.value(), s)
    for J in (1, cap, 3 * cap + 1, 50):
        ref = _blocks_python(E, F, S, G, d, C, J)
        assert _window_blocks(E, F, S, G, d, C, J, cap) == ref
        read, want = _letter_read(E, F, S, G, d, C, J, cap)
        assert read == want
    # the first window really carries the defect: its q blocks do not sum to p
    assert sum(_blocks_python(E, F, S, G, d, C, cap)) != p


def test_long_stream_matches_reference():
    s = Fraction(267711, 1_000_003)
    E, F, S, G, d, C = flat._integer_form(SQRT2.value(), s)
    letters = "".join("b" * n + "a" for n in _blocks_python(E, F, S, G, d, C, 42_000))
    assert oracle.leaf_letter_stream(SQRT2, s, 100_000) == letters[:100_000]


@pytest.mark.parametrize("text", ["5/3", "7/5", "cf:[2;3,1]"])
def test_rational_read_outs_match_exact_floors(text):
    # at a slope p/q every window is the first, read once and repeated: J of
    # about 20k blocks, thousands of windows of q <= 5 blocks, equals the
    # exact floors in both images, at rational and quadratic heights, one of
    # them on the lattice
    theta = ContinuedFraction.from_text(text)
    val, n = theta.value(), 50_000
    for s in (Fraction(1, 7), Fraction(-5, 11), Fraction(0), QuadNum(Fraction(1, 3), 1, 2)):
        E, F, S, G, d, C, J = flat._letter_line(theta, s, n)
        assert J > 3000 * val.denominator
        blocks = _blocks_python(E, F, S, G, d, C, J)
        hit = next(((j, exact_floor(j * val + s)) for j in range(1, J + 1)
                    if j * val + s == exact_floor(j * val + s)), None)
        assert flat.sturmian_blocks(theta, s, J) == (blocks, hit)
        letters = "".join("b" * k + "a" for k in blocks)
        assert flat.sturmian_letters(theta, s, n)[0] == letters[:n]
        assert len(letters) >= n and (hit is None) == (s != 0)


# -- transverse measure -----------------------------------------------------------

def test_measure_trivials():
    val = SQRT2.value()
    leaf = flat.FlatPath([flat.FlatPoint(Fraction(1, 7), Fraction(1, 7)),
                          flat.FlatPoint(Fraction(8, 7), Fraction(1, 7) + val)],
                         validate=False)
    assert flat.transverse_measure(leaf, val) == 0
    vert = flat.FlatPath([flat.FlatPoint(Fraction(1, 7), Fraction(0)),
                          flat.FlatPoint(Fraction(1, 7), Fraction(5, 3))],
                         validate=False)
    assert flat.transverse_measure(vert, val) == Fraction(5, 3)


def test_measure_closed_convergent_segment():
    # (0,s) -> (q2, s + p2) against sqrt2: |q theta - p| = 5 sqrt2 - 7 < 1/12
    val = SQRT2.value()
    s = Fraction(1, 4)
    seg = flat.FlatPath([flat.FlatPoint(Fraction(0), s),
                         flat.FlatPoint(Fraction(5), s + 7)], validate=False)
    m = flat.transverse_measure(seg, val)
    assert m == QuadNum(-7, 5, 2)
    assert m < Fraction(1, 12)


def test_measure_normalized_float():
    val = SQRT2.value()
    vert = flat.FlatPath([flat.FlatPoint(Fraction(1, 7), Fraction(0)),
                          flat.FlatPoint(Fraction(1, 7), Fraction(1))],
                         validate=False)
    norm = flat.transverse_measure(vert, val, normalized=True)
    assert abs(norm - 1 / math.sqrt(3)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=10, max_denominator=30),
                          st.fractions(min_value=0, max_value=10, max_denominator=30)),
                min_size=3, max_size=6))
def test_measure_additive(points):
    pts = [flat.FlatPoint(x, y) for x, y in points]
    val = SQRT2.value()
    whole = flat.FlatPath(pts, validate=False)
    total = flat.transverse_measure(whole, val)
    split = sum((flat.transverse_measure(
        flat.FlatPath(pts[i:i + 2], validate=False), val)
        for i in range(len(pts) - 1)), Fraction(0))
    assert total == split


def test_path_validation():
    with pytest.raises(SingularHit):
        flat.FlatPath([flat.FlatPoint(Fraction(1, 2), Fraction(0)),
                       flat.FlatPoint(Fraction(3, 2), Fraction(2))])  # passes (1,1)
    with pytest.raises(SingularHit):
        flat.FlatPath([flat.FlatPoint(Fraction(1), Fraction(1)),
                       flat.FlatPoint(Fraction(2), Fraction(3, 2))])  # lattice vertex
    # cusp-marked lattice vertices are allowed
    flat.FlatPath([flat.FlatPoint(Fraction(0), Fraction(0)),
                   flat.FlatPoint(Fraction(2), Fraction(3))],
                  ["cusp", "cusp"])


def _scan_lattice_hit(p, q):
    """The O(q) reference: every integer abscissa inside the segment in
    exact field arithmetic."""
    dx, dy = q.x - p.x, q.y - p.y
    if dx == 0:
        if not flat._is_integer(p.x):
            return None
        lo, hi = (p.y, q.y) if p.y < q.y else (q.y, p.y)
        n = exact_floor(lo) + 1
        while n < hi:
            if n > lo:
                return flat.FlatPoint(p.x, Fraction(n))
            n += 1
        return None
    x_lo, x_hi = (p.x, q.x) if p.x < q.x else (q.x, p.x)
    m = exact_floor(x_lo) + 1
    while m < x_hi:
        y = p.y + (m - p.x) * dy / dx
        if flat._is_integer(y):
            return flat.FlatPoint(Fraction(m), y)
        m += 1
    return None


@st.composite
def _segments(draw):
    # coordinates in Q or Q(sqrt d); directions general, horizontal or
    # vertical; some lines are forced through a lattice point
    d = draw(st.sampled_from([None, 2, 3, 5]))
    small = st.fractions(min_value=-12, max_value=12, max_denominator=12)

    def number(bound=12):
        a = draw(st.fractions(min_value=-bound, max_value=bound, max_denominator=12))
        if d is None or draw(st.booleans()):
            return a
        return QuadNum(a, draw(st.fractions(min_value=-3, max_value=3,
                                            max_denominator=6)), d)

    kind = draw(st.sampled_from(["free", "horizontal", "vertical", "through"]))
    if kind == "through":
        m, n = (draw(st.integers(min_value=-8, max_value=8)) for _ in range(2))
        ux, uy = number(3), number(3)
        if ux == 0 and uy == 0:
            ux = Fraction(1)
        t0, t1 = (draw(st.fractions(min_value=Fraction(1, 8), max_value=4,
                                    max_denominator=8)) for _ in range(2))
        return (flat.FlatPoint(m - t0 * ux, n - t0 * uy),
                flat.FlatPoint(m + t1 * ux, n + t1 * uy))
    p = flat.FlatPoint(number(), number())
    if kind == "horizontal":
        y = draw(st.one_of(st.integers(min_value=-8, max_value=8).map(Fraction), small))
        return flat.FlatPoint(p.x, y), flat.FlatPoint(number(), y)
    if kind == "vertical":
        x = draw(st.one_of(st.integers(min_value=-8, max_value=8).map(Fraction), small))
        return flat.FlatPoint(x, p.y), flat.FlatPoint(x, number())
    return p, flat.FlatPoint(number(), number())


@settings(max_examples=400, deadline=None)
@given(_segments())
def test_segment_lattice_hit_matches_scan(seg):
    p, q = seg
    if p == q:
        return
    fast = flat._segment_lattice_hit(p, q)
    ref = _scan_lattice_hit(p, q)
    assert (None if fast is None else tuple(fast)) == (None if ref is None else tuple(ref))
    assert flat._segment_lattice_hit(q, p) == fast


def test_lattice_test_is_independent_of_length():
    # the cost does not grow with the ~10^12 abscissas a scan would visit
    big = 10 ** 12
    clear = [flat.FlatPoint(Fraction(1, 3), Fraction(1, 7)),
             flat.FlatPoint(big + Fraction(1, 3), Fraction(1, 7) + Fraction(big, 2))]
    flat.FlatPath(clear)
    # slope 1/(2 big) meets the lattice only at (m, 0), near the far end
    m, slope = big - 5, Fraction(1, 2 * big)
    xs = (Fraction(1, 3), big + Fraction(1, 2))
    with pytest.raises(SingularHit) as exc:
        flat.FlatPath([flat.FlatPoint(x, (x - m) * slope) for x in xs])
    assert tuple(exc.value.point) == (m, 0)
    # an irrational slope through one far lattice point
    val = SQRT2.value()
    xs = (Fraction(1, 3), big + Fraction(1, 3))
    with pytest.raises(SingularHit) as exc:
        flat.FlatPath([flat.FlatPoint(x, 7 + (x - m) * val) for x in xs])
    assert tuple(exc.value.point) == (m, 7)


def test_path_concat():
    a = flat.FlatPath([flat.FlatPoint(Fraction(1, 7), Fraction(1, 7)),
                       flat.FlatPoint(Fraction(1, 7), Fraction(6, 7))],
                      validate=False)
    b = flat.FlatPath([flat.FlatPoint(Fraction(1, 7), Fraction(6, 7)),
                       flat.FlatPoint(Fraction(5, 7), Fraction(6, 7))],
                      ["start", "hop"], validate=False)
    joined = concat(a, b)
    assert len(joined.vertices) == 3
    val = SQRT2.value()
    assert (flat.transverse_measure(joined, val)
            == flat.transverse_measure(a, val) + flat.transverse_measure(b, val))
    with pytest.raises(ValueError):
        concat(b, a)


def test_path_json_round_trip():
    cert = words.inadmissible_segment(SQRT2, 2)
    doc = cert.path.to_json()
    back = flat.FlatPath.from_json(doc)
    assert [tuple(p) for p in back.vertices] == [tuple(p) for p in cert.path.vertices]
    assert back.markers == cert.path.markers


# -- rotation orbit structure ---------------------------------------------------------

def test_three_distance_example():
    pts = three_distance_points(Fraction(1, 4), Fraction(7, 5))
    assert pts == [Fraction(1, 20), Fraction(5, 20), Fraction(9, 20),
                   Fraction(13, 20), Fraction(17, 20)]
    gaps = {b - a for a, b in zip(pts, pts[1:])}
    assert gaps == {Fraction(1, 5)}


def test_three_distance_trivial():
    assert three_distance_points(Fraction(1, 3), Fraction(1, 1)) == [Fraction(1, 3)]


def _sorted_heights(s, r):
    """The reference: every height s + r l mod 1, sorted."""
    r = Fraction(r)
    return sorted(frac_part(s + r * l) for l in range(r.denominator))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                              max_denominator=60),
                 st.builds(QuadNum, st.fractions(min_value=-2, max_value=2,
                                                 max_denominator=9),
                           st.integers(min_value=-3, max_value=3), st.just(2)),
                 st.integers(min_value=-3, max_value=3)),
       st.fractions(min_value=1, max_value=8, max_denominator=12))
def test_three_distance_gaps(s, r):
    pts = three_distance_points(s, r)
    q = r.denominator
    assert len(pts) == q
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    assert all(g == Fraction(1, q) for g in gaps)
    ref = _sorted_heights(s, r)
    assert pts == ref and [type(x) for x in pts] == [type(x) for x in ref]


def _clearance_reference(s, theta, k):
    """The Fraction loop: every height and both integer parts per l."""
    cv = theta.convergent(k)
    r = Fraction(cv.p, cv.q)
    eps = (1 - s) if k % 2 == 0 else s
    if not Fraction(1, cv.q) < eps:
        raise ClearanceViolated(f"need 1/q_k < eps at k={k}")
    heights = [frac_part(s + r * l) for l in range(cv.q)]
    pick = max if k % 2 == 0 else min
    l0 = pick(range(cv.q), key=lambda l: heights[l])
    theta_val = theta.value()
    agreements = []
    for l in range(cv.q):
        if l == l0:
            continue
        f_theta = exact_floor(theta_val * l + s)
        if f_theta != exact_floor(r * l + s):
            raise AssertionError(f"integer parts split at l={l}")
        agreements.append((l, f_theta))
    return SimpleNamespace(k=k, l0=l0, heights=tuple(heights), agreements=tuple(agreements))


def _clearance_outcome(fn, *args):
    try:
        cert = fn(*args)
    except ClearanceViolated:
        return "violated"
    return (cert.k, cert.l0, cert.heights, cert.agreements), [type(h) for h in cert.heights]


@settings(max_examples=150, deadline=None)
@given(_slopes(), st.data())
def test_clearance_matches_fraction_loop(theta, data):
    ks = [k for k in range(theta.length or 12) if theta.convergent(k).q <= 400]
    k = data.draw(st.sampled_from(ks))
    q = theta.convergent(k).q
    rational = st.one_of(st.fractions(min_value=-1, max_value=2, max_denominator=50),
                         st.integers(min_value=-q, max_value=2 * q).map(
                             lambda n: Fraction(2 * n + 1, 2 * q)))
    # heights in an irrational slope's field: a + b theta
    quadratic = st.builds(lambda a, b: a + b * theta.value(), rational,
                          st.integers(min_value=-2, max_value=2))
    s = data.draw(rational if is_finite(theta) else st.one_of(rational, quadratic))
    ref = _clearance_outcome(_clearance_reference, s, theta, k)
    assert _clearance_outcome(flat.homotopy_clearance, s, theta, k) == ref
    if not is_finite(theta) and not isinstance(s, QuadNum):
        lazy = ContinuedFraction(source=theta.coefficient)
        assert _clearance_outcome(flat.homotopy_clearance, s, lazy, k) == ref


def test_homotopy_clearance_example():
    cert = flat.homotopy_clearance(Fraction(1, 4), SQRT2, 2)
    assert cert.l0 == 4
    assert [l for l, _ in cert.agreements] == [0, 1, 2, 3]


def test_homotopy_clearance_violation():
    with pytest.raises(ClearanceViolated):
        flat.homotopy_clearance(Fraction(9, 10), SQRT2, 2)


def test_homotopy_clearance_opaque_source():
    # an opaque slope reads the block kernel on a convergent stand-in line
    lazy = ContinuedFraction(source=SQRT2.coefficient)
    for s, k in ((Fraction(1, 4), 2), (Fraction(3, 4), 3), (Fraction(1, 3), 6)):
        assert flat.homotopy_clearance(s, lazy, k) == flat.homotopy_clearance(s, SQRT2, k)


def test_homotopy_clearance_odd():
    cert = flat.homotopy_clearance(Fraction(3, 4), SQRT2, 3)
    assert cert.k == 3
    assert len(cert.agreements) == SQRT2.convergent(3).q - 1


@pytest.mark.parametrize("s, k", [(Fraction(1, 4), 4), (Fraction(3, 4), 5), (Fraction(1, 3), 6),
                                  (Fraction(2, 3), 7), (Fraction(-1, 58), 4), (Fraction(23, 58), 4),
                                  (Fraction(25, 24), 3), (Fraction(59, 140), 5)])
def test_clearance_catches_one_flipped_block(s, k):
    # the clearance reads only theta's convergent, so the faults are planted
    # there.  (p_k +- 1)/q_k is the convergent line with one block flipped:
    # floor(j (p_k +- 1)/q_k + s) - floor(j p_k/q_k + s) steps once on j < q_k.
    # It lies on the wrong side of theta or too far from it; a convergent of
    # the other parity lies on the wrong side.  The last four cases put l0 at
    # 0 or q_k - 1
    cert = flat.homotopy_clearance(s, SQRT2, k)
    cv, val = SQRT2.convergent(k), SQRT2.value()

    def planted(p, q):
        return SimpleNamespace(convergent=lambda j: Convergent(j, p, q), value=lambda: val)

    assert flat.homotopy_clearance(s, planted(cv.p, cv.q), k) == cert
    side, far = "wrong side of theta", r"is not below 1"
    faults = [(cv.p + 1, cv.q, side if k % 2 == 0 else far),
              (cv.p - 1, cv.q, far if k % 2 == 0 else side)]
    faults += [(other.p, other.q, side) for other in (SQRT2.convergent(k - 1),
                                                       SQRT2.convergent(k + 1))]
    for p, q, message in faults:
        with pytest.raises(CertificateViolation, match=message):
            flat.homotopy_clearance(s, planted(p, q), k)


# -- growth probes ----------------------------------------------------------------------

def test_linear_probe_exact_values():
    val = SQRT2.value()
    rows = flat.linear_growth_probe(SQRT2, Fraction(0), 8, 8)
    for row in rows:
        assert row.measure == val * row.t
    rows_v = flat.linear_growth_probe(SQRT2, "vertical", 8, 8)
    for row in rows_v:
        assert row.measure == row.t
    rows_leaf = flat.linear_growth_probe(SQRT2, val, 8, 4)
    assert all(r.measure == 0 for r in rows_leaf)


def test_linear_probe_proportionality():
    rows = flat.linear_growth_probe(SQRT2, Fraction(1, 3), 12, 12)
    unit = rows[0].measure / rows[0].t
    for r1, r2 in zip(rows, rows[1:]):
        assert r2.measure - r1.measure == (r2.t - r1.t) * unit


def test_prescribed_growth_sqrt():
    path, rows = flat.prescribed_growth_path(SQRT2, math.sqrt, 5)
    assert len(rows) == 5
    for n, row in enumerate(rows, start=1):
        assert row.measure == n
        assert abs(float(row.measure) - row.target) <= 1
    # segment lengths approximate 2n - 1
    ts = [float(r.t) for r in rows]
    for n in range(1, 6):
        expect = n * n
        assert abs(ts[n - 1] - expect) < 1e-6


def test_prescribed_growth_log():
    path, rows = flat.prescribed_growth_path(SQRT2, math.log1p, 4)
    for n, row in enumerate(rows, start=1):
        assert abs(float(row.measure) - row.target) <= 1
        assert abs(row.target - n) < 1e-6


def test_prescribed_growth_stops_at_the_cap():
    # joints stop before the first one beyond t_cap, the square n^2
    for t_cap, count in ((4, 1), (16, 4), (36, 6)):
        _, rows = flat.prescribed_growth_path(SQRT2, math.sqrt, 6, t_cap=Fraction(t_cap))
        assert len(rows) == count and all(row.t <= t_cap for row in rows), t_cap


def test_prescribed_growth_zero():
    path, rows = flat.prescribed_growth_path(SQRT2, lambda t: 0.0, 4)
    assert rows == []
    assert flat.transverse_measure(path, SQRT2.value()) == 0


def test_prescribed_growth_invalid():
    with pytest.raises(InvalidGrowthFunction):
        flat.prescribed_growth_path(SQRT2, lambda t: 1.0, 3)


def _growth_target(kind: str, x: float):
    """A target with f(0) = 0: t**x, x log1p(t), 10**-x t, or a plateau of
    height 1 + x from t = 1/2 on, where a bracket for n < 1 + x raises."""
    return {"power": lambda t: t ** x, "log": lambda t: x * math.log1p(t),
            "linear": lambda t: 10 ** -x * t, "plateau": lambda t: (1 + x) * (t >= 0.5)}[kind]


def _growth_outcome(build, theta, target, n_segments, t_cap):
    """Path JSON and rows (t, I, repr(f(t))), or the raised error's type and text."""
    try:
        path, rows = build(theta, _growth_target(*target), n_segments, t_cap=t_cap)
    except Exception as exc:
        return type(exc), str(exc)
    return path.to_json(), [(row.t, row.measure, repr(row.target)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(target=st.one_of(st.tuples(st.just("power"), st.floats(0.05, 0.95)),
                        st.tuples(st.just("log"), st.floats(0.05, 8)),
                        st.tuples(st.just("linear"), st.floats(0, 61)),
                        st.tuples(st.just("plateau"), st.floats(0, 8))),
       t_cap=st.one_of(st.none(), st.just(2 ** 205),
                       st.fractions(Fraction(1, 16), 64, max_denominator=16)),
       n_segments=st.integers(0, 12),
       theta=st.sampled_from(["cf:[1;2]p", "7/5", "cf:[0;3]p"]))
@example(target=("linear", 61.0), t_cap=2 ** 205, n_segments=3, theta="cf:[1;2]p")
@example(target=("linear", 60.3), t_cap=2 ** 205, n_segments=3, theta="cf:[1;2]p")
@example(target=("linear", 60.0), t_cap=2 ** 205, n_segments=3, theta="cf:[1;2]p")
@example(target=("plateau", 4.0), t_cap=None, n_segments=5, theta="7/5")
@example(target=("power", 0.5), t_cap=Fraction(5), n_segments=6, theta="cf:[0;3]p")
def test_prescribed_growth_matches_two_pass_reference(target, t_cap, n_segments, theta):
    # one loop lays each joint's leaf, hop and row; the reference finds every
    # joint first.  c t with c = 1e-61 needs more than 200 doublings, a
    # plateau raises at a bracket that starts on it, and a cap below a
    # doubling ends the path even where f reaches n there.  Where f jumps, so
    # that the reference's row at joint j breaks |I - f| <= 1 (its first j
    # joints are those of its j-segment path), the product raises at joint j
    theta = ContinuedFraction.from_text(theta)
    got = _growth_outcome(flat.prescribed_growth_path, theta, target, n_segments, t_cap)
    want = _growth_outcome(ref.prescribed_growth_path, theta, target, n_segments, t_cap)
    for j in range(1, n_segments + 1):
        rows = (want[1] if isinstance(want[1], list) else
                _growth_outcome(ref.prescribed_growth_path, theta, target, j, t_cap)[1])
        if isinstance(rows, list) and len(rows) >= j and abs(j - float(rows[j - 1][2])) > 1:
            want = InvalidGrowthFunction, f"|I - f| exceeds 1 at joint {j}"
            break
    assert got == want


@pytest.mark.parametrize("at, height, n_segments, joint", [
    (0.5, 5.0, 3, 2), (0.5, 5.0, 5, 2), (0.3, 2.25, 1, 1)])
def test_prescribed_growth_rejects_a_jumping_target(at, height, n_segments, joint):
    # f = height from t = at on: bisection puts the first joints at the jump,
    # where f reads 0 or height.  With f = 5 from 1/2 on, joint 1 reads 0
    # (|I - f| = 1 holds) and joint 2 reads 0; with f = 2.25 from 0.3 on,
    # joint 1 reads 2.25
    with pytest.raises(InvalidGrowthFunction, match=rf"\|I - f\| exceeds 1 at joint {joint}$"):
        flat.prescribed_growth_path(SQRT2, lambda t: height * (t >= at), n_segments)


def test_sliding_windows_are_convergent_rotations():
    # any q_k-block window whose start height clears the lattice strip is a
    # rotation of the k-th convergent word
    val = SQRT2.value()
    s = Fraction(1, 4)
    for k in (2, 3, 4):
        cv = SQRT2.convergent(k)
        q = cv.q
        blocks = cutting_blocks(s, SQRT2, 40 + q)
        base = words.simple_word(Fraction(cv.p, cv.q), 1)
        rotations = {rotate(base, j) for j in range(q)}
        checked = 0
        for j in range(40):
            y = frac_part(s + val * j)
            eps = (1 - y) if k % 2 == 0 else y
            if Fraction(1, q) < eps:
                assert words.BlockWord(base.base, blocks[j:j + q]) in rotations
                checked += 1
        assert checked > 20


# -- crossing words -----------------------------------------------------------------------

def test_path_crossing_word_matches_cutting_sequence():
    # a single straight leaf segment reproduces the cutting sequence
    word = flat.cutting_sequence(Fraction(1, 4), R53, 8)
    # 8 letters end just past x = 3: crossings during x in (0, 3]
    seg = flat.FlatPath([flat.FlatPoint(Fraction(0), Fraction(1, 4)),
                         flat.FlatPoint(Fraction(3), Fraction(1, 4) + 5)],
                        validate=False)
    assert path_crossing_word(seg) == word
