"""Surface set-up: validation, corner germs and the return map's construction.

The set-up runs on the integer pairs of each surface's encoding; the
Fraction/QuadNum predicates below are its slow reference, and the pins hold
the exchanges the set-up built before it moved onto pairs."""

import hashlib
import math
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from laminath import tsurface as ts
from laminath.cf import ContinuedFraction
from laminath.errors import InvalidSurface
from laminath.exactnum import QuadNum, denominator, encode, format_exact, frac_part, surd

from reference import param, state_point


def _pin(value):
    return format_exact(value), type(value).__name__


# -- pinned exchanges -------------------------------------------------------------

# the bench's seed-1 shears and the default (None: sqrt2 - 1)
_SHEARS = [None, "cf:[0;1,3,2]periodic(3)", "cf:[0;2,1,2]periodic(3)", "cf:[0;3,2,1]periodic(2)"]

# per fixture and shear: the interval count of every edge pair's return map,
# and the sha256 of the repr of [(edge, [(lo, hi, shift, word)], [(corner,
# first cut)])] over the edge pairs, exact values as (string, type name)
_SETUP_PINS = {
    ("sheared-torus", None): (
        [2, 2], "def18015932e99fa3cf554c59026dde0c5cc771a369d69f2a45d6f5508b9ceaf"),
    ("slit-tori", None): (
        [5, 5, 5, 5, 5, 5], "ae6e84f474c158ab04608eaef4d73ec2da7d9aa69b66679481d6496fc587e05a"),
    ("sheared-torus", _SHEARS[1]): (
        [2, 2], "2d1f83cc0d7a0139eae78eb8fa3e690c7ce774f1683f8a8f360df9a64677d632"),
    ("slit-tori", _SHEARS[1]): (
        [5, 5, 5, 5, 5, 5], "63d7a820ecca353789f5faae57252f1dd9cd1a0dd817d9d130234a29fa18f1c6"),
    ("sheared-torus", _SHEARS[2]): (
        [2, 2], "259ac8cb3f9bc8f32e4ed6d022fc88736352ba91692911675fc3090914b219eb"),
    ("slit-tori", _SHEARS[2]): (
        [5, 5, 5, 5, 5, 5], "2c556ace120e308d42da876ce049f1eba6de1a58108472252c2f051d621bd70d"),
    ("sheared-torus", _SHEARS[3]): (
        [2, 2], "3e039666b99ce9423228b9c57dd6c08af7c3a26f5cc584881515ac30ef52c78b"),
    ("slit-tori", _SHEARS[3]): (
        [5, 5, 5, 5, 5, 5], "f430a2175279cb99a4ce29c12839bd22d377e7568db786539b934adf28c76fe1"),
}


def _setup_rows(S):
    rows = []
    for edge in range(len(S.pairs)):
        iet = ts.Transversal(S, edge).return_map()
        rows.append((edge, [(_pin(iv.lo), _pin(iv.hi), _pin(iv.shift), iv.word)
                            for iv in iet.intervals],
                     [(corner, _pin(t)) for corner, t in iet.first_cuts]))
    return rows


@pytest.mark.parametrize("name, shear", sorted(_SETUP_PINS, key=repr))
def test_return_maps_pinned(name, shear):
    gamma = None if shear is None else ContinuedFraction.from_text(shear).value()
    doc = (ts.sheared_torus_doc if name == "sheared-torus" else ts.slit_tori_doc)(gamma)
    rows = _setup_rows(ts.load_surface(doc))
    counts, digest = _SETUP_PINS[name, shear]
    assert [len(ivs) for _, ivs, _ in rows] == counts
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_default_return_maps_spelled_out():
    sheared = _setup_rows(ts.preset_surface("sheared-torus"))[0]
    assert sheared == (0, [
        (("0", "Fraction"), ("-1+1*sqrt2", "QuadNum"), ("2-1*sqrt2", "QuadNum"), "bbb"),
        (("-1+1*sqrt2", "QuadNum"), ("1", "Fraction"), ("1-1*sqrt2", "QuadNum"), "bb")],
        [((0, 1), ("-1+1*sqrt2", "QuadNum"))])
    slit = _setup_rows(ts.preset_surface("slit-tori"))[5]
    assert slit == (5, [
        (("0", "Fraction"), ("3-2*sqrt2", "QuadNum"), ("-8+6*sqrt2", "QuadNum"), "ebd"),
        (("3-2*sqrt2", "QuadNum"), ("6-4*sqrt2", "QuadNum"), ("-14+10*sqrt2", "QuadNum"),
         "accebd"),
        (("6-4*sqrt2", "QuadNum"), ("9-6*sqrt2", "QuadNum"), ("-8+6*sqrt2", "QuadNum"), "ace"),
        (("9-6*sqrt2", "QuadNum"), ("12-8*sqrt2", "QuadNum"), ("-14+10*sqrt2", "QuadNum"),
         "acebdd"),
        (("12-8*sqrt2", "QuadNum"), ("1", "Fraction"), ("-12+8*sqrt2", "QuadNum"), "acebd")],
        [((0, 1), ("3-2*sqrt2", "QuadNum")), ((0, 2), ("6-4*sqrt2", "QuadNum")),
         ((1, 1), ("9-6*sqrt2", "QuadNum")), ((1, 2), ("12-8*sqrt2", "QuadNum"))])


# -- the exchange against the QuadNum construction ---------------------------------

def _reference_return(trans, tau, n=1):
    """The n-th return by the flow kernel, entered at Transversal.point(tau)
    and read back by the reference param, as the set-up did in QuadNum."""
    flow, letters, returns = trans.surface._flow, [], 0
    st = flow.start(trans.point(tau))
    for letter in islice(flow.trace(st), 10 ** 5):
        if letter in trans.letters:
            returns += 1
            if returns == n:
                return param(trans, state_point(st)), "".join(letters)
        letters.append(letter)
    raise AssertionError("no return")


def _reference_exchange(trans):
    """First cuts and (lo, hi, shift, word) per interval, in QuadNum."""
    S, flow, cuts = trans.surface, trans.surface._flow, []
    for corner in S.corner_germs(-1):
        st = flow.start(S.vertex_point(corner))
        for letter in islice(flow.trace(st, back=True), 10 ** 5):
            if letter in trans.letters:
                cuts.append((corner, param(trans, state_point(st))))
                break
    pts = [Fraction(0)] + sorted({t for _, t in cuts}) + [Fraction(1)]
    rows = []
    for lo, hi in zip(pts, pts[1:]):
        mid, third = (lo + hi) / 2, lo + (hi - lo) / 3
        (t1, w1), (t2, w2) = _reference_return(trans, mid), _reference_return(trans, third)
        assert w1 == w2 and t1 - mid == t2 - third
        rows.append((_pin(lo), _pin(hi), _pin(t1 - mid), w1))
    return [(corner, _pin(t)) for corner, t in cuts], rows


_quadratic_shears = st.builds(
    lambda a, b, d: frac_part(QuadNum(Fraction(a, 7), Fraction(b, 5), d)),
    st.integers(-20, 20), st.integers(1, 9), st.sampled_from([2, 3, 5]))


@settings(max_examples=25, deadline=None)
@given(_quadratic_shears, st.sampled_from([Fraction(1, 2), Fraction(2, 5), Fraction(5, 7)]),
       st.data())
def test_exchange_matches_quadnum_construction(gamma, slit, data):
    # edge heights such as gamma itself, (u + v sqrt d)/D with a norm other
    # than 1, and rational heights other than 1/D read parameters over N > 1
    doc = data.draw(st.sampled_from([ts.sheared_torus_doc(gamma),
                                     ts.slit_tori_doc(gamma, slit)]))
    S = ts.load_surface(doc)
    for edge in range(len(S.pairs)):
        iet = ts.Transversal(S, edge).return_map()
        cuts, rows = _reference_exchange(iet.trans)
        assert [(corner, _pin(t)) for corner, t in iet.first_cuts] == cuts
        assert [(_pin(iv.lo), _pin(iv.hi), _pin(iv.shift), iv.word)
                for iv in iet.intervals] == rows
        fresh = ts.Transversal(S, edge)   # no exchange: first_return flows
        # the height, decoded from the encoded edge, is |vec_y| in value and type
        assert _pin(fresh.height) == _pin(abs(fresh.vec[1]))
        for tau in (Fraction(data.draw(st.integers(1, 996)), 997),
                    frac_part(QuadNum(Fraction(1, 3), Fraction(data.draw(st.integers(1, 9)),
                                                                  11), gamma.d))):
            n = data.draw(st.integers(1, 3))
            (got, word), (want, want_word) = (ts.first_return(fresh, tau, n),
                                              _reference_return(fresh, tau, n))
            assert (_pin(got), word) == (_pin(want), want_word)
        assert fresh._iet is None


# -- the Fraction/QuadNum reference ------------------------------------------------

def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _dir_in_wedge(wx, wy, bx, by, dx, dy) -> bool:
    """Is (dx,dy) strictly inside the CCW sector from (wx,wy) to (bx,by)?"""
    swb = _sign(_cross(wx, wy, bx, by))
    swd = _sign(_cross(wx, wy, dx, dy))
    sdb = _sign(_cross(dx, dy, bx, by))
    if swb > 0:
        return swd > 0 and sdb > 0
    if swb < 0:
        return swd > 0 or sdb > 0
    # straight corner: the sector is the half plane to the left of w
    return swd > 0


def _segments_cross(a1, a2, b1, b2) -> bool:
    """Do the closed segments a1a2 and b1b2 share a point?"""
    d1 = _sign(_cross(a2[0] - a1[0], a2[1] - a1[1], b1[0] - a1[0], b1[1] - a1[1]))
    d2 = _sign(_cross(a2[0] - a1[0], a2[1] - a1[1], b2[0] - a1[0], b2[1] - a1[1]))
    d3 = _sign(_cross(b2[0] - b1[0], b2[1] - b1[1], a1[0] - b1[0], a1[1] - b1[1]))
    d4 = _sign(_cross(b2[0] - b1[0], b2[1] - b1[1], a2[0] - b1[0], a2[1] - b1[1]))
    if d1 * d2 > 0 or d3 * d4 > 0:
        return False
    if d1 or d2 or d3 or d4:
        return True

    def within(p, q, r):   # r in the bounding box of p and q
        return all(min(p[c], q[c]) <= r[c] <= max(p[c], q[c]) for c in (0, 1))
    return (within(a1, a2, b1) or within(a1, a2, b2) or within(b1, b2, a1)
            or within(b1, b2, a2))


def _reference_simple(poly) -> bool:
    n = len(poly)
    for i in range(n):
        for j in range(i + 1, n):
            a1, a2, b1, b2 = poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]
            if (i + 1) % n == j or (j + 1) % n == i:
                # adjacent: collinear and pointing in opposite directions folds back
                va, vb = (a2[0] - a1[0], a2[1] - a1[1]), (b2[0] - b1[0], b2[1] - b1[1])
                if _cross(*va, *vb) == 0 and va[0] * vb[0] + va[1] * vb[1] < 0:
                    return False
            elif _segments_cross(a1, a2, b1, b2):
                return False
    return True


def _reference_area_sign(poly) -> int:
    n = len(poly)
    return _sign(sum((_cross(*poly[i], *poly[(i + 1) % n]) for i in range(n)), Fraction(0)))


def _reference_germs(poly, direction):
    n = len(poly)
    germs = []
    for k in range(n):
        prev, here, nxt = poly[(k - 1) % n], poly[k], poly[(k + 1) % n]
        wx, wy = nxt[0] - here[0], nxt[1] - here[1]
        bx, by = prev[0] - here[0], prev[1] - here[1]
        if _dir_in_wedge(wx, wy, bx, by, direction, 0):
            germs.append((0, k))
    return germs


def _reference_verdict(poly):
    """The message validation gives a lone unglued polygon, or None."""
    n = len(poly)
    repeats = [i for i in range(n) if poly[i] == poly[(i + 1) % n]]
    if repeats:
        return f"polygon 0 repeats vertex {repeats[0]}"
    if _reference_area_sign(poly) <= 0:
        return "polygon 0 must be counterclockwise"
    return None if _reference_simple(poly) else "polygon 0 self-intersects"


# -- pair predicates against the reference -------------------------------------------

@st.composite
def _polygons(draw):
    """3 to 7 vertices over Q or Q(sqrt 2) on a coarse grid; about half of
    them on the line through two earlier ones (at t = -1, 1/3, 1/2, 1 or 2),
    so that vertices repeat, touch edges and make collinear edges; mostly
    turned counterclockwise, so that simplicity decides the verdict."""
    field = draw(st.sampled_from([None, 2]))

    def coord():
        a = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        b = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2]))) if field else 0
        return QuadNum(a, b, 2) if b else a

    pts = []
    for _ in range(draw(st.integers(3, 7))):
        if len(pts) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                                 unique=True))
            (px, py), (qx, qy) = pts[i], pts[j]
            t = draw(st.sampled_from([Fraction(-1), Fraction(1, 3), Fraction(1, 2),
                                      Fraction(1), Fraction(2)]))
            pts.append((px + t * (qx - px), py + t * (qy - py)))
        else:
            pts.append((coord(), coord()))
    return pts[::-1] if _reference_area_sign(pts) < 0 and draw(st.integers(0, 3)) else pts


def _encoded(poly):
    coords = [c for xy in poly for c in xy]
    D = math.lcm(*map(denominator, coords))
    return [encode(x, D) + encode(y, D) for x, y in poly], surd(coords)


@settings(max_examples=400, deadline=None)
@given(_polygons())
def test_pair_predicates_match_quadnum_reference(poly):
    vs, d = _encoded(poly)
    if all(poly[i - 1] != poly[i] for i in range(len(poly))):   # as validation calls it
        assert ts._simple(vs, d or 2) == _reference_simple(poly)
    fake = SimpleNamespace(_d=d, _verts=[vs])   # corner_germs reads only the encoding
    for direction in (1, -1):
        assert ts.TranslationSurface.corner_germs(fake, direction) == _reference_germs(
            poly, direction)
    try:
        ts.TranslationSurface([poly], [])
        verdict = None
    except InvalidSurface as exc:
        verdict = str(exc)
    assert verdict == _reference_verdict(poly)


def test_fixture_germs_match_reference():
    for S in (ts.preset_surface("sheared-torus"), ts.preset_surface("slit-tori")):
        for direction in (1, -1):
            want = [(p, k) for p, poly in enumerate(S.polygons)
                    for _, k in _reference_germs(poly, direction)]
            assert S.corner_germs(direction) == want


# -- polygons that are not simple -----------------------------------------------------

NON_SIMPLE = {
    # vertex (2, 0) lies on the edge (0, 0)-(4, 0)
    "touching": [["0", "0"], ["4", "0"], ["4", "4"], ["2", "0"], ["0", "4"]],
    # the edges (0, 0)-(3, 0) and (2, 0)-(1, 0) overlap along a line
    "overlap": [["0", "0"], ["3", "0"], ["3", "1"], ["2", "0"], ["1", "0"], ["0", "1"]],
    # the edge (2, 0)-(1, 0) folds back onto the edge before it
    "fold-back": [["0", "0"], ["2", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_non_simple_polygons_rejected(name):
    # strict orientation tests that skipped adjacent edges let these through
    square = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    for polygons, bad in (([NON_SIMPLE[name]], 0), ([square, NON_SIMPLE[name]], 1)):
        with pytest.raises(InvalidSurface, match=f"^polygon {bad} self-intersects$"):
            ts.load_surface({"polygons": polygons, "identify": []})


def test_glued_edges_must_match_in_both_coordinates():
    # edge vectors (1, 0) and (-1, -1): opposite abscissae, other ordinates
    poly = [["0", "0"], ["1", "0"], ["1", "2"], ["0", "1"]]
    with pytest.raises(InvalidSurface, match="^pair 0: edges must be parallel"):
        ts.load_surface({"polygons": [poly], "identify": [[[0, 0], [0, 2]]]})


def test_collinear_edges_that_do_not_meet_stay_simple():
    # the slit tori's hexagon has two edges on x = 1 and two on x = 0, each
    # pair adjacent and pointing the same way; a notched rectangle has two
    # disjoint edges on y = 0
    S = ts.preset_surface("slit-tori")
    assert all(ts._simple(vs, 2) for vs in S._verts)
    for poly in ([["0", "0"], ["1", "0"], ["2", "0"], ["2", "1"], ["0", "1"]],
                 [["0", "0"], ["1", "0"], ["1", "1"], ["2", "1"], ["2", "0"], ["3", "0"],
                  ["3", "2"], ["0", "2"]]):
        assert ts.load_surface({"polygons": [poly], "identify": []}).boundary_slots
