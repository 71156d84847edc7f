import hashlib
import json
import math
from fractions import Fraction
from functools import cmp_to_key
import random
import sys
import tracemalloc
from itertools import islice, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from laminath import iet as exchange, tsurface as ts
from laminath.cf import ContinuedFraction
from laminath.errors import (BudgetExhausted, CertificateViolation, CylinderDecomposition,
                             InvalidSurface, SingularHit)
from laminath.exactnum import (QuadNum, encode, format_exact, frac_part, pair_floor, pair_sign,
                               parse_exact)
from laminath.ledger import tail_measure_signature

from reference import (StepResult, backward_cut_values, exact_orbit, flow_step,
                       interval_length, saddle_connections, sample_leaf_words, state_point,
                       surface_doc)

GAMMA = QuadNum(-1, 1, 2)


def unit_square_doc():
    return {
        "field": None,
        "polygons": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]],
        "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }


# -- loading and validation -----------------------------------------------------

def test_sheared_torus_loads():
    S = ts.preset_surface("sheared-torus")
    assert S.euler_characteristic == 0
    assert S.genus == 1
    assert len(S.vertex_classes) == 1


def test_slit_tori_genus_two():
    S = ts.preset_surface("slit-tori")
    assert S.euler_characteristic == -2
    assert S.genus == 2
    assert len(S.vertex_classes) == 2
    assert not S.boundary_slots


def test_word_labels_name_each_slot():
    # pair i reads e_i through its first slot and E_i through its second
    S = ts.preset_surface("slit-tori")
    for i in range(len(S.pairs)):
        assert S.word_labels(S.pair_letter(i, True)) == f"e{i}"
        assert S.word_labels(S.pair_letter(i, False)) == f"E{i}"
    assert S.word_labels("aBcZ") == "e0 E1 e2 E25"
    assert S.word_labels("") == ""


def test_mismatched_edges_rejected():
    doc = unit_square_doc()
    doc["identify"] = [[[0, 0], [0, 1]], [[0, 2], [0, 3]]]
    with pytest.raises(InvalidSurface):
        ts.load_surface(doc)


def test_clockwise_rejected():
    doc = unit_square_doc()
    doc["polygons"][0] = list(reversed(doc["polygons"][0]))
    with pytest.raises(InvalidSurface):
        ts.load_surface(doc)


def test_self_intersection_rejected():
    doc = {
        "field": None,
        "polygons": [[["0", "0"], ["1", "1"], ["1", "0"], ["0", "1"]]],
        "identify": [],
    }
    with pytest.raises(InvalidSurface):
        ts.load_surface(doc)


def test_disconnected_rejected():
    doc = ts.slit_tori_doc()
    doc["identify"] = [p for p in doc["identify"] if p[0][0] == p[1][0]]
    with pytest.raises(InvalidSurface):
        ts.load_surface(doc)


def test_mixed_fields_rejected():
    # both load_surface and direct construction name the two fields
    poly = [["0", "0"], ["1", "-1+1*sqrt2"], ["1", "1*sqrt3"], ["0", "1"]]
    doc = {"polygons": [poly], "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]}
    with pytest.raises(InvalidSurface, match="mixed fields sqrt2 and sqrt3"):
        ts.load_surface(doc)
    coords = [(parse_exact(x), parse_exact(y)) for x, y in poly]
    with pytest.raises(InvalidSurface, match="mixed fields sqrt2 and sqrt3"):
        ts.TranslationSurface([coords], doc["identify"])


def test_unit_square_is_horizontal_cylinder():
    S = ts.load_surface(unit_square_doc())
    assert S.horizontal_is_cylinder_decomposition()
    # its horizontal edges appear as edge saddle connections
    kinds = {sc.kind for sc in saddle_connections(S, 16)}
    assert kinds == {"edge"}
    # the flag fires already with the horizontal gluing alone
    doc = unit_square_doc()
    doc["identify"] = [[[0, 0], [0, 2]]]
    S2 = ts.load_surface(doc)
    assert S2.horizontal_is_cylinder_decomposition()
    assert len(S2.boundary_slots) == 2


def test_surface_json_round_trip():
    for source, field in ((ts.slit_tori_doc(), "sqrt2"), (unit_square_doc(), None),
                          (ts.sheared_torus_doc(), "sqrt2"),
                          (ts.sheared_torus_doc(QuadNum(Fraction(-1, 2), Fraction(1, 2), 5)),
                           "sqrt5")):
        doc = surface_doc(ts.load_surface(source))
        assert doc["field"] == field
        S2 = ts.load_surface(json.loads(json.dumps(doc)))
        assert surface_doc(S2) == doc


def test_preset_documents_name_their_own_field():
    # a preset names the field of its shear, the one the loader finds in its
    # coordinates: sqrt5 for a shear in Q(sqrt5), None for a rational shear
    for make in (ts.sheared_torus_doc, ts.slit_tori_doc):
        for gamma, field in ((None, "sqrt2"), (Fraction(1, 3), None),
                             (QuadNum(Fraction(-1, 2), Fraction(1, 2), 5), "sqrt5")):
            doc = make() if gamma is None else make(gamma)
            assert doc["field"] == field
            assert surface_doc(ts.load_surface(doc))["field"] == field


# -- flow and first returns ------------------------------------------------------

def _reference_flow_step(point, surface, direction=1):
    """The horizontal flow in Fraction/QuadNum arithmetic, edge by edge: the
    nearest positive advance to a vertex on the ray or to an edge the ray
    straddles, then the transport through the gluing."""
    poly = surface.polygons[point.poly]
    n = len(poly)
    edges = [(*poly[k], *poly[(k + 1) % n], k) for k in range(n)]
    x0, y0 = point.x, point.y
    best = None  # (advance, kind, payload)
    for x1, y1, x2, y2, k in edges:
        s1 = (y1 > y0) - (y1 < y0)
        s2 = (y2 > y0) - (y2 < y0)
        # the edge's ends on the ray, or its crossing when it straddles the ray
        hits = [(vx, "vertex", (point.poly, vk))
                for vk, vx, s in ((k, x1, s1), ((k + 1) % n, x2, s2)) if s == 0]
        if s1 * s2 < 0:
            xs = x1 + (y0 - y1) * (x2 - x1) / (y2 - y1)
            hits.append((xs, "edge", (point.poly, k, xs)))
        for hx, kind, payload in hits:
            adv = (hx - x0) * direction
            if adv > 0 and (best is None or adv < best[0]):
                best = (adv, kind, payload)
    if best is None:
        raise InvalidSurface("horizontal ray escapes its polygon")
    adv, kind, payload = best
    if kind == "vertex":
        return StepResult("singular", None, surface.vertex_point(payload), None, None, adv)
    p, k, xs = payload
    hit = ts.SurfacePoint(p, xs, y0)
    info = surface.slot_info.get((p, k))
    if info is None:
        return StepResult("boundary", None, hit, None, None, adv)
    pair_idx, is_first, partner = info
    # the gluing moves the slot's start to its partner's end
    (q, j), (sx, sy) = partner, poly[k]
    ex, ey = surface.polygons[q][(j + 1) % len(surface.polygons[q])]
    new = ts.SurfacePoint(partner[0], xs + (ex - sx), y0 + (ey - sy))
    return StepResult("crossing", new, hit, surface.pair_letter(pair_idx, is_first), pair_idx, adv)


def _typed(v):
    """A value with its type: exact numbers as (type name, exact string),
    points coordinate by coordinate, step results field by field."""
    if isinstance(v, StepResult):
        return tuple(_typed(getattr(v, f)) for f in
                     ("kind", "point", "hit", "letter", "pair", "advance"))
    if isinstance(v, ts.SurfacePoint):
        return (v.poly, _typed(v.x), _typed(v.y))
    if isinstance(v, (int, Fraction, QuadNum)) and not isinstance(v, bool):
        return (type(v).__name__, format_exact(v))
    return v


def test_flow_step_sheared_torus():
    S = ts.preset_surface("sheared-torus")
    # from the left edge at height y > gamma the ray exits right directly
    y = Fraction(9, 10)
    res = flow_step(ts.SurfacePoint(0, Fraction(0), y), S)
    assert res.kind == "crossing"
    assert (res.point.x, res.point.y) == (Fraction(0), y - GAMMA)
    # at a vertex height it hits the corner
    res2 = flow_step(ts.SurfacePoint(0, Fraction(0), GAMMA), S)
    assert res2.kind == "singular"


def test_flow_boundary_hit():
    doc = unit_square_doc()
    doc["identify"] = [[[0, 0], [0, 2]]]  # vertical edges left unglued
    S = ts.load_surface(doc)
    res = flow_step(ts.SurfacePoint(0, Fraction(1, 3), Fraction(1, 2)), S)
    assert res.kind == "boundary"


def test_first_return_identity_at_zero():
    S = ts.preset_surface("sheared-torus")
    tr = ts.Transversal(S, 1)
    tau, word = ts.first_return(tr, Fraction(1, 3), 0)
    assert tau == Fraction(1, 3) and word == ""


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97),
                    max_denominator=997))
def test_sheared_torus_return_is_rotation(tau):
    S = _SHEARED
    tr = _SHEARED_TR
    expect = tau + GAMMA
    if expect >= 1:
        expect = expect - 1
    got, _ = ts.first_return(tr, tau)
    assert got == expect


_SHEARED = ts.preset_surface("sheared-torus")
_SHEARED_TR = ts.Transversal(_SHEARED, 1)


def _reference_vertex(surface, point):
    """The vertex the reference flow from ``point`` runs into."""
    while (res := _reference_flow_step(point, surface)).kind == "crossing":
        point = res.point
    return res.hit


def _singular_returns(tau, n):
    """The SingularHit of ``first_return`` on a fresh transversal (the flow)
    and on one holding its exchange (the kernel, which hands a cut back to the
    flow), as (message, step, typed point); the two must agree."""
    built = ts.Transversal(_SHEARED, 1)
    built.return_map()
    got = []
    for tr in (ts.Transversal(_SHEARED, 1), built):
        with pytest.raises(SingularHit) as exc:
            ts.first_return(tr, tau, n)
        got.append((str(exc.value), exc.value.step, _typed(exc.value.point)))
    assert got[0] == got[1]
    return got[0]


def test_singular_orbit_reported_with_step():
    tau = QuadNum(2, -1, 2)  # the unique depth-1 cut
    msg, step, point = _singular_returns(tau, 1)
    assert (msg, step) == ("orbit hits a vertex after 0 returns", 1)
    want = _reference_vertex(_SHEARED, _SHEARED_TR.point(tau))
    assert point == _typed(want)


def test_singular_orbit_after_a_return():
    # one rotation step before the cut: the second return meets the vertex
    tau = QuadNum(3, -2, 2)
    assert ts.first_return(_SHEARED_TR, tau, 1)[0] == QuadNum(2, -1, 2)
    msg, step, point = _singular_returns(tau, 2)
    assert (msg, step) == ("orbit hits a vertex after 1 returns", 2)
    want = _reference_vertex(_SHEARED, _SHEARED_TR.point(tau))
    assert point == _typed(want)


# -- return partition ----------------------------------------------------------------

def test_partition_counts_and_words():
    part = ts.return_partition(_SHEARED, 1, 1)
    assert len(part.intervals) == 2
    assert len(part.cuts) == 1
    assert {iv.word for iv in part.intervals} == {"", "a"}


def test_partition_interval_count_matches_cuts_genus2():
    S = ts.preset_surface("slit-tori")
    part = ts.return_partition(S, 5, 1)
    assert len(part.intervals) == len(part.cuts) + 1


def test_partition_level_sets():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    iet = tr.return_map()
    for n in (1, 2, 4):
        part = ts.return_partition(S, tr, n)
        for iv in part.intervals:
            lo_probe = iv.lo + iv.length / 7
            hi_probe = iv.hi - iv.length / 7
            assert iet.orbit_word(lo_probe, n)[1] == iv.word
            assert iet.orbit_word(hi_probe, n)[1] == iv.word
        for left, right in zip(part.intervals, part.intervals[1:]):
            assert left.word != right.word


@pytest.mark.parametrize("name, edge", [("sheared-torus", 1), ("slit-tori", 5)])
def test_partition_words_match_orbit_word(name, edge):
    # the words read on the exchange kernel are those the reference steps
    # from each interval's midpoint
    S = ts.preset_surface(name)
    tr = ts.Transversal(S, edge)
    iet = tr.return_map()
    for n in (0, 1, 8, 32):
        part = ts.return_partition(S, tr, n)
        assert [iv.word for iv in part.intervals] == [
            iet.orbit_word((iv.lo + iv.hi) / 2, n)[1] for iv in part.intervals], n


def test_partition_max_length_decreases():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    prev = None
    for n in (1, 2, 4, 8, 16):
        part = ts.return_partition(S, tr, n)
        if prev is not None:
            assert part.max_length <= prev
        prev = part.max_length


def test_partition_cylinder_detected():
    S3 = ts.load_surface(ts.sheared_torus_doc(Fraction(1, 3)))
    with pytest.raises(CylinderDecomposition):
        ts.return_partition(S3, 1, 4)


# -- exchange structure -----------------------------------------------------------------

def test_iet_tiles_and_matches_flow():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    iet = tr.return_map()
    total = sum(map(interval_length, iet.intervals), Fraction(0))
    assert total == 1
    for iv in iet.intervals:
        mid = iv.midpoint if hasattr(iv, "midpoint") else (iv.lo + iv.hi) / 2
        t2, w = ts.first_return(tr, mid, 1)
        assert t2 == mid + iv.shift and w == iv.word


def test_letter_stream_matches_flow_orbit():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    iet = tr.return_map()
    tau = Fraction(3, 11)
    stream = iet.letter_stream(tau, 300)
    # regenerate through individual flow returns
    letters = []
    t = tau
    while sum(len(w) for w in letters) < 300:
        t2, w = ts.first_return(tr, t, 1)
        letters.append(w + iet.arrival_letter)
        t = t2
    assert "".join(letters)[:300] == stream


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                    max_denominator=211),
       st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                    max_denominator=223))
def test_flow_step_is_reversible(fx, fy):
    # crossing forward and then flowing backward from just inside the new
    # chart returns through the same pair at the same edge point
    S = _SLIT
    # interior of the sheared hexagon: x in (0,1), y between the slanted
    # bottom gamma*x and top 1 + gamma*x
    p = ts.SurfacePoint(0, fx, GAMMA * fx + fy)
    res = flow_step(p, S)
    if res.kind != "crossing":
        return  # the ray met a vertex exactly
    nxt = flow_step(res.point, S)
    mid = ts.SurfacePoint(res.point.poly, (res.point.x + nxt.hit.x) / 2,
                          res.point.y)
    back = flow_step(mid, S, direction=-1)
    assert back.kind == "crossing"
    assert back.pair == res.pair
    assert (back.hit.x, back.hit.y) == (res.point.x, res.point.y)
    assert (back.point.x, back.point.y) == (res.hit.x, res.hit.y)


_SLIT = ts.preset_surface("slit-tori")


def test_sheared_torus_streams_are_sturmian_words():
    # the sheared torus is the square torus sheared, so its horizontal leaf
    # words carry exactly the factor structure of slope-(1 + sqrt2) cutting
    # sequences (inverting the slope transposes the grid roles); this ties
    # the surface stack to the independent torus-word stack
    from laminath import oracle
    tr = _SHEARED_TR
    stream = tr.return_map().letter_stream(Fraction(3, 11), 20000)
    theta2 = ContinuedFraction.periodic([2], [2])
    cv = theta2.convergent(9)
    for m in (4, 8, 16, 24):
        stream_factors = {stream[i:i + m] for i in range(len(stream) - m)}
        admissible = oracle.rational_factors(Fraction(cv.p, cv.q), m)
        assert stream_factors == set(admissible.factors)
        assert len(stream_factors) == m + 1


def test_word_balance_on_back_and_forth():
    # crossing an edge and returning crosses the two slots of the pair once
    # each, so letter counts balance on this homologically trivial loop
    S = ts.preset_surface("slit-tori")
    p = ts.SurfacePoint(0, Fraction(1, 3), Fraction(1, 5))
    out = flow_step(p, S)
    onward = flow_step(out.point, S)
    mid = ts.SurfacePoint(out.point.poly, (out.point.x + onward.hit.x) / 2,
                          out.point.y)
    back = flow_step(mid, S, direction=-1)
    assert back.pair == out.pair
    assert back.letter == out.letter.swapcase()


# -- saddle connections -------------------------------------------------------------------

def _octagon_doc(shear):
    # regular octagon, opposite sides identified (genus 2, one cone point of
    # angle 6 pi), sheared vertically by y += shear * x
    c = QuadNum(0, Fraction(1, 2), 2)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (1 + c, c), (1 + c, 1 + c), (Fraction(1), 1 + 2 * c),
           (Fraction(0), 1 + 2 * c), (-c, 1 + c), (-c, c)]
    from laminath.exactnum import format_exact
    sheared = [(x, y + shear * x) for x, y in pts]
    return {"field": "sqrt2",
            "polygons": [[[format_exact(x), format_exact(y)]
                          for x, y in sheared]],
            "identify": [[[0, i], [0, i + 4]] for i in range(4)]}


def test_octagon_cone_point_and_periodicity_detection():
    # a lattice surface: every field-slope shear leaves the horizontal
    # direction periodic; the detector must catch both the immediate
    # diagonal connections and the delayed multi-step ones
    S = ts.load_surface(_octagon_doc(GAMMA))
    assert S.genus == 2 and len(S.vertex_classes) == 1
    assert S.horizontal_is_cylinder_decomposition(512)
    steps = sorted(sc.steps for sc in saddle_connections(S, 64)
                   if sc.kind == "interior")
    assert steps and steps[0] == 1  # the slope 1-sqrt2 diagonals flatten
    S2 = ts.load_surface(_octagon_doc(Fraction(1, 3)))
    assert S2.horizontal_is_cylinder_decomposition(512)
    delayed = sorted(sc.steps for sc in saddle_connections(S2, 64)
                     if sc.kind == "interior")
    assert delayed and delayed[-1] > 5  # connections close only after many steps
    with pytest.raises(CylinderDecomposition):
        ts.return_partition(S2, 2, 8)


def test_cylinder_flag_ignores_earlier_budgets():
    # two of the 1/3 octagon's three connections take 17 steps: a budget of
    # 10 cannot see them, whatever budget was asked for before
    fresh = ts.load_surface(_octagon_doc(Fraction(1, 3)))
    assert fresh.horizontal_is_cylinder_decomposition(10) is False
    S = ts.load_surface(_octagon_doc(Fraction(1, 3)))
    assert S.horizontal_is_cylinder_decomposition(512) is True
    assert S.horizontal_is_cylinder_decomposition(10) is False
    assert S.horizontal_is_cylinder_decomposition(512) is True


def test_saddle_connections_irrational_empty():
    assert saddle_connections(_SHEARED, 128) == []


def test_saddle_connections_rational_within_three_steps():
    S3 = ts.load_surface(ts.sheared_torus_doc(Fraction(1, 3)))
    conns = saddle_connections(S3, 16)
    assert conns and all(sc.steps <= 3 for sc in conns)


def test_non_saddle_point_sheared():
    cut = ts.find_non_saddle_point(_SHEARED, 1, budget=256)
    assert cut.tau == QuadNum(2, -1, 2)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_non_saddle_search_default_budget_is_the_transversal_one(name):
    tr = _fresh_transversal(name)
    assert ts.find_non_saddle_point(tr.surface, tr) == tr.non_saddle_cut()


def test_non_saddle_point_rejects_cylinder():
    S3 = ts.load_surface(ts.sheared_torus_doc(Fraction(1, 3)))
    with pytest.raises(CylinderDecomposition):
        ts.find_non_saddle_point(S3, 1)


# -- inadmissible loops ----------------------------------------------------------------------

def test_loop_certificate_structure():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    cert = ts.build_inadmissible_loop(S, tr, 3)
    assert cert.measure < cert.measure_constant * Fraction(1, 8)
    assert cert.factor in cert.word
    assert cert.word_I != cert.word_I2
    assert cert.max_gap < cert.gap_bound
    # the wrong continuation follows the n-step cylinder in the factor
    assert cert.factor.endswith(cert.word_I2 + tr.arrival_letter)
    # measure equals the two slides times the edge height
    slides = abs(cert.tau_return - cert.tau_R) + abs(cert.tau_close - cert.tau_Q)
    assert cert.measure == slides * tr.height


def test_loop_word_absent_from_samples():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    cert = ts.build_inadmissible_loop(S, tr, 4)
    for tau, stream in sample_leaf_words(S, tr, 20_000, 10):
        assert cert.factor not in stream
        assert cert.word not in stream


def test_loop_budget_exhausted():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    with pytest.raises(BudgetExhausted) as exc:
        ts.build_inadmissible_loop(S, tr, 40, return_budget=500)
    # two sides times ten offsets, each flown the whole budget
    assert exc.value.progress == {"level": 40, "return_budget": 500,
                                  "attempts": 20, "depth": 500}
    assert str(exc.value) == ("loop construction failed at level 40: "
                              "no admissible return depth within 500")


def test_non_saddle_budget_names_budget_and_corners():
    # rotation by 1/997: the one backward separatrix is a saddle connection
    # of 997 crossings; a rational exchange proves the cylinders whatever the
    # budget, one short of the connection included
    S = ts.load_surface(ts.sheared_torus_doc(Fraction(1, 997)))
    for budget in (2000, 500, 1):
        with pytest.raises(CylinderDecomposition):
            ts.find_non_saddle_point(S, 1, budget=budget)


def test_synthesized_ledger_below_bound():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    stages = ts.synthesize_exotic(S, tr, [1, 2, 3])
    assert [st.level for st in stages] == [1, 2, 3]
    for st in stages:
        assert st.partial_measure < st.partial_bound
    # ledger bound: (c + c') * sum 2^-k = 4|e_y| * (7/8)
    assert stages[-1].partial_bound == 4 * tr.height * Fraction(7, 8)


def test_synthesized_empty_levels():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    assert ts.synthesize_exotic(S, tr, []) == []


def test_non_saddle_on_genus2_with_transcript():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    cut = ts.find_non_saddle_point(S, tr, budget=256)
    assert 0 < cut.tau < 1
    assert cut.traced_steps == 256
    assert cut.vertex_class in range(len(S.vertex_classes))


def test_synthesized_distinct_tails():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    cache = {}
    a = ts.synthesize_exotic(S, tr, [2, 4], certificates=cache)
    b = ts.synthesize_exotic(S, tr, [3, 5], certificates=cache)
    assert tail_measure_signature(a) != tail_measure_signature(b)


def test_synthesized_thinning_dominates():
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    stages = ts.synthesize_exotic(S, tr, range(2, 9), thin=True)
    assert len(stages) >= 2
    for j, st_ in enumerate(stages):
        assert st_.certificate.measure > 3 * tail_measure_signature(stages, j + 1)


# -- the exact kernel against the QuadNum references -------------------------------------

def _reference_step_back(iet, tau):
    """The inverse exchange in QuadNum arithmetic, one interval at a time."""
    for iv in iet.intervals:
        if iv.lo + iv.shift < tau < iv.hi + iv.shift:
            return tau - iv.shift, iv
    raise SingularHit("parameter lies on an image cut")


class _ReferenceCutTable:
    """Backward QuadNum orbits of the depth-1 cuts; every query sorts the
    cuts up to its depth, and a gap query scans them."""

    def __init__(self, iet):
        self.iet = iet
        base = sorted({iv.lo for iv in iet.intervals} | {iv.hi for iv in iet.intervals})
        self.by_depth = [[t for t in base if 0 < t < 1]]
        self.strands = [(t, True) for t in self.by_depth[0]]

    def cuts(self, depth):
        while len(self.by_depth) < depth:
            new_strands, born = [], []
            for t, alive in self.strands:
                if alive:
                    try:
                        t, _ = _reference_step_back(self.iet, t)
                        born.append(t)
                    except SingularHit:
                        alive = False
                new_strands.append((t, alive))
            self.strands = new_strands
            self.by_depth.append(born)
        return sorted(t for level in self.by_depth[:depth] for t in level)

    def max_gap(self, depth):
        pts = [Fraction(0)] + self.cuts(depth) + [Fraction(1)]
        return max(hi - lo for lo, hi in zip(pts, pts[1:]))


def _reference_try_loop(trans, iet, k, P, sgn, return_budget, off):
    """One loop attempt in Fraction/QuadNum bookkeeping, the exchange kernel
    doing only the flights and the cut table only max_gap: the intervals
    are found by value, the points and the bound a are field elements and
    ``iet.fast`` picks the kernel for them."""
    off = Fraction(*off)
    j = next(j for j, iv in enumerate(iet.intervals) if iv.lo == P)
    below, above = iet.intervals[j - 1:j + 1]
    I, I2 = (above, below) if sgn > 0 else (below, above)
    two_k = Fraction(1, 2 ** k)
    delta_q = min(two_k, interval_length(I)) / 2 * off
    a = delta_q / 3
    Q = P + sgn * delta_q
    near = Q - sgn * a
    delta_r = min(two_k, interval_length(I2)) / 2 * off
    R = P - sgn * delta_r
    q_lo, q_hi = Q - two_k, Q + two_k

    kernel = iet.kernel.fast(Q, R, q_lo, q_hi, near)
    window = [encode(x, kernel.D) for x in ((near, Q) if sgn > 0 else (Q, near))]
    state = kernel.start(Q)
    word_idx = []
    for n, i in zip(range(1, return_budget + 1), kernel.orbit(state)):
        word_idx.append(i)
        if kernel.inside(state, *window) and n >= 2 and iet.cut_table.max_gap(n - 1) < a:
            break
    else:
        raise BudgetExhausted(f"no admissible return depth within {return_budget}",
                              depth=len(word_idx))
    tau_n = kernel.value(state)
    if not min(abs(tau_n - I.lo), abs(tau_n - I.hi)) > a:
        raise CertificateViolation("return point lies within |PQ|/3 of its interval's ends")
    if not I2.lo < R < I2.hi:
        raise CertificateViolation("R does not lie in the neighboring interval")
    if I2.word == I.word:
        raise CertificateViolation("the neighboring interval repeats the word of I")

    window = encode(q_lo, kernel.D), encode(q_hi, kernel.D)
    state2 = kernel.start(R)
    tail_idx = []
    for i in kernel.orbit(state2):
        tail_idx.append(i)
        if kernel.inside(state2, *window):
            break
        if len(tail_idx) > return_budget:
            raise BudgetExhausted("closing flight exceeded the return budget", depth=n)
    tau_s = kernel.value(state2)

    words = kernel.words
    piece1 = "".join(words[i] for i in word_idx)
    word = piece1 + "".join(words[i] for i in tail_idx)
    factor = piece1[len(words[word_idx[0]]) - 1:] + words[tail_idx[0]]
    if words[tail_idx[0]] != I2.word + iet.arrival_letter:
        raise CertificateViolation("closing flight does not start in R's interval")
    if factor not in word:
        raise CertificateViolation("inadmissible factor missing from the loop word")
    ey = trans.height
    measure = (abs(tau_n - R) + abs(tau_s - Q)) * ey
    constant = 3 * ey
    if not measure < constant * two_k:
        raise CertificateViolation("loop measure exceeds its structural bound")
    return SimpleNamespace(level=k, word=word, factor=factor, measure=measure,
                           measure_constant=constant, depth=n, tau_P=P, tau_Q=Q,
                           tau_return=tau_n, tau_R=R, tau_close=tau_s, word_I=I.word,
                           word_I2=I2.word, max_gap=iet.cut_table.max_gap(n - 1),
                           gap_bound=a, closing_depth=len(tail_idx))


def _reference_loop(trans, k):
    """``build_inadmissible_loop`` over the reference attempts."""
    iet, P = trans.return_map(), trans.non_saddle_cut().tau
    for sgn in (1, -1):
        for off in exchange._LOOP_OFFSETS:
            try:
                return _reference_try_loop(trans, iet, k, P, sgn, 96 * 2 ** k + 8192, off)
            except (SingularHit, BudgetExhausted):
                continue
    raise BudgetExhausted("every reference attempt failed")


_LOOP_FIELDS = ("level", "word", "factor", "measure", "measure_constant", "depth", "tau_P",
                "tau_Q", "tau_return", "tau_R", "tau_close", "word_I", "word_I2", "max_gap",
                "gap_bound", "closing_depth")


def _loop_outcome(attempt, *args):
    """Every certificate field with its type, or the error's type, text and
    progress."""
    try:
        cert = attempt(*args)
    except (SingularHit, BudgetExhausted, CertificateViolation) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "progress", None)
    return [(name, _typed(getattr(cert, name))) for name in _LOOP_FIELDS]


_IETS = {}


def _fixture_iet(name, gamma=None):
    """Return map of a bundled fixture (sheared torus on edge 1, slit tori on
    edge 5) for the shear gamma, cached."""
    key = (name, None if gamma is None else format_exact(gamma))
    if key not in _IETS:
        doc, edge = ((ts.sheared_torus_doc, 1) if name == "sheared-torus"
                     else (ts.slit_tori_doc, 5))
        _IETS[key] = ts.Transversal(ts.load_surface(doc(gamma)), edge).return_map()
    return _IETS[key]


_fixtures = st.sampled_from(["sheared-torus", "slit-tori"])
_shears = st.one_of(
    st.none(),
    st.builds(lambda a, b, d: frac_part(QuadNum(Fraction(a, 7), Fraction(b, 5), d)),
              st.integers(-20, 20), st.integers(1, 9), st.sampled_from([2, 3, 5])))


def _points_near(iet, x):
    """Parameters around x: x itself, within 10^-12 of it, and far out in
    Q(sqrt d) with coefficients as large as after more than 10^7 steps."""
    d = next((v.d for iv in iet.intervals for v in (iv.lo, iv.shift)
              if isinstance(v, QuadNum) and v.b != 0), 2)
    eps = Fraction(1, 10 ** 12 + 39)
    far = [frac_part(QuadNum(x if not isinstance(x, QuadNum) else x.a, b, d))
           for b in (10 ** 7 + 19, -(3 * 10 ** 8 + 7))]
    return [x, x - eps, x + eps] + far


def _check_both_ways(iet, x, steps=4):
    """A few kernel steps forward and backward from x equal the QuadNum
    references step by step, or both raise SingularHit at the same step."""
    kernel = iet.kernel.fast(x)
    for back in (False, True):
        reference = _reference_step_back if back else ts.ReturnMapIET.step
        state = kernel.start(x)
        orbit = kernel.orbit(state, back=back)
        ref = x
        for _ in range(steps):
            try:
                ref, want_iv = reference(iet, ref)
            except SingularHit:
                with pytest.raises(SingularHit):
                    next(orbit)
                break
            assert iet.intervals[next(orbit)] is want_iv
            assert kernel.value(state) == ref


@settings(max_examples=40, deadline=None)
@given(_fixtures, _shears, st.data())
def test_kernel_steps_match_quadnum_reference(name, gamma, data):
    iet = _fixture_iet(name, gamma)
    cuts = sorted(t for t in {iv.lo for iv in iet.intervals}
                  | {iv.lo + iv.shift for iv in iet.intervals} if 0 < t < 1)
    anchor = data.draw(st.one_of(
        st.sampled_from(cuts),
        st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1 - Fraction(1, 10 ** 6),
                     max_denominator=10 ** 6)))
    for x in _points_near(iet, anchor):
        _check_both_ways(iet, x)


def test_kernel_raises_on_cuts():
    for name in ("sheared-torus", "slit-tori"):
        iet = _fixture_iet(name)
        for iv in iet.intervals:
            for x, back in ((iv.lo, False), (iv.lo + iv.shift, True)):
                if not 0 < x < 1:
                    continue
                with pytest.raises(SingularHit):
                    (_reference_step_back if back else ts.ReturnMapIET.step)(iet, x)
                kernel = iet.kernel.fast(x)
                with pytest.raises(SingularHit):
                    next(kernel.orbit(kernel.start(x), back=back))
        with pytest.raises(SingularHit):
            iet.letter_stream(Fraction(0), 8)


def test_kernel_long_orbit_matches_reference():
    # 2,000 steps each way from one start, checked step by step against
    # the QuadNum references, then back to the start exactly
    iet = _fixture_iet("slit-tori")
    tau = Fraction(3, 11)
    kernel = iet.kernel.fast(tau)
    state = kernel.start(tau)
    ref = tau
    for _, i in zip(range(2000), kernel.orbit(state)):
        ref, iv = iet.step(ref)
        assert iet.intervals[i] is iv and kernel.value(state) == ref
    for _, i in zip(range(2000), kernel.orbit(state, back=True)):
        ref, iv = _reference_step_back(iet, ref)
        assert iet.intervals[i] is iv and kernel.value(state) == ref
    assert ref == tau


# -- keyed slots ---------------------------------------------------------------------

def _orbit_outcome(orbit, state, steps=2000):
    """Each step's interval index and state, and the step that raised
    SingularHit (None if none did)."""
    seen = []
    try:
        for _, i in zip(range(steps), orbit):
            seen.append((i, tuple(state)))
    except SingularHit:
        return seen, len(seen) + 1
    return seen, None


def _matches_exact(kernel, start, back=False, steps=2000):
    """The keyed orbit from the pair ``start`` sees the indices, states and
    SingularHit step of the exact reference."""
    state = list(start)
    got = _orbit_outcome(kernel.orbit(state, back=back), state, steps)
    state = list(start)
    assert got == _orbit_outcome(exact_orbit(kernel, state, back), state, steps)


def _pell(d, bits=40):
    """Two units p + q sqrt d (p^2 - d q^2 = +-1) with p > 2^bits, so that
    |p - q sqrt d| < 2^-bits: consecutive powers of the least unit, of both
    norms when the least unit has norm -1."""
    p1, q1 = next((p, q) for p, q in _sqrt_convergents(d, 100) if abs(p * p - d * q * q) == 1)
    p, q = p1, q1
    while not p >> bits:
        p, q = p1 * p + d * q1 * q, p1 * q + q1 * p
    return [(p, q), (p1 * p + d * q1 * q, p1 * q + q1 * p)]


def _near_cuts(kernel, bits=40, tables=None):
    """States within 2^-bits of each inner cut of the tables (both by
    default), on either side: the cut plus or minus the pair of
    p - q sqrt d, a Pell unit's conjugate."""
    return [(cu + s * p, cv - s * q) for table in tables or (kernel.forward, kernel.backward)
            for cu, cv in table[0][1:-1] for p, q in _pell(kernel.d, bits) for s in (1, -1)]


def _arriving(kernel, target, n, back=False):
    """The state n exact steps before ``target`` in the direction ``back``
    (fewer when the way back lands on a cut)."""
    state = list(target)
    try:
        for _ in zip(range(n), exact_orbit(kernel, state, not back)):
            pass
    except SingularHit:
        pass
    return tuple(state)


_rational_shears = st.fractions(Fraction(1, 40), Fraction(39, 40), max_denominator=40).filter(
    lambda g: g != Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(_fixtures, st.one_of(_shears, _rational_shears), st.data())
def test_keyed_orbit_matches_exact_orbit(name, gamma, data):
    # the exchange's own kernel or its towers, rescaled by m up to 2^64 (so
    # that |v| >> 10 dominates every key error), in the exchange's field or
    # in sqrt 5 for a rational exchange; the start is anywhere, within 2^-40
    # of a cut, or up to 1,500 exact steps before such a state
    iet = _fixture_iet(name, gamma)
    kernel = data.draw(st.sampled_from([iet.kernel, iet.kernel.towers]), "kernel")
    m = data.draw(st.one_of(st.just(1), st.integers(2, 1 << 64)), "m")
    d = kernel.surd or data.draw(st.sampled_from([None, 5]), "d")
    if (m, d) != (1, kernel.surd):
        kernel = kernel.scaled(m, d)
    back = data.draw(st.booleans(), "back")
    (eu, ev), d = kernel.end, kernel.d
    t, v = data.draw(st.integers(1, (1 << 32) - 1), "t"), 0
    if kernel.surd:
        v = data.draw(st.integers(-(1 << 30), 1 << 30), "v")
    # (u, v) at or just below t/2^32 of the way along (0, end)
    u = pair_floor(t * eu, t * ev - (v << 32), d, 1 << 32)
    start = data.draw(st.sampled_from([(u, v)] + _near_cuts(kernel)), "start")
    assume(kernel.inside(start, (0, 0), kernel.end))
    start = _arriving(kernel, start, data.draw(st.integers(0, 1500), "n"), back)
    _matches_exact(kernel, start, back)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
@pytest.mark.parametrize("m", [1, 1 << 40])
def test_state_near_a_cut_takes_the_exact_fallback(name, m, monkeypatch):
    # a key cannot tell which side of a cut a state within 2^-40 of it lies
    # on: the slot goes to the exact bisection, which decides it.  Over
    # D = 2^40 D0 the state's key falls inside the edge's, off by about 2^-30
    kernel = _fixture_iet(name).kernel.scaled(m, 2)
    calls, slot = [], exchange._slot
    monkeypatch.setattr(exchange, "_slot", lambda *args: calls.append(args) or slot(*args))
    for table, back in ((kernel.forward, False), (kernel.backward, True)):
        for start in _near_cuts(kernel, tables=[table]):
            state = list(start)
            del calls[:]
            got = _orbit_outcome(kernel.orbit(state, back=back), state, 4)
            assert calls, (start, back)
            state = list(start)
            assert got == _orbit_outcome(exact_orbit(kernel, state, back), state, 4)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
@pytest.mark.parametrize("m", [3 << 10, 1 << 40, (1 << 64) + 1])
def test_key_error_grows_with_the_shift(name, m):
    # on a copy scaled by m, m |dv| > 2^10, a step adds up to m |dv|/2^10 + 1
    # to the key's error.  From a rational state (v = 0: an exact key) the
    # orbit runs n steps to a state T within 1/D of a cut whose v is the sum
    # of the n shifts' v: its key is off by about |v|/2^10, far more than 2n
    kernel = _fixture_iet(name).kernel.scaled(m, 2)
    (p, q), _ = _pell(2)
    cuts = kernel.forward[0][1:-1] + kernel.backward[0][1:-1]
    for (cu, cv), back, n, s in product(cuts, (False, True), (50, 400), (1, -1)):
        near = cu + s * p, cv - s * q
        v = near[1] - _arriving(kernel, near, n, back)[1]   # the path's v-shift
        w = v - cv
        f = math.isqrt(2 * w * w) if w >= 0 else -math.isqrt(2 * w * w) - 1
        for u in (cu - f, cu - f - 1):   # T just above and just below the cut
            _matches_exact(kernel, _arriving(kernel, (u, v), n, back), back, n + 3)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_slot_test_counts_the_cut_keys_error(name):
    # on a copy scaled by 2^64 the cut keys carry errors near 2^54, while a
    # rational state's key is exact: a state within 1/D of a cut, on either
    # side, is placed only by counting the cuts' error
    kernel = _fixture_iet(name).kernel.scaled(1 << 64, 2)
    for table, back in ((kernel.forward, False), (kernel.backward, True)):
        for cu, cv in table[0][1:-1]:
            below = cu + (math.isqrt(2 * cv * cv) if cv >= 0 else -math.isqrt(2 * cv * cv) - 1)
            for u in (below, below + 1):
                _matches_exact(kernel, (u, 0), back, 3)


def test_huge_states_step_exactly():
    # coordinates past 2000 bits step without error and as the exact orbit
    for name in ("sheared-torus", "slit-tori"):
        kernel = _fixture_iet(name).kernel.scaled(3 ** 1300, 2)
        start = (kernel.end[0] // 3, 0)
        assert start[0].bit_length() > 2000
        for back in (False, True):
            _matches_exact(kernel, start, back, 300)
        for start in _near_cuts(kernel, 2100)[:4]:
            assert min(map(int.bit_length, start)) > 2000
            _matches_exact(kernel, start, False, 300)


def test_keyed_slots_rarely_fall_back(monkeypatch):
    # CI tripwire: loops at k <= 8 on both fixtures, and leaf streams, decide
    # fewer than 5% of their steps by the exact bisection
    calls, steps = [0], [0]
    slot, orbit = exchange._slot, exchange._IETKernel.orbit

    def counted_slot(*args):
        calls[0] += 1
        return slot(*args)

    def counted_orbit(self, *args, **kwargs):
        for i in orbit(self, *args, **kwargs):
            steps[0] += 1
            yield i

    monkeypatch.setattr(exchange, "_slot", counted_slot)
    monkeypatch.setattr(exchange._IETKernel, "orbit", counted_orbit)
    for name in ("sheared-torus", "slit-tori"):
        tr = _fresh_transversal(name)
        for k in range(1, 9):
            ts.build_inadmissible_loop(tr.surface, tr, k)
        for x in (Fraction(1, 7), Fraction(3, 11), QuadNum(0, Fraction(1, 3), 2)):
            tr.return_map().letter_stream(x, 20_000)
    assert steps[0] > 10_000
    assert calls[0] < 0.05 * steps[0], (calls[0], steps[0])


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_stream_entry_rarely_tests_exactly(name, monkeypatch):
    # CI tripwire: a leaf stream decides each entry into the next tower
    # level's interval (0, L), on every level it descends, on the orbit's key
    # and error bound; the exact sign tests that ``letters``, which runs every
    # entry flight, makes itself stay under 5% of its entry steps
    tests, steps = [0], [0]
    sign, orbit = exchange.pair_sign, exchange._IETKernel.orbit
    letters = exchange._IETKernel.letters.__code__

    def counted_sign(*args):
        tests[0] += sys._getframe(1).f_code is letters
        return sign(*args)

    def counted_orbit(self, state, back=False, keyed=None):
        for i in orbit(self, state, back, keyed):
            steps[0] += keyed is not None   # only the entry flight hands out keys
            yield i

    iet = _fresh_transversal(name).return_map()
    monkeypatch.setattr(exchange, "pair_sign", counted_sign)
    monkeypatch.setattr(exchange._IETKernel, "orbit", counted_orbit)
    for x in (Fraction(1, 7), Fraction(3, 11), Fraction(5, 13), Fraction(101, 997),
              Fraction(500, 1001), QuadNum(0, Fraction(1, 3), 2), QuadNum(1, Fraction(-1, 2), 2),
              QuadNum(Fraction(1, 9), Fraction(1, 5), 2), Fraction(2, 9), Fraction(7, 10),
              Fraction(13, 17), Fraction(238506, 1000003), Fraction(999, 1009),
              QuadNum(0, Fraction(2, 5), 2), QuadNum(Fraction(1, 2), Fraction(-1, 3), 2),
              QuadNum(Fraction(-1, 4), Fraction(1, 2), 2)):
        iet.letter_stream(x, 300_000)
    assert steps[0] > 150
    assert tests[0] < 0.05 * steps[0], (tests[0], steps[0])


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_long_stream_takes_few_kernel_steps(name, monkeypatch):
    # cost guard: a 150k-letter stream from the default shear takes at most
    # 120 kernel steps across all tower levels, counted as the entry
    # tripwire counts them, and the levels it leaves cached hold under 1 MiB
    steps, orbit = [0], exchange._IETKernel.orbit

    def counted_orbit(self, state, back=False, keyed=None):
        for i in orbit(self, state, back, keyed):
            steps[0] += 1
            yield i

    iet = _fresh_transversal(name).return_map()
    monkeypatch.setattr(exchange._IETKernel, "orbit", counted_orbit)
    tracemalloc.start()
    try:
        for x in (Fraction(1, 7), Fraction(3, 11), Fraction(238506, 1000003),
                  QuadNum(0, Fraction(1, 3), 2), QuadNum(1, Fraction(-1, 2), 2)):
            steps[0] = 0
            assert len(iet.letter_stream(x, 150_000)) == 150_000
            assert steps[0] <= 120, (x, steps[0])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held


@pytest.mark.parametrize("name, gamma", [
    ("sheared-torus", None), ("slit-tori", None),
    ("sheared-torus", QuadNum(Fraction(-1, 2), Fraction(1, 2), 5)),
    ("slit-tori", QuadNum(-1, Fraction(2, 3), 3)),
])
def test_cut_table_max_gap_matches_sorted_reference(name, gamma):
    iet = _fixture_iet(name, gamma)
    ref = _ReferenceCutTable(iet)
    depths = list(range(1, 41)) + list(range(60, 201, 35)) + [200]
    want = {j: ref.max_gap(j) for j in depths}
    want_cuts = {j: [_typed(t) for t in ref.cuts(j)] for j in depths}
    # in order, out of order from a table already grown to depth 200, and
    # interleaved, deeper and shallower queries in turn
    for order in (depths, [200] + depths[::-1], [5, 200, 3, 60, 1]):
        table = exchange._CutTable(iet.kernel)
        for j in order:
            got = table.max_gap(j)
            assert got == want[j] and type(got) is type(want[j]), j
            assert [_typed(t) for t in table.partition(j).cuts] == want_cuts[j], j


def test_cut_table_keeps_quadnum_type_of_rational_gaps():
    # rotation by 1/3 with QuadNum-typed rational data: QuadNum arithmetic
    # gives every gap, which has no sqrt part, as a Fraction, and so does the
    # kernel table built from the same exchange's integer data
    third = QuadNum(Fraction(1, 3))
    ref_iet = SimpleNamespace(intervals=[
        exchange.ExchangeInterval(Fraction(0), 2 * third, third, ""),
        exchange.ExchangeInterval(2 * third, Fraction(1), -2 * third, "a")])
    kernel = exchange._IETKernel([(0, 0), (2, 0)], [(1, 0), (-2, 0)], (3, 0), 3, None,
                                 ["b", "ab"])
    table, ref = exchange._CutTable(kernel), _ReferenceCutTable(ref_iet)
    for j in range(1, 6):
        got, want = table.max_gap(j), ref.max_gap(j)
        assert got == want and type(got) is type(want) is Fraction, j
    # the kernel decodes its steps by the same rule
    kernel = kernel.fast(Fraction(1, 7))
    state = kernel.start(Fraction(1, 7))
    next(kernel.orbit(state))
    assert _typed(kernel.value(state)) == _typed(ts.ReturnMapIET.step(ref_iet, Fraction(1, 7))[0])


def _sqrt_convergents(d, count):
    """The first ``count`` convergents p/q of sqrt d, by the periodic
    expansion's integer recurrence."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    (p0, p1), (q0, q1) = (1, a0), (0, 1)
    out = [(p1, q1)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        out.append((p1, q1))
    return out


def _near_ties(d, data):
    """Pairs whose values crowd together: p_k - q_k sqrt d lies within 1/q_k
    of 0, so sums of two such pairs, shifted by small integers, crowd within
    1/q of each other, and the two halves of one convergent pair differ by as
    little as ``_exact_key``'s bound allows; with k up to 160 the coordinates
    pass 2^200.  A few pairs repeat."""
    cvs = _sqrt_convergents(d, 161)
    signs = st.sampled_from([-1, 1])
    sums = st.builds(
        lambda i, j, si, sj, du, dv: [(si * cvs[i][0] + sj * cvs[j][0] + du,
                                       -si * cvs[i][1] - sj * cvs[j][1] + dv)],
        st.integers(0, 160), st.integers(0, 160), signs, signs,
        st.integers(-2, 2), st.integers(-2, 2))
    halves = st.builds(
        lambda i, s: [(s * (cvs[i][0] // 2), -s * (cvs[i][1] // 2)),
                      (s * (cvs[i][0] // 2 - cvs[i][0]), -s * (cvs[i][1] // 2 - cvs[i][1]))],
        st.integers(0, 160), signs)
    groups = data.draw(st.lists(st.one_of(sums, halves), min_size=1, max_size=8))
    pairs = [p for group in groups for p in group]
    return pairs + data.draw(st.lists(st.sampled_from(pairs), max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_exact_key_orders_pairs_exactly(d, data):
    pairs = _near_ties(d, data)
    key = exchange._exact_key(exchange._reach(pairs), d)
    exact = cmp_to_key(lambda a, b: pair_sign(a[0] - b[0], a[1] - b[1], d))
    assert sorted(pairs, key=key) == sorted(pairs, key=exact)
    top = max(pairs, key=key)
    assert all(pair_sign(top[0] - u, top[1] - v, d) >= 0 for u, v in pairs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_exact_key_orders_as_pair_floor_keys(d, data):
    # the fixed-point keys compare as floor(2^K (u + v sqrt d)) by
    # pair_floor does, K = bit_length(4B) + bit_length(d) + 1: the same
    # order and the same ties
    pairs = _near_ties(d, data)
    B = max(max(abs(u), abs(v)) for u, v in pairs)
    K = (4 * B).bit_length() + d.bit_length() + 1
    want = [pair_floor(u << K, v << K, d, 1) for u, v in pairs]
    got = list(map(exchange._exact_key(B, d), pairs))
    sign = lambda x: (x > 0) - (x < 0)
    assert [[sign(a - b) for b in got] for a in got] == [[sign(a - b) for b in want]
                                                         for a in want]


def _fresh_transversal(name, gamma=None):
    doc, edge = ((ts.sheared_torus_doc, 1) if name == "sheared-torus"
                 else (ts.slit_tori_doc, 5))
    return ts.Transversal(ts.load_surface(doc(gamma)), edge)


@pytest.mark.parametrize("name, gamma", [
    ("sheared-torus", None), ("slit-tori", None),
    ("sheared-torus", QuadNum(Fraction(-1, 2), Fraction(1, 2), 5)),
    ("slit-tori", QuadNum(-1, Fraction(2, 3), 3)),
])
def test_cut_table_keys_order_cuts_exactly(name, gamma):
    # the cut table bounds its key's B by the depth-1 cuts' reach plus a
    # stride per backward move, without scanning the cuts: the bound covers
    # every cut, and the cuts sort as pair_sign orders them, at every depth
    table = _fresh_transversal(name, gamma).return_map().cut_table
    d = table.kernel.d
    exact = cmp_to_key(lambda a, b: pair_sign(a[0] - b[0], a[1] - b[1], d))
    for depth in (1, 2, 3, 5, 8, 13, 40, 150, 600, 2500):
        pts = table._sorted(depth)
        B = table.reach + (min(depth, len(table.born)) - 1) * table.stride
        assert exchange._reach(pts) <= B, depth
        assert pts == sorted(pts, key=exact), depth
        assert all(pair_sign(b[0] - a[0], b[1] - a[1], d) > 0 for a, b in zip(pts, pts[1:]))


@pytest.mark.parametrize("name, gamma", [
    ("sheared-torus", None), ("slit-tori", None),
    ("sheared-torus", QuadNum(Fraction(-1, 2), Fraction(1, 2), 5)),
    ("slit-tori", QuadNum(-1, Fraction(2, 3), 3)),
])
def test_partition_cuts_match_flow_reference(name, gamma):
    # the backward separatrices flowed on the surface are the reference for
    # the exchange's cut table, in value and type: asked for depth by depth,
    # and after a loop has grown the table past every depth asked for
    tr = _fresh_transversal(name, gamma)
    want = [[_typed(t) for t in sorted({t for _, t in backward_cut_values(tr, n)})]
            for n in range(13)]
    grown = _fresh_transversal(name, gamma)
    ts.build_inadmissible_loop(grown.surface, grown, 3)
    assert grown.return_map().cut_table.depth > 12
    for trans in (tr, grown):
        table = trans.return_map().cut_table
        for n in range(13):
            part = ts.return_partition(trans.surface, trans, n)
            assert [_typed(t) for t in part.cuts] == want[n], n
            if n:
                assert _typed(part.max_length) == _typed(table.max_gap(n)), n
        part = ts.return_partition(trans.surface, trans, 0)
        assert [(iv.lo, iv.hi, iv.word) for iv in part.intervals] == [(0, 1, "")]


def test_partition_cylinder_decided_per_depth():
    # rotation by 1/3: the backward separatrix crosses the edge twice and
    # then ends at the vertex, so depths 1 and 2 have cuts and deeper
    # partitions raise, whichever depth was asked for first, at once however
    # deep
    for order in ((1, 2, 3, 6, 10 ** 7), (10 ** 7, 6, 3, 2, 1)):
        tr = ts.Transversal(ts.load_surface(ts.sheared_torus_doc(Fraction(1, 3))), 1)
        for n in order:
            if n > 2:
                with pytest.raises(CylinderDecomposition):
                    ts.return_partition(tr.surface, tr, n)
                continue
            want = sorted({t for _, t in backward_cut_values(tr, n)})
            got = ts.return_partition(tr.surface, tr, n).cuts
            assert [_typed(t) for t in got] == [_typed(t) for t in want], n


# parent values: level k -> (depth, measure, tau_return, max_gap) as exact
# strings, each with its type name
_LOOP_PINS = {
    ("sheared-torus", 2): (41, ("-59+42*sqrt2", "QuadNum"), ("-447/8+40*sqrt2", "QuadNum"),
                           ("17-12*sqrt2", "QuadNum")),
    ("sheared-torus", 3): (70, ("-103+73*sqrt2", "QuadNum"), ("-1551/16+69*sqrt2", "QuadNum"),
                           ("58-41*sqrt2", "QuadNum")),
    ("sheared-torus", 4): (239, ("-345+244*sqrt2", "QuadNum"),
                           ("-10751/32+238*sqrt2", "QuadNum"), ("99-70*sqrt2", "QuadNum")),
    ("sheared-torus", 5): (239, ("-362+256*sqrt2", "QuadNum"),
                           ("-21503/64+238*sqrt2", "QuadNum"), ("99-70*sqrt2", "QuadNum")),
    ("sheared-torus", 6): (816, ("-35615/32+787*sqrt2", "QuadNum"),
                           ("-147455/128+815*sqrt2", "QuadNum"), ("-239+169*sqrt2", "QuadNum")),
    ("slit-tori", 2): (35, ("-178+126*sqrt2", "QuadNum"), ("-783/2+277*sqrt2", "QuadNum"),
                       ("-280+198*sqrt2", "QuadNum")),
    ("slit-tori", 3): (77, ("-3167/8+280*sqrt2", "QuadNum"),
                       ("-13935/16+616*sqrt2", "QuadNum"), ("99-70*sqrt2", "QuadNum")),
    ("slit-tori", 4): (60, ("-403+285*sqrt2", "QuadNum"), ("-21535/32+476*sqrt2", "QuadNum"),
                       ("99-70*sqrt2", "QuadNum")),
    ("slit-tori", 5): (697, ("-121599/32+2687*sqrt2", "QuadNum"),
                       ("-504127/64+5570*sqrt2", "QuadNum"), ("-2786+1970*sqrt2", "QuadNum")),
    ("slit-tori", 6): (348, ("-117119/64+1294*sqrt2", "QuadNum"),
                       ("-503935/128+2784*sqrt2", "QuadNum"), ("577-408*sqrt2", "QuadNum")),
    ("sheared-torus", 8): (2378, ("-3503+2477*sqrt2", "QuadNum"),
                           ("-1720831/512+2377*sqrt2", "QuadNum"),
                           ("1970-1393*sqrt2", "QuadNum")),
    ("sheared-torus", 10): (8119, ("-12298+8696*sqrt2", "QuadNum"),
                            ("-23511039/2048+8118*sqrt2", "QuadNum"),
                            ("3363-2378*sqrt2", "QuadNum")),
    ("slit-tori", 8): (1189, ("-1365247/256+3771*sqrt2", "QuadNum"),
                       ("-6885887/512+9510*sqrt2", "QuadNum"), ("-9512+6726*sqrt2", "QuadNum")),
    ("slit-tori", 10): (3465, ("-15201279/1024+10497*sqrt2", "QuadNum"),
                        ("-80279551/2048+27718*sqrt2", "QuadNum"),
                        ("-16238+11482*sqrt2", "QuadNum")),
}


@pytest.mark.parametrize("name, k", sorted(_LOOP_PINS))
def test_loop_certificates_pinned(name, k):
    tr = _SHEARED_TR if name == "sheared-torus" else _SLIT_TR
    cert = ts.build_inadmissible_loop(tr.surface, tr, k)
    depth, *values = _LOOP_PINS[(name, k)]
    assert cert.depth == depth
    got = [cert.measure, cert.tau_return, cert.max_gap]
    assert [(format_exact(v), type(v).__name__) for v in got] == values


_SLIT_TR = ts.Transversal(_SLIT, 5)


_LOOP_SHEARS = [None, QuadNum(Fraction(-1, 2), Fraction(1, 2), 5), QuadNum(-1, Fraction(2, 3), 3),
                frac_part(QuadNum(Fraction(1, 7), Fraction(3, 5), 7))]


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
@pytest.mark.parametrize("gamma", _LOOP_SHEARS, ids=["sqrt2", "sqrt5", "sqrt3", "sqrt7"])
def test_loops_match_fraction_reference(name, gamma):
    # the certificate decided on integer pairs equals the Fraction/QuadNum
    # attempt field by field, value and type, at every level 2..8; both
    # sides and three offsets are also tried directly, at the default budget
    # and at 200 returns, so the swapped side, the perturbed offsets and the
    # budget errors are compared too
    tr = _fresh_transversal(name, gamma)
    iet, P = tr.return_map(), tr.non_saddle_cut().tau
    for k in range(2, 9):
        want = _loop_outcome(_reference_loop, tr, k)
        assert _loop_outcome(ts.build_inadmissible_loop, tr.surface, tr, k) == want, k
        offsets = exchange._LOOP_OFFSETS[:2] + exchange._LOOP_OFFSETS[-1:]
        for sgn, off, budget in product((1, -1), offsets, (96 * 2 ** k + 8192, 200)):
            args = k, P, sgn, budget, off
            assert _loop_outcome(exchange._try_loop, iet.cut_table, tr.height, *args) == (
                _loop_outcome(_reference_try_loop, tr, iet, *args)), (k, sgn, off, budget)


# -- the exact flow kernel against the QuadNum reference -----------------------------

def _open_square_doc():
    doc = unit_square_doc()
    doc["identify"] = [[[0, 0], [0, 2]]]  # vertical edges left unglued
    return doc


def _l_shape_doc(shear):
    # three unit squares in an L, sheared vertically by y += shear * x: the
    # reflex corner at (1, 1) lets a horizontal line meet four edges, so the
    # nearest of several advances decides the step
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)]
    return {"field": "sqrt2",
            "polygons": [[[format_exact(Fraction(x)), format_exact(y + shear * x)]
                          for x, y in pts]],
            "identify": [[[0, 0], [0, 5]], [[0, 1], [0, 3]], [[0, 2], [0, 7]],
                         [[0, 4], [0, 6]]]}


_FLOW_DOCS = {
    "sheared-torus": st.just(ts.sheared_torus_doc()),
    "slit-tori": st.just(ts.slit_tori_doc()),
    "unit-square": st.just(unit_square_doc()),
    "open-square": st.just(_open_square_doc()),
    "octagon": st.sampled_from([_octagon_doc(GAMMA), _octagon_doc(Fraction(1, 3))]),
    "rational-torus": st.just(ts.sheared_torus_doc(Fraction(1, 3))),
    "l-shape": st.sampled_from([_l_shape_doc(GAMMA), _l_shape_doc(Fraction(1, 3)),
                                _l_shape_doc(0)]),
    # random shears in Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5)
    "quadratic-shear": _shears.filter(lambda g: g is not None).flatmap(
        lambda g: st.sampled_from([ts.sheared_torus_doc(g), ts.slit_tori_doc(g)])),
}
_SURFACES = {}


def _surface(doc):
    key = json.dumps(doc, sort_keys=True)
    if key not in _SURFACES:
        _SURFACES[key] = ts.load_surface(doc)
    return _SURFACES[key]


def _draw_point(data, S):
    """A vertex, an edge point, a convex combination of the vertices, or an
    edge or inner point level with a vertex, so that rays from it cross, run
    into vertices and reach unglued edges (on the non-convex L shape a
    combination may lie outside; the two flows must still agree)."""
    p = data.draw(st.integers(0, len(S.polygons) - 1))
    poly = S.polygons[p]
    n = len(poly)
    j = data.draw(st.integers(0, n - 1))
    t = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                               max_denominator=60))
    kind = data.draw(st.sampled_from(["vertex", "edge", "level", "inside", "inside-level"]))
    (x1, y1), (x2, y2) = poly[j], poly[(j + 1) % n]
    if kind == "edge":
        return ts.SurfacePoint(p, x1 + t * (x2 - x1), y1 + t * (y2 - y1))
    if kind == "inside":
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        x, y = (sum((w * v[i] for w, v in zip(weights, poly)), Fraction(0)) / sum(weights)
                for i in (0, 1))
        return ts.SurfacePoint(p, x, y)
    # the edges straddling vertex j's ordinate, met at that height
    level = [(a[0] + (y1 - a[1]) * (b[0] - a[0]) / (b[1] - a[1]), y1)
             for a, b in zip(poly, poly[1:] + poly[:1]) if (a[1] - y1) * (b[1] - y1) < 0]
    if kind == "vertex" or not level:
        return ts.SurfacePoint(p, x1, y1)
    x, y = data.draw(st.sampled_from(level))
    if kind == "inside-level":
        x = x1 + t * (x - x1)
    return ts.SurfacePoint(p, x, y)


def _reference_chain(S, point, direction, steps):
    """Up to ``steps`` reference steps from ``point``, stopping at the first
    that is not a crossing; an escaping ray ends the chain with the error."""
    chain = []
    for _ in range(steps):
        try:
            chain.append(_reference_flow_step(point, S, direction))
        except InvalidSurface:
            chain.append(None)
            break
        if chain[-1].kind != "crossing":
            break
        point = chain[-1].point
    return chain


@pytest.mark.parametrize("name", sorted(_FLOW_DOCS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flow_kernel_matches_reference_flow(name, data):
    S = _surface(data.draw(_FLOW_DOCS[name]))
    start = _draw_point(data, S)
    for direction in (1, -1):
        chain = _reference_chain(S, start, direction, 6)
        # the public one-step wrapper, step by step along the reference chain
        point = start
        for want in chain:
            if want is None:
                with pytest.raises(InvalidSurface):
                    flow_step(point, S, direction)
                break
            assert _typed(flow_step(point, S, direction)) == _typed(want)
            point = want.point
        # the tracer over the whole chain
        flow = S._flow
        state = flow.start(start)
        trace = flow.trace(state, back=direction < 0)
        if chain[-1] is None:
            with pytest.raises(InvalidSurface):
                list(islice(trace, len(chain)))
            continue
        letters = list(islice(trace, len(chain)))
        assert letters == [res.letter for res in chain if res.kind == "crossing"]
        last = chain[-1]
        if last.kind == "crossing":
            assert state.end is None and _typed(state_point(state)) == _typed(last.point)
        else:
            assert state.end == last.kind and _typed(flow.hit(state)) == _typed(last.hit)


def test_flow_step_direction_is_a_sign():
    with pytest.raises(ValueError):
        flow_step(_SHEARED_TR.point(Fraction(1, 3)), _SHEARED, 2)


def test_flow_kernel_rescales_for_new_denominators():
    # start points over many denominators rescale the integer tables, and
    # each rescaled table gives the reference step: inside the slit tori,
    # and on the octagon's chord between its two vertices at height c, whose
    # abscissae -c and 1 + c have sqrt parts
    octagon = ts.load_surface(_octagon_doc(0))
    c = QuadNum(0, Fraction(1, 2), 2)
    for q in range(101, 101 + 128):
        points = [(_SLIT, ts.SurfacePoint(1, Fraction(1, q),
                                          GAMMA / q + Fraction(q - 1, 2 * q))),
                  (octagon, ts.SurfacePoint(0, 1 + c - Fraction(1, q), c))]
        for (S, point), direction in zip(points * 2, (1, 1, -1, -1)):
            assert (_typed(flow_step(point, S, direction))
                    == _typed(_reference_flow_step(point, S, direction)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.fractions(min_value=Fraction(1, 10 ** 4),
                              max_value=1 - Fraction(1, 10 ** 4), max_denominator=10 ** 4),
                 st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 3)])),
       st.one_of(st.none(), st.integers(0, 20)), st.integers(-2, 20))
@example(Fraction(0), None, 1)
@example(Fraction(1), None, 1)
@example(Fraction(2), None, 1)
@example(Fraction(1, 3), None, -1)
def test_first_return_matches_orbit_word(tau, cut, n):
    # _SLIT_TR holds its exchange, so first_return steps the kernel there;
    # _SLIT_FLOW_TR never builds one and flows
    iet = _SLIT_TR.return_map()
    assert _SLIT_FLOW_TR._iet is None
    if cut is not None and 0 < tau < 1:  # start on an exchange cut: a vertex
        tau = iet.intervals[1 + cut % (len(iet.intervals) - 1)].lo
    # off the edge or a negative count is a ValueError, an end vertex of the
    # edge a SingularHit, for both
    outside = n < 0 or not 0 <= tau <= 1
    try:
        want = iet.orbit_word(tau, n)
    except (SingularHit, ValueError) as exc:
        assert isinstance(exc, ValueError if outside else SingularHit)
        for tr in (_SLIT_TR, _SLIT_FLOW_TR):
            with pytest.raises(type(exc)):
                ts.first_return(tr, tau, n)
        return
    assert not outside and (n == 0 or 0 < tau < 1)
    for tr in (_SLIT_TR, _SLIT_FLOW_TR):
        got = ts.first_return(tr, tau, n)
        assert (_typed(got[0]), got[1]) == (_typed(want[0]), want[1])


_SLIT_FLOW_TR = ts.Transversal(_SLIT, 5)


def test_first_return_flows_without_an_exchange():
    # with rational shear 1/2 every backward separatrix is a saddle
    # connection, so no exchange is built; first_return still flows (values
    # pinned from the flow-only implementation)
    tr = ts.Transversal(ts.load_surface(ts.slit_tori_doc(Fraction(1, 2))), 5)
    with pytest.raises(CylinderDecomposition):
        tr.return_map()
    assert tr._iet is None
    third = QuadNum(0, Fraction(1, 3), 2)
    got = [(_typed(t), w) for t, w in (ts.first_return(tr, tau, n) for tau, n in (
        (Fraction(1, 3), 1), (Fraction(1, 3), 5), (Fraction(2, 7), 3), (third, 7)))]
    assert got == [(("Fraction", "1/3"), "acebd"),
                   (("Fraction", "1/3"), "acebd" + "facebd" * 4),
                   (("Fraction", "2/7"), "acebd" + "facebd" * 2),
                   (("QuadNum", "1/3*sqrt2"), "acebd" + "facebd" * 6)]


def _reference_stream(iet, tau, num_letters):
    out = ""
    while len(out) < num_letters:
        tau, iv = iet.step(tau)
        out += iv.word + iet.arrival_letter
    return out[:num_letters]


def test_kernel_takes_its_field_from_the_start_point():
    # a rational exchange steps a start point of Q(sqrt 5) in that field and
    # decodes to the type QuadNum arithmetic gives; a start point of another
    # field than the exchange's is refused, as QuadNum arithmetic refuses it
    iet = _fresh_transversal("sheared-torus", Fraction(1, 3)).return_map()
    x = QuadNum(Fraction(-1, 2), Fraction(1, 2), 5)
    assert iet.letter_stream(x, 13) == _reference_stream(iet, x, 13) == "babbbabbbabbb"
    kernel = iet.kernel.fast(x)
    state = kernel.start(x)
    next(kernel.orbit(state))
    assert _typed(kernel.value(state)) == _typed(iet.step(x)[0])
    iet = _SHEARED_TR.return_map()
    x = QuadNum(0, Fraction(1, 3), 5)
    for call in (iet.step, lambda t: iet.letter_stream(t, 20),
                 lambda t: ts.first_return(_SHEARED_TR, t)):
        with pytest.raises(ValueError, match="mixed fields"):
            call(x)


# -- tower-copy leaf streams ---------------------------------------------------------

def _kernel_stream(iet, tau, num_letters):
    """The leaf word by single steps of the exchange kernel: the reference
    for the tower-copy stream of ``letter_stream``."""
    kernel = iet.kernel.fast(tau)
    words = [iv.word + iet.arrival_letter for iv in iet.intervals]
    orbit = kernel.orbit(kernel.start(tau))
    out = []
    total = 0
    while total < num_letters:
        out.append(words[next(orbit)])
        total += len(out[-1])
    return "".join(out)[:num_letters]


def _outcome(stream, iet, tau, n):
    """The stream, or the type and message of what it raised."""
    try:
        return stream(iet, tau, n)
    except (SingularHit, ValueError) as exc:
        return type(exc), str(exc)


def _tower_stream(iet, tau, n):
    return iet.letter_stream(tau, n)


def _kernel_walk(iet, tau, num_letters):
    """Single kernel steps from tau until ``num_letters`` letters are read or
    a step lands on a cut: the letters read (None when the start raised) and
    the type and message of what was raised (None when nothing was)."""
    words = [iv.word + iet.arrival_letter for iv in iet.intervals]
    try:
        kernel = iet.kernel.fast(tau)
        orbit = kernel.orbit(kernel.start(tau))
    except (SingularHit, ValueError) as exc:
        return None, (type(exc), str(exc))
    out, total = [], 0
    try:
        while total < num_letters:
            out.append(words[next(orbit)])
            total += len(out[-1])
    except SingularHit as exc:
        return "".join(out), (type(exc), str(exc))
    return "".join(out), None


def _walked(walk, n):
    """``_outcome(_kernel_stream, iet, tau, n)`` from a kernel walk of at
    least n letters: a walk that lands on a cut after T letters gives the
    first n letters for n <= T and raises for n > T."""
    letters, raised = walk
    if letters is None or raised is not None and n > len(letters):
        return raised
    return letters[:n]


def _ladder(kernel, n):
    """The tower levels a stream of n letters from ``kernel`` may descend:
    each level's ``towers`` while n exceeds ``_DESCENT`` times its longest
    word and the induction moves."""
    levels = [kernel]
    while (n > exchange._DESCENT * max(map(len, levels[-1].words))
           and levels[-1].towers.end != levels[-1].end):
        levels.append(levels[-1].towers)
    return levels


def _built(kernel):
    """The tower levels built below ``kernel``, in order."""
    levels = [kernel]
    while "towers" in levels[-1].__dict__:
        levels.append(levels[-1].towers)
    return levels[1:]


# shears of the benchmark's leaf-streams family, [0; c1, pre..., (per...)]
# with leading partial quotient 1 or 2 and coefficients up to 3, and
# rational shears, whose induction ends on an equal-length move (1/2 makes
# the slit tori a cylinder decomposition)
_stream_shears = st.one_of(
    st.builds(lambda c1, pre, per: ContinuedFraction(preperiod=[0, c1, *pre],
                                                     period=per).value(),
              st.sampled_from([1, 2]), st.lists(st.integers(1, 3), max_size=2),
              st.lists(st.integers(1, 3), min_size=1, max_size=3)),
    st.fractions(Fraction(1, 40), Fraction(39, 40), max_denominator=40)
    .filter(lambda g: g != Fraction(1, 2)))

# stream lengths up to 20k, or from 20k to 300k, where a stream descends
# three or more tower levels
_stream_lengths = st.one_of(st.integers(0, 20_000), st.integers(20_000, 300_000))


@settings(max_examples=100, deadline=None)
@given(_fixtures, _stream_shears, st.data())
def test_tower_stream_matches_kernel_steps(name, gamma, data):
    iet = _fixture_iet(name, gamma)
    d = gamma.d if isinstance(gamma, QuadNum) else 5
    tau = data.draw(st.one_of(
        st.fractions(0, 1, max_denominator=10 ** 6),
        st.builds(lambda a, b: frac_part(QuadNum(Fraction(a, 7), Fraction(b, 5), d)),
                  st.integers(-20, 20), st.integers(1, 9))), "tau")
    n = data.draw(_stream_lengths, "n")
    assert _outcome(_tower_stream, iet, tau, n) == _walked(_kernel_walk(iet, tau, n), n)


@settings(max_examples=40, deadline=None)
@given(_fixtures, st.sampled_from([None, Fraction(2, 7), Fraction(5, 13)]), st.data())
def test_tower_stream_lands_on_cuts_as_kernel_steps_do(name, gamma, data):
    # a start k backward steps before a cut of the exchange or of any tower
    # level a 300k-letter stream reaches: the stream returns the m letters
    # before a landing on an exchange cut and raises past them; a landing on
    # a level's cut alone hands the stream back to the level it was induced
    # from, which carries on
    iet = _fixture_iet(name, gamma)
    kernel = iet.kernel.fast()
    levels = _ladder(kernel, 300_000)
    cut = data.draw(st.sampled_from(
        kernel.forward[0][1:-1] + [c for level in levels[1:] for c in level.forward[0][1:]]),
        "cut")
    state = list(cut)
    try:
        for _ in zip(range(data.draw(st.integers(0, 3000), "k")),
                     kernel.orbit(state, back=True)):
            pass
    except SingularHit:
        pass
    x = kernel.value(state)
    n = data.draw(_stream_lengths, "n")
    walk = _kernel_walk(iet, x, n + 1)
    m = len(walk[0] or "") if walk[1] else n   # the letters before a landing
    for j in {0, 1, max(m - 1, 0), m, m + 1, n}:
        assert _outcome(_tower_stream, iet, x, j) == _walked(walk, j)


def test_tower_stream_singular_starts():
    for name in ("sheared-torus", "slit-tori"):
        iet = _fixture_iet(name)
        # end vertices and points off the edge raise, whatever the length
        for tau in (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(4, 3)):
            for n in (0, 1, 8):
                want = _outcome(_kernel_stream, iet, tau, n)
                assert want[0] is SingularHit
                assert _outcome(_tower_stream, iet, tau, n) == want
        # every cut of every tower level a 300k-letter stream reaches, each
        # level's right end L included
        levels = _ladder(iet.kernel.fast(), 300_000)
        assert len(levels) >= 4
        for cut in [c for level in levels[1:] for c in level.forward[0][1:]]:
            x = levels[0].value(cut)
            walk = _kernel_walk(iet, x, 300_000)
            for n in (0, 5, 20_000, 300_000):
                assert _outcome(_tower_stream, iet, x, n) == _walked(walk, n)
        x = QuadNum(0, Fraction(1, 3), 5)
        for n in (0, 5):
            want = _outcome(_kernel_stream, iet, x, n)
            assert want[0] is ValueError and _outcome(_tower_stream, iet, x, n) == want


@pytest.mark.parametrize("tau, offset", [
    (Fraction(1, 7), 1), (Fraction(3, 5), 2), (Fraction(2, 9), 1)])
def test_sheared_torus_stream_is_a_sturmian_word(tau, offset):
    # the sheared torus returns by rotation by gamma = sqrt2 - 1, so its leaf
    # word from tau is the cutting sequence of slope [2; 2, 2, ...] = 1 + sqrt2
    # from height -tau (1 + sqrt2), past its first one or two letters
    from laminath import flat
    stream = _SHEARED_TR.return_map().letter_stream(tau, 5000)
    letters, _ = flat.sturmian_letters(ContinuedFraction.periodic([2], [2]),
                                       -tau * QuadNum(1, 1, 2), 5000 + offset)
    assert stream == letters[offset:]


def test_towers_are_built_lazily_and_kept(monkeypatch):
    # a 10-letter stream builds no towers; a 150k-letter stream builds only
    # the levels it steps on, each with words shorter than the stream; a
    # second stream on the same denominator reuses them and builds none
    iet = _fresh_transversal("slit-tori").return_map()
    assert iet.letter_stream(Fraction(1, 7), 10) == _kernel_stream(iet, Fraction(1, 7), 10)
    kernel = iet.kernel.fast(Fraction(1, 7))
    assert _built(kernel) == _built(iet.kernel) == []
    stepped, orbit = [], exchange._IETKernel.orbit

    def recorded_orbit(self, *args, **kwargs):
        stepped.append(self)
        return orbit(self, *args, **kwargs)

    monkeypatch.setattr(exchange._IETKernel, "orbit", recorded_orbit)
    first = iet.letter_stream(Fraction(1, 7), 150_000)
    levels, first_steps = _built(kernel), list(stepped)
    second = iet.letter_stream(Fraction(3, 7), 150_000)
    monkeypatch.undo()
    assert len(levels) >= 3 and all(max(map(len, level.words)) < 150_000 for level in levels)
    assert first_steps == [kernel] + levels   # kernels compare by identity
    assert iet.kernel.fast(Fraction(3, 7)) is kernel and _built(kernel) == levels
    assert set(stepped) == set(first_steps)
    assert [first, second] == [_kernel_stream(iet, x, 150_000)
                               for x in (Fraction(1, 7), Fraction(3, 7))]
    # at any length, no level is built whose words are as long as the stream
    for name, n in product(("sheared-torus", "slit-tori"), (100, 1000, 5000, 20_000, 60_000)):
        iet = _fresh_transversal(name).return_map()
        iet.letter_stream(Fraction(1, 7), n)
        assert all(max(map(len, level.words)) < n for level in _built(iet.kernel)), (name, n)


def _tables(kernel):
    return kernel.forward[:2], kernel.words, kernel.end, kernel.D


def _rebuilt(kernel):
    """A kernel from ``kernel``'s integer data, with no base to scale."""
    bounds, moves = kernel.forward[:2]
    return exchange._IETKernel(bounds[:-1], [(du, dv) for _, du, dv, _, _ in moves], kernel.end,
                               kernel.D, kernel.surd, kernel.words)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_rescaled_copies_scale_their_base_towers(name):
    # a stream over a new denominator induces the exchange's own kernel and
    # scales its levels: every level of the copy is its base's level, scaled,
    # and equals a fresh induction of that level on the copy's own data
    iet = _fresh_transversal(name).return_map()
    for p in (991, 997, 1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049):
        x = Fraction(p // 3, p)
        assert iet.letter_stream(x, 3000) == _kernel_stream(iet, x, 3000)
        assert "towers" in iet.kernel.__dict__
        copy = iet.kernel.fast(x)
        m = copy.D // iet.kernel.D
        assert copy is not iet.kernel and copy.D == m * iet.kernel.D
        fresh = _rebuilt(copy)
        assert fresh._scale is None and _tables(fresh) == _tables(copy)
        levels, bases, fresh = (_ladder(k, 300_000) for k in (copy, iet.kernel, fresh))
        assert len(levels) == len(bases) == len(fresh) >= 4
        for level, base, new in zip(levels[1:], bases[1:], fresh[1:]):
            assert level is base.scaled(m, copy.surd)
            assert _tables(level) == _tables(new)


def _den(x):
    a, b = (x.a, x.b) if isinstance(x, QuadNum) else (Fraction(x), Fraction(0))
    return math.lcm(a.denominator, b.denominator)


@pytest.mark.parametrize("name", ["sheared-torus", "slit-tori"])
def test_kernels_do_not_depend_on_call_history(name):
    # streams from start points over more denominators than the memo of
    # rescaled kernels keeps, rational and quadratic, in a seeded order, then
    # a loop, then the first start points again: each kernel's denominator is
    # the lcm of the exchange's own and the point's, and the cut table runs
    # on the exchange's own kernel
    tr = _fresh_transversal(name)
    iet = tr.return_map()
    D0 = math.lcm(*(_den(x) for iv in iet.intervals for x in (iv.lo, iv.shift)))
    rng = random.Random(20260)
    dens = rng.sample(range(101, 2000), 3 * exchange._IETKernel._COPIES)
    points = [Fraction(rng.randrange(1, q), q) if j % 2 else
              frac_part(QuadNum(Fraction(rng.randrange(q), q), Fraction(1, q), 2))
              for j, q in enumerate(dens)]

    def stream_all(xs):
        for x in xs:
            assert iet.kernel.fast(x).D == math.lcm(D0, _den(x)), x
            assert len(iet.kernel._copies) <= exchange._IETKernel._COPIES
            assert (_outcome(_tower_stream, iet, x, 3000)
                    == _outcome(_kernel_stream, iet, x, 3000))

    stream_all(points)
    ts.build_inadmissible_loop(tr.surface, tr, 5)
    assert iet.kernel.fast().D == D0
    assert iet.cut_table.kernel is iet.kernel is iet.kernel.fast()
    stream_all(points[:8])


def _thin_edge_torus():
    # the sheared torus with both vertical sides cut at height 10^-6; the
    # short lower pieces form edge pair 2, which a leaf crosses only after
    # hundreds of thousands of laps
    doc = ts.slit_tori_doc(slit=Fraction(1, 10 ** 6))
    doc["polygons"] = doc["polygons"][:1]
    doc["identify"] = [[[0, 0], [0, 3]], [[0, 2], [0, 4]], [[0, 1], [0, 5]]]
    return ts.load_surface(doc)


def test_first_return_budget_names_its_progress():
    tr = ts.Transversal(_thin_edge_torus(), 2)
    with pytest.raises(BudgetExhausted) as exc:
        ts.first_return(tr, Fraction(1, 2), 1)
    assert exc.value.progress == {"returns": 0, "steps": 100001, "budget": 100000}
    assert str(exc.value).endswith("0 of 1 returns after 100001 steps (budget 100000)")


def test_backward_cut_budget_names_corner_and_crossings():
    S = _SLIT
    corner = S.corner_germs(-1)[0]
    point, crossings = S.vertex_point(corner), 0
    for _ in range(5):
        res = _reference_flow_step(point, S, -1)
        crossings += res.pair == _SLIT_TR.pair_index
        point = res.point
    with pytest.raises(BudgetExhausted) as exc:
        ts.backward_cut_points(_SLIT_TR, 100, step_budget=5)
    assert exc.value.progress == {"corner": corner, "crossings": crossings, "budget": 5}
    assert str(exc.value).endswith(
        f"from corner {corner} exceeded the step budget 5 after {crossings} of 100 crossings")


# parent values: horizontal cylinder flag (budget 512) and saddle connections
# (budget 64) as (kind, start class, end class, word, steps)
_SADDLE_PINS = {
    "octagon-gamma": (_octagon_doc(GAMMA), True,
                      [("interior", 0, 0, "", 1)] * 3),
    "octagon-third": (_octagon_doc(Fraction(1, 3)), True,
                      [("interior", 0, 0, "dadadbcbcbccbcbc", 17),
                       ("interior", 0, 0, "cbcbccbcbcbdadad", 17),
                       ("interior", 0, 0, "bcbcb", 6)]),
    "torus-third": (ts.sheared_torus_doc(Fraction(1, 3)), True,
                    [("interior", 0, 0, "bb", 3)]),
    "unit-square": (unit_square_doc(), True, [("edge", 0, 0, "", 0)] * 2),
}


@pytest.mark.parametrize("name", sorted(_SADDLE_PINS))
def test_saddle_connections_pinned(name):
    doc, cylinders, conns = _SADDLE_PINS[name]
    S = ts.load_surface(doc)
    assert S.horizontal_is_cylinder_decomposition(512) is cylinders
    got = [(c.kind, c.start_class, c.end_class, c.word, c.steps)
           for c in saddle_connections(S, 64)]
    assert got == conns


def _pin(value):
    return format_exact(value), type(value).__name__


# parent values: backward_cut_points(trans, 3) decoded, find_non_saddle_point(4096)
# and the sha256 of return_partition(n=8) (depth, cuts, and per interval its
# ends and word), exact values as (string, type name)
_SEPARATRIX_PINS = {
    "sheared-torus": (
        [((0, 1), ("2-1*sqrt2", "QuadNum")), ((0, 1), ("3-2*sqrt2", "QuadNum")),
         ((0, 1), ("5-3*sqrt2", "QuadNum"))],
        (("2-1*sqrt2", "QuadNum"), 0, 4096),
        (8, "9ef09aa7ee378b10784536a54a0fa470c9615f93c97d9a59d10b31f46d20c623")),
    "slit-tori": (
        [((0, 1), ("3-2*sqrt2", "QuadNum")), ((0, 1), ("15-10*sqrt2", "QuadNum")),
         ((0, 1), ("23-16*sqrt2", "QuadNum")), ((0, 2), ("6-4*sqrt2", "QuadNum")),
         ((0, 2), ("20-14*sqrt2", "QuadNum")), ((0, 2), ("32-22*sqrt2", "QuadNum")),
         ((1, 1), ("9-6*sqrt2", "QuadNum")), ((1, 1), ("17-12*sqrt2", "QuadNum")),
         ((1, 1), ("29-20*sqrt2", "QuadNum")), ((1, 2), ("12-8*sqrt2", "QuadNum")),
         ((1, 2), ("26-18*sqrt2", "QuadNum")), ((1, 2), ("34-24*sqrt2", "QuadNum"))],
        (("3-2*sqrt2", "QuadNum"), 0, 4096),
        (32, "01774241fcf2cd70641b56c4f6768bdf91a8714a3f012c4ef91ee2616326647d")),
}


@pytest.mark.parametrize("name", sorted(_SEPARATRIX_PINS))
def test_separatrix_results_pinned(name):
    tr = _SHEARED_TR if name == "sheared-torus" else _SLIT_TR
    S = tr.surface
    cuts, non_saddle, (count, digest) = _SEPARATRIX_PINS[name]
    assert saddle_connections(S, 512) == []
    assert S.horizontal_is_cylinder_decomposition(2048) is False
    assert [(c, _pin(t)) for c, t in backward_cut_values(tr, 3)] == cuts
    nsc = ts.find_non_saddle_point(S, tr, 4096)
    assert (_pin(nsc.tau), nsc.vertex_class, nsc.traced_steps) == non_saddle
    part = ts.return_partition(S, tr, 8)
    rows = [(_pin(iv.lo), _pin(iv.hi), iv.word) for iv in part.intervals]
    text = repr((part.depth, [_pin(c) for c in part.cuts], rows))
    assert len(part.cuts) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest
