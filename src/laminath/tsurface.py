"""Polygonal translation surfaces and their horizontal-flow return dynamics.

A surface is a list of simple CCW polygons with vertices in Q(sqrt(d)) and a
pairing of parallel, equal-length, oppositely-oriented edges glued by
translations.  Polygon vertices are the marked singularities.  The horizontal
foliation flows rightward; its transverse measure is vertical distance.

Crossing words: inner-edge pair i carries labels e_i / E_i (lowercase for the
first slot of the pair, uppercase for the second); a flow segment records the
label of each slot it exits through.  Internally pair i is encoded as the
character chr(ord('a')+i) or chr(ord('A')+i) so words are plain strings.

The first-return map to a non-horizontal edge is an interval exchange in the
edge parameter whose return words are constant on intervals cut by the
backward orbits of the singularities.  ``ReturnMapIET`` builds it: each
backward separatrix is flowed once, to its first transversal crossing, and
two probes per interval, and the integer data go to ``iet`` (loaded with the
first exchange built), where level-set partitions, the non-saddle search,
short inadmissible loops of exponentially small measure and leaf streams run
with no flow; here the loops are concatenated into finite-measure words no
leaf word ever contains in its tail.  The cylinder check flows the forward
separatrices, up to the first that stays open; a closed surface with
rational coordinates is a cylinder decomposition with no flow.

Exactness policy: every value is an exact field element and every branch an
exact integer sign test.  A surface is encoded once, each vertex coordinate
as a pair (u, v) standing for (u + v sqrt d)/D over their common D, and all
set-up runs on such pairs (validation, corner germs, the first cuts and the
exchange's probes), as does the flow kernel, which flows the separatrices
and probes and names the vertex a singular orbit meets.  Only a
transversal's edge vector and ``Transversal.point``, and the exchange's
reference steps ``ReturnMapIET.step``/``orbit_word``, use Fraction/QuadNum
arithmetic; the first cuts decode to the field elements that arithmetic
would give (``exactnum.decode``).
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional

from ._record import record
from .errors import (BudgetExhausted, CertificateViolation, CylinderDecomposition,
                     InvalidSurface, SingularHit)
from .exactnum import (Exact, QuadNum, decode, denominator, encode, format_exact,
                       pair_sign, parse_exact, surd)
from .ledger import ExoticStage, exotic_stages

# the public label of each internal letter: e_i, E_i for pair i
_LABELS = {chr(base + i): f"{e}{i}" for base, e in ((97, "e"), (65, "E")) for i in range(26)}


@record(frozen=True)
class SurfacePoint:
    poly: int
    x: Exact
    y: Exact


def _cross_pair(a, b, d: int) -> tuple:
    """a x b for encoded vectors (xu, xv, yu, yv), as a pair over D^2."""
    (xu, xv, yu, yv), (pu, pv, qu, qv) = a, b
    return (xu * qu + d * xv * qv - yu * pu - d * yv * pv,
            xu * qv + xv * qu - yu * pv - yv * pu)


def _diff(p, q) -> tuple:
    """q - p for encoded points."""
    return q[0] - p[0], q[1] - p[1], q[2] - p[2], q[3] - p[3]


def _turn(e, f, d: int, dot: bool = False) -> int:
    """Sign of e x f for encoded vectors; with ``dot``, of e . f, the cross
    product with f turned a quarter."""
    return pair_sign(*_cross_pair(e, (-f[2], -f[3], f[0], f[1]) if dot else f, d), d)


def _simple(vs, d: int) -> bool:
    """Whether the polygon through the distinct consecutive vertices ``vs``
    is simple: no two adjacent edges fold back (their far ends on one ray from
    the shared vertex), and no two others meet, as closed segments.  Two
    collinear ones need no test of their own: without fold-backs each lies in
    a straight run of edges, and where two runs overlap an edge leaving one of
    them touches the other, an edge not on its line."""
    n = len(vs)
    edges = [_diff(p, q) for p, q in zip(vs, [*vs[1:], vs[0]])]
    for i, j in combinations(range(n), 2):
        a, b = edges[i], edges[j]
        if j - i in (1, n - 1):
            # adjacent edges fold back when parallel and opposed
            if _turn(a, b, d) == 0 and _turn(a, b, d, True) < 0:
                return False
            continue
        a1, a2, b1, b2 = vs[i], vs[i + 1], vs[j], vs[(j + 1) % n]
        o = [_turn(a, _diff(a1, b1), d), _turn(a, _diff(a1, b2), d),
             _turn(b, _diff(b1, a1), d), _turn(b, _diff(b1, a2), d)]
        if any(o) and o[0] * o[1] <= 0 and o[2] * o[3] <= 0:
            return False
    return True


def _reciprocal(u: int, v: int, d: int) -> tuple:
    """(cu, cv, N), N > 0, with 1/(u + v sqrt d) = (cu + cv sqrt d)/N: the
    conjugate over the norm, or 1/u when v = 0."""
    cu, cv, N = (1, 0, u) if not v else (u, -v, u * u - d * v * v)
    return (cu, cv, N) if N > 0 else (-cu, -cv, -N)


def _classes(items, links) -> list:
    """The classes of ``items`` under the equivalence that the pairs in
    ``links`` generate, by union-find: each class in item order, and the
    classes ordered by their first item."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


class TranslationSurface:
    """Validated polygon collection with translation gluings."""

    def __init__(self, polygons, identifications):
        self.polygons = [[(x, y) for x, y in poly] for poly in polygons]
        self.pairs = [tuple(map(tuple, pair)) for pair in identifications]
        self._validate()
        self._build_tables()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Encodes the vertices (``_verts``: pairs over ``_D``, in sqrt ``_d``) and checks them."""
        if not self.polygons:
            raise InvalidSurface("no polygons")
        coords = [c for poly in self.polygons for xy in poly for c in xy]
        try:
            self._d = surd(coords)
        except ValueError as exc:  # two quadratic fields among the coordinates
            raise InvalidSurface(str(exc)) from None
        D, d = math.lcm(*map(denominator, coords)), self._d or 2
        self._D, self._verts = D, [[encode(x, D) + encode(y, D) for x, y in poly]
                                   for poly in self.polygons]
        for pi, vs in enumerate(self._verts):
            n = len(vs)
            if n < 3:
                raise InvalidSurface(f"polygon {pi} has fewer than 3 vertices")
            repeat = next((i for i in range(n) if vs[i] == vs[(i + 1) % n]), None)
            if repeat is not None:
                raise InvalidSurface(f"polygon {pi} repeats vertex {repeat}")
            area2 = [sum(c) for c in zip(*[_cross_pair(vs[i - 1], vs[i], d) for i in range(n)])]
            if pair_sign(*area2, d) <= 0:
                raise InvalidSurface(f"polygon {pi} must be counterclockwise")
            if not _simple(vs, d):
                raise InvalidSurface(f"polygon {pi} self-intersects")
        if len(self.pairs) > 26:
            raise InvalidSurface("at most 26 edge pairs supported")
        seen = set()
        for idx, (sa, sb) in enumerate(self.pairs):
            for slot in (sa, sb):
                if slot in seen:
                    raise InvalidSurface(f"edge {slot} glued twice")
                seen.add(slot)
                p, k = slot
                if not (0 <= p < len(self.polygons)) or not (0 <= k < len(self.polygons[p])):
                    raise InvalidSurface(f"edge reference {slot} out of range")
            if self._edge_pairs(sa) != tuple(-c for c in self._edge_pairs(sb)):
                raise InvalidSurface(
                    f"pair {idx}: edges must be parallel, equal length, and "
                    "oppositely oriented")
        if len(_classes(range(len(self.polygons)), ((sa[0], sb[0]) for sa, sb in self.pairs))) > 1:
            raise InvalidSurface("surface is not connected")

    def _edge_pairs(self, slot) -> tuple:
        """The encoded edge vector (xu, xv, yu, yv) of ``slot``."""
        vs = self._verts[slot[0]]
        return tuple(b - a for a, b in zip(vs[slot[1]], vs[(slot[1] + 1) % len(vs)]))

    # -- derived tables -----------------------------------------------------

    def _build_tables(self):
        # per glued slot: its pair, whether it is the pair's first slot, its partner
        self.slot_info = {}
        for idx, (sa, sb) in enumerate(self.pairs):
            self.slot_info[sa], self.slot_info[sb] = (idx, True, sb), (idx, False, sa)
        self.boundary_slots = [(p, k) for p, poly in enumerate(self.polygons)
                               for k in range(len(poly)) if (p, k) not in self.slot_info]
        # a gluing identifies each end of one edge with the far end of the other
        n = [len(poly) for poly in self.polygons]
        self.vertex_classes = _classes(
            [(p, k) for p in range(len(n)) for k in range(n[p])],
            [link for (pa, ka), (pb, kb) in self.pairs
             for link in (((pa, ka), (pb, (kb + 1) % n[pb])),
                          ((pa, (ka + 1) % n[pa]), (pb, kb)))])
        self.corner_class = {c: ci for ci, corners in enumerate(self.vertex_classes)
                             for c in corners}
        self._flow = _FlowKernel(self)

    @property
    def euler_characteristic(self) -> int:
        return (len(self.vertex_classes)
                - (len(self.pairs) + len(self.boundary_slots))
                + len(self.polygons))

    @property
    def genus(self) -> Optional[int]:
        if self.boundary_slots:
            return None
        return (2 - self.euler_characteristic) // 2

    def pair_letter(self, pair_index: int, first_slot: bool) -> str:
        c = chr(ord("a") + pair_index)
        return c if first_slot else c.upper()

    def word_labels(self, word: str) -> str:
        return " ".join([_LABELS[ch] for ch in word])

    def vertex_point(self, corner) -> SurfacePoint:
        p, k = corner
        x, y = self.polygons[p][k]
        return SurfacePoint(p, x, y)

    # -- singularity germs ----------------------------------------------------

    def corner_germs(self, direction: int):
        """Corners whose interior wedge strictly contains (direction, 0); from
        these the horizontal separatrices emanate: left of the outgoing edge
        w and right of the incoming one reversed, b (both at a convex corner,
        either at a reflex one, left of w at a straight one)."""
        d, germs = self._d or 2, []
        for p, vs in enumerate(self._verts):
            for k, here in enumerate(vs):
                nxt, prev = vs[(k + 1) % len(vs)], vs[k - 1]
                left = direction * pair_sign(here[2] - nxt[2], here[3] - nxt[3], d) > 0
                right = direction * pair_sign(prev[2] - here[2], prev[3] - here[3], d) > 0
                turn = _turn(_diff(here, nxt), _diff(here, prev), d)
                if (left and right) if turn > 0 else (left or right) if turn < 0 else left:
                    germs.append((p, k))
        return germs

    def horizontal_is_cylinder_decomposition(self, budget: int = 2048) -> bool:
        """True when every horizontal separatrix terminates at a vertex within
        the budget; cutting along them then leaves only cylinders.  Stops at
        the first separatrix that stays open.  A closed surface with rational
        coordinates is True with no flow: scaled by their common denominator it
        covers the square torus, branched over one point, so every horizontal
        leaf closes."""
        if not self.boundary_slots and self._flow.d is None:
            return True
        flow = self._flow
        for corner in self.corner_germs(+1):
            st = flow.start(self.vertex_point(corner))
            for _ in islice(flow.trace(st), budget):
                pass
            if st.end != "singular":
                return False
        return True


def _pairs_of(items, kind) -> bool:
    """Whether ``items`` is a JSON list of two-item lists of ``kind``."""
    return isinstance(items, list) and all(isinstance(it, list) and len(it) == 2
                                           and all(type(c) is kind for c in it) for it in items)


def load_surface(doc) -> TranslationSurface:
    """Build and validate a surface from its JSON document: polygons of [x, y]
    exact-value strings, identifications of two [polygon, edge] integer
    pairs; any other shape or coordinate raises InvalidSurface."""
    if isinstance(doc, TranslationSurface):
        return doc
    polygons, identify = (doc.get("polygons"), doc.get("identify")) if isinstance(
        doc, dict) else (None, None)
    if not (isinstance(polygons, list) and all(_pairs_of(poly, str) for poly in polygons)
            and _pairs_of(identify, list) and all(_pairs_of(pair, int) for pair in identify)):
        raise InvalidSurface('a surface document is {"polygons": [[[x, y], ...], ...], '
                             '"identify": [[[polygon, edge], [polygon, edge]], ...]}')

    def coord(p, k, text):
        try:
            return parse_exact(text)
        except ValueError as exc:
            raise InvalidSurface(f"polygon {p} vertex {k}: cannot parse {text!r} ({exc})") from None
    return TranslationSurface([[(coord(p, k, x), coord(p, k, y)) for k, (x, y) in enumerate(poly)]
                               for p, poly in enumerate(polygons)], identify)


# -- horizontal flow -----------------------------------------------------------

class _FlowState:
    """A point of the flow in kernel coordinates: polygon, ordinate pair over
    ``den`` and abscissa pair over ``xden``.  ``last`` is the latest step's
    (polygon, exit edge or vertex index, hit abscissa pair, advance pair);
    ``end`` is None while the ray flows, then "singular" or "boundary"."""

    __slots__ = ("tables", "den", "xden", "d", "poly", "y", "x", "last", "end")


class _FlowKernel:
    """The one exact horizontal-flow kernel of a surface.  It flows the
    separatrices and the probes that build a transversal's exchange; a first
    return runs on it only until that exchange is built, or to name the
    vertex a singular orbit meets.

    Ordinates are integer pairs (u, v) standing for (u + v sqrt d)/D and
    abscissae pairs over E*D: D clears every vertex coordinate (and the start
    point's) and E every edge's inverse slope.  A non-horizontal edge meets
    the line at height y at x = alpha + beta*y, kept as the pairs E*D*alpha
    and E*beta, so a step (which vertices lie on the line, which edges
    straddle it, the nearest positive advance, the transport through the
    gluing) is a handful of exact integer sign tests.  A start point that
    fits D runs on these tables; any other runs on them rescaled to the lcm
    of D and its denominators, one memoised copy per factor.
    """

    _COPIES = 64   # rescaled tables kept before the memo starts over

    def __init__(self, surface: TranslationSurface):
        self.surface, self.d, self.D = surface, surface._d, surface._D
        d, verts = self.d or 2, surface._verts
        betas = {}   # beta = dx/dy of edge k of polygon p, as (u, v, N) in lowest terms
        for p, vs in enumerate(verts):
            for k, (xu, xv, yu, yv) in enumerate(vs):
                Xu, Xv, Yu, Yv = vs[(k + 1) % len(vs)]
                if (Yu, Yv) != (yu, yv):
                    cu, cv, N = _reciprocal(Yu - yu, Yv - yv, d)
                    bu, bv = (Xu - xu) * cu + d * (Xv - xv) * cv, (Xu - xu) * cv + (Xv - xv) * cu
                    g = math.gcd(bu, bv, N)
                    betas[p, k] = bu // g, bv // g, N // g
        E = self.E = math.lcm(*[N for _, _, N in betas.values()])
        # per polygon: vertex ordinates, vertex abscissae, per edge its
        # (E*D*alpha, E*beta) and its exit (letter, target polygon, translation)
        self.tables, self._copies = [], {}
        for p, vs in enumerate(verts):
            ys = [(yu, yv) for _, _, yu, yv in vs]
            xs = [(E * xu, E * xv) for xu, xv, _, _ in vs]
            edges, exits = [], []
            for k in range(len(vs)):
                beta = betas.get((p, k))
                if beta is None:
                    edges.append(None)
                else:
                    bu, bv = beta[0] * (E // beta[2]), beta[1] * (E // beta[2])
                    yu, yv = ys[k]
                    edges.append((xs[k][0] - bu * yu - d * bv * yv,
                                  xs[k][1] - bu * yv - bv * yu, bu, bv))
                info = surface.slot_info.get((p, k))
                if info is None:
                    exits.append(None)
                    continue
                idx, first, (q, j) = info
                # the gluing moves the slot's start to its partner's end
                tu, tv, su, sv = (b - a for a, b in zip(vs[k], verts[q][(j + 1) % len(verts[q])]))
                exits.append((surface.pair_letter(idx, first), q, E * tu, E * tv, su, sv))
            self.tables.append((ys, xs, edges, exits))

    def _scaled(self, m: int):
        """The memoised tables over m*D, m*E*D (the inverse slopes E*beta
        unchanged)."""
        tables = self._copies.get(m)
        if tables is None:
            if len(self._copies) >= self._COPIES:
                self._copies.clear()
            tables = self._copies[m] = [
                ([(m * u, m * v) for u, v in ys], [(m * u, m * v) for u, v in xs],
                 [e and (m * e[0], m * e[1], e[2], e[3]) for e in edges],
                 [x and (*x[:2], m * x[2], m * x[3], m * x[4], m * x[5]) for x in exits])
                for ys, xs, edges, exits in self.tables]
        return tables

    def start(self, point: SurfacePoint) -> _FlowState:
        x, y = point.x, point.y
        den = math.lcm(self.D, denominator(x), denominator(y))
        return self.begin(point.poly, encode(x, den), encode(y, den), den // self.D,
                          surd((x, y), self.d))

    def begin(self, poly: int, x, y, m: int, d: Optional[int]) -> _FlowState:
        """The state at the point (x, y) of ``poly``, pairs over m*D in sqrt ``d``."""
        st = _FlowState()
        st.d, st.poly, st.y, st.x = d or 2, poly, y, (self.E * x[0], self.E * x[1])
        st.tables, st.den = self.tables if m == 1 else self._scaled(m), m * self.D
        st.xden, st.last, st.end = st.den * self.E, None, None
        return st

    def hit(self, st: _FlowState) -> SurfacePoint:
        """Where the ray of an ended state met the polygon boundary: the
        vertex, or the point of the unglued edge."""
        p, k, x, _ = st.last
        if st.end == "singular":
            return self.surface.vertex_point((p, k))
        return SurfacePoint(p, decode(x, st.xden, st.d), decode(st.y, st.den, st.d))

    def trace(self, st: _FlowState, back: bool = False):
        """Flow ``st`` rightward (leftward when ``back``), updating it in
        place; yields the letter of each slot crossed, and returns when the
        ray meets a vertex or an unglued edge (``st.end`` says which)."""
        tables, d = st.tables, st.d
        sgn = -1 if back else 1
        p, (yu, yv), (xu, xv) = st.poly, st.y, st.x
        while True:
            ys, xs, edges, exits = tables[p]
            n = len(ys)
            signs = [pair_sign(cu - yu, cv - yv, d) for cu, cv in ys]
            best = None
            # a vertex on the line, or an edge straddling it (never both for
            # one edge k and its end vertex, so this order breaks ties as the
            # edge-by-edge scan of the reference does)
            for k in range(n):
                s = signs[k]
                if s == 0:
                    hu, hv = xs[k]
                elif s + signs[k + 1 - n] == 0:
                    au, av, bu, bv = edges[k]
                    hu = au + bu * yu + d * bv * yv
                    hv = av + bu * yv + bv * yu
                else:
                    continue
                du, dv = (hu - xu) * sgn, (hv - xv) * sgn
                if pair_sign(du, dv, d) > 0 and (
                        best is None or pair_sign(best[4] - du, best[5] - dv, d) > 0):
                    best = (s, k, hu, hv, du, dv)
            if best is None:
                raise InvalidSurface("horizontal ray escapes its polygon")
            s, k, hu, hv, du, dv = best
            st.last = (p, k, (hu, hv), (du, dv))
            if s == 0:
                st.end = "singular"
                return
            if exits[k] is None:
                st.end = "boundary"
                return
            letter, p, tu, tv, su, sv = exits[k]
            xu, xv, yu, yv = hu + tu, hv + tv, yu + su, yv + sv
            st.poly, st.x, st.y = p, (xu, xv), (yu, yv)
            yield letter


# -- transversal edges ------------------------------------------------------------

class Transversal:
    """A non-horizontal inner edge parametrized by arclength fraction.

    The parameter runs along the slot whose CCW edge vector points downward;
    that is the chart the rightward flow enters from the edge, so return
    points land there directly.  For the sheared torus this is the left edge
    traversed top to bottom, making the return map rotation by the shear.
    """

    def __init__(self, surface: TranslationSurface, pair_index: int):
        self.surface = surface
        self.pair_index = pair_index
        if not 0 <= pair_index < len(surface.pairs):
            raise InvalidSurface(f"no edge pair {pair_index} on this surface")
        sa, sb = surface.pairs[pair_index]
        d, wy = surface._d or 2, surface._edge_pairs(sa)[2:]
        if wy == (0, 0):
            raise InvalidSurface("transversal edge must not be horizontal")
        self.slot = sa if pair_sign(*wy, d) < 0 else sb
        self.upstream_slot = sb if self.slot is sa else sa
        (p, k), (q, j) = self.slot, self.upstream_slot
        up_info = surface.slot_info[self.upstream_slot]
        self.arrival_letter = surface.pair_letter(pair_index, up_info[1])
        self.letters = {surface.pair_letter(pair_index, True),
                        surface.pair_letter(pair_index, False)}
        # encoded: the slot's start and vector, 1/vec_y as (cu, cv, N), and per crossing
        # letter the ordinate of tau = 0 where it lands: the slot's start or upstream's end
        self._at, self._along = surface._verts[p][k], surface._edge_pairs(self.slot)
        self._over = _reciprocal(*self._along[2:], d)
        self.height = abs(decode(self._along[2:], surface._D, d))
        self._y0 = {self.arrival_letter: self._at[2:],
                    surface.pair_letter(pair_index, not up_info[1]):
                    surface._verts[q][(j + 1) % len(surface._verts[q])][2:]}
        self._iet: Optional[ReturnMapIET] = None
        self._non_saddle = None

    # the slot's ends and vector as field elements, for ``point``
    start = cached_property(lambda self: self.surface.polygons[self.slot[0]][self.slot[1]])
    end = cached_property(lambda self: self.surface.polygons[self.slot[0]][
        (self.slot[1] + 1) % len(self.surface.polygons[self.slot[0]])])
    vec = cached_property(lambda self: (self.end[0] - self.start[0], self.end[1] - self.start[1]))

    def point(self, tau) -> SurfacePoint:
        return SurfacePoint(self.slot[0],
                            self.start[0] + tau * self.vec[0],
                            self.start[1] + tau * self.vec[1])

    def _param(self, st: _FlowState, letter: str) -> tuple:
        """The parameter, as a pair over m*N, of the state ``st`` over m*D that
        has just crossed this edge pair through ``letter``: (y - y0)/vec_y."""
        m, d, (cu, cv, _), (su, sv) = st.den // self.surface._D, st.d, self._over, self._y0[letter]
        yu, yv = st.y[0] - m * su, st.y[1] - m * sv
        return yu * cu + d * yv * cv, yu * cv + yv * cu


    def return_map(self) -> "ReturnMapIET":
        if self._iet is None:
            self._iet = ReturnMapIET(self)
        return self._iet

    def non_saddle_cut(self):
        if self._non_saddle is None:
            self._non_saddle = find_non_saddle_point(self.surface, self)
        return self._non_saddle


def _check_orbit(tau, n: int):
    """tau off [0, 1] or n < 0: ValueError; n > 0 from an end vertex: SingularHit."""
    if n < 0 or not 0 <= tau <= 1:
        raise ValueError(f"need 0 <= tau <= 1 and n >= 0, got tau {format_exact(tau)}, n {n}")
    if n and tau in (0, 1):
        raise SingularHit("orbit starts at an end vertex of the edge")


def first_return(trans: Transversal, tau, n: int = 1):
    """n-th return parameter and crossing word (intermediate arrivals at the
    transversal included, the final arrival excluded).  n = 0 is the identity
    with the empty word.  Once the transversal holds its exchange
    (``return_map``), the answer is n steps of the exchange kernel; until
    then, and to name the vertex an orbit meets, the surface is flowed."""
    _check_orbit(tau, n)
    if n == 0:
        return tau, ""
    if trans._iet is not None:
        kernel = trans._iet.kernel.fast(tau)
        try:
            state = kernel.start(tau)
            word = kernel.return_word(state, n)
            return kernel.value(state), word
        except SingularHit:   # on a cut: the flow replays the orbit to its vertex
            pass
    S, d = denominator(tau), surd((tau,), trans.surface._d)
    t, word = _flow_return(trans, encode(tau, S), S, n, d)
    return decode(t, S * trans._over[2], d), word


def _flow_return(trans: Transversal, t, S: int, n: int, d: Optional[int]):
    """``first_return`` by the flow kernel, polygon by polygon, from the
    parameter (u + v sqrt d)/S of the pair t = (u, v): the n-th return
    parameter as a pair over S*N (``Transversal._over``) and the word."""
    flow, (tu, tv), e = trans.surface._flow, t, d or 2
    (xu, xv, yu, yv), (au, av, bu, bv) = trans._at, trans._along
    st = flow.begin(trans.slot[0], (S * xu + tu * au + e * tv * av, S * xv + tu * av + tv * au),
                    (S * yu + tu * bu + e * tv * bv, S * yv + tu * bv + tv * bu), S, d)
    budget, letters, returns = 100000 * n, [], 0
    for steps, letter in enumerate(flow.trace(st), 1):
        if letter in trans.letters:
            returns += 1
            if returns == n:
                return trans._param(st, letter), "".join(letters)
        letters.append(letter)
        if steps > budget:
            raise BudgetExhausted(
                f"flow did not return within the step budget: {returns} of {n} "
                f"returns after {steps} steps (budget {budget})",
                returns=returns, steps=steps, budget=budget)
    if st.end == "singular":
        raise SingularHit(f"orbit hits a vertex after {returns} returns",
                          point=flow.hit(st), step=returns + 1)
    raise SingularHit("orbit reaches the boundary", point=flow.hit(st),
                      step=returns + 1)


# -- the return map as an interval exchange ------------------------------------------

class ReturnMapIET:
    """First-return map of the horizontal flow to a transversal, realized as
    an interval exchange with per-interval return words: the one place that
    imports the exchange code (``iet``).

    Construction traces the backward separatrices of every singularity to the
    transversal (their first crossings, decoded once into (corner, parameter)
    pairs in ``first_cuts``, are exactly the discontinuities; ``cut_table`` holds their
    backward orbits), flows two probes per interval to read off the translation
    and word, and builds the ``kernel`` from the probes' integer pairs; its
    backward table verifies that the interval images tile the edge.
    """

    def __init__(self, trans: Transversal):
        from .iet import _CutTable, _exact_key, _least_kernel, _reach
        self.trans = trans
        cuts = backward_cut_points(trans, depth=1)
        N, d = trans._over[2], trans.surface._d
        self.first_cuts = [(corner, decode(t, N, d)) for corner, t in cuts]
        pts = {t for _, t in cuts}
        pts = [(0, 0)] + sorted(pts, key=_exact_key(_reach(pts), d or 2)) + [(N, 0)]
        shifts, words = [], []
        for (lu, lv), (hu, hv) in zip(pts, pts[1:]):
            # probes at the middle and a third of the way up, over 6N: one shift, one word
            probes = [(3 * (lu + hu), 3 * (lv + hv)), (2 * (2 * lu + hu), 2 * (2 * lv + hv))]
            returns = [_flow_return(trans, t, 6 * N, 1, d) for t in probes]
            found = {(ru - N * pu, rv - N * pv, w)
                     for (pu, pv), ((ru, rv), w) in zip(probes, returns)}
            if len(found) > 1:
                raise CertificateViolation("return word not constant on an interval; "
                                           "cut enumeration incomplete")
            (su, sv, word), = found
            shifts.append((su, sv))
            words.append(word + trans.arrival_letter)
        self.kernel = _least_kernel([(6 * N * u, 6 * N * v) for u, v in pts[:-1]], shifts,
                                    6 * N * N, d, words)
        self.cut_table = _CutTable(self.kernel)   # read by every partition and loop

    arrival_letter = property(lambda self: self.trans.arrival_letter)
    intervals = property(lambda self: self.kernel.intervals)   # decoded once, by the kernel

    def step(self, tau):
        for iv in self.intervals:
            if iv.lo < tau < iv.hi:
                return tau + iv.shift, iv
        raise SingularHit("parameter lies on a partition cut")

    def orbit_word(self, tau, n: int):
        """(T^n(tau), word); matches first_return, its errors included."""
        _check_orbit(tau, n)
        parts = []
        for j in range(n):
            tau, iv = self.step(tau)
            parts.append(iv.word)
            if j < n - 1:
                parts.append(self.arrival_letter)
        return tau, "".join(parts)

    def letter_stream(self, tau0, num_letters: int) -> str:
        """Leaf word (all crossings, arrivals included) read from tau0, by
        the kernel's tower copies (``iet._IETKernel.letters``)."""
        kernel = self.kernel.fast(tau0)
        return kernel.letters(kernel.start(tau0), num_letters)


# -- backward separatrices and what the exchange reads off them ---------------------

def backward_cut_points(trans: Transversal, depth: int,
                        step_budget: int = 400000):
    """Transversal parameters whose forward orbit hits a vertex within
    ``depth`` returns: trace every backward separatrix leftward, recording
    each transversal crossing as a (corner, parameter) pair, the parameter
    an integer pair over N = ``trans._over[2]``.

    Raises CylinderDecomposition when every backward separatrix terminates at
    a vertex (then all are saddle connections and the horizontal direction is
    periodic).
    """
    surface = trans.surface
    flow = surface._flow
    germs = surface.corner_germs(-1)
    if not germs:
        raise CylinderDecomposition("no interior backward separatrices")
    cuts = []
    any_alive = False
    for corner in germs:
        st = flow.start(surface.vertex_point(corner))
        trace = flow.trace(st, back=True)
        crossings = steps = 0
        while crossings < depth:
            letter = next(trace, None)   # None: the ray ended at a vertex or boundary
            steps += 1
            if steps > step_budget:
                raise BudgetExhausted(
                    f"backward separatrix from corner {corner} exceeded the step "
                    f"budget {step_budget} after {crossings} of {depth} crossings",
                    corner=corner, crossings=crossings, budget=step_budget)
            if letter is None:
                break
            if letter in trans.letters:
                crossings += 1
                cuts.append((corner, trans._param(st, letter)))
        any_alive = any_alive or st.end is None
    if not any_alive:
        raise CylinderDecomposition(
            "every backward separatrix is a saddle connection")
    return cuts


def return_partition(surface, trans, n: int):
    """Level-set partition of the transversal for the n-step return word,
    read off the exchange's cut table (``iet._CutTable.partition``)."""
    if isinstance(trans, int):
        trans = Transversal(surface, trans)
    return trans.return_map().cut_table.partition(n)

@record(frozen=True)
class NonSaddleCut:
    tau: Exact
    vertex_class: int
    traced_steps: int


def find_non_saddle_point(surface, trans, budget: int = 4096) -> NonSaddleCut:
    """The first depth-1 cut whose backward exchange orbit lasts ``budget``
    steps (``iet._IETKernel.lasting``).  An orbit dies only on an image cut,
    a forward separatrix's crossing, so if all die every backward separatrix
    is a saddle connection."""
    if isinstance(trans, int):
        trans = Transversal(surface, trans)
    iet = trans.return_map()
    j = iet.kernel.lasting([t for _, t in iet.first_cuts], budget)
    if j is None:
        raise CylinderDecomposition(
            "every backward separatrix crossing the transversal is a saddle connection")
    corner, first_cut = iet.first_cuts[j]
    return NonSaddleCut(first_cut, surface.corner_class[corner], budget)

def build_inadmissible_loop(surface, trans, k: int, return_budget: Optional[int] = None):
    """The level-k inadmissible loop at the non-saddle cut point, searched
    on the exchange (``iet._CutTable.loop``).  Distances along the
    transversal are edge-parameter fractions; the loop's measure is its two
    slides along the edge times the edge height, below 3 |e_y| / 2^k."""
    if isinstance(trans, int):
        trans = Transversal(surface, trans)
    return trans.return_map().cut_table.loop(trans.height, trans.non_saddle_cut().tau, k,
                                             return_budget)


# -- exotic synthesis ----------------------------------------------------------------------

def synthesize_exotic(surface, trans, levels, *, thin: bool = False,
                      certificates: Optional[dict] = None) -> list[ExoticStage]:
    """Concatenate level-k loops with slides along the transversal between
    their base points; the exact ledger stays below (c + c') sum 2^{-k} with
    c = 3|e_y| for the loops and c' = |e_y| for the slides.  ``thin=True``
    applies the ledger's thin gate (see ``ledger.exotic_stages``).
    """
    if isinstance(trans, int):
        trans = Transversal(surface, trans)
    if certificates is None:
        certificates = {}
    c_total = 4 * trans.height   # 3|e_y| loop + |e_y| connector

    def certify(k: int):
        if k not in certificates:
            certificates[k] = build_inadmissible_loop(surface, trans, k)
        return certificates[k]

    def join(prev: Optional[ExoticStage], k: int, cert):
        connector: Exact = Fraction(0)
        if prev is not None:
            connector = abs(cert.tau_Q - prev.certificate.tau_Q) * trans.height
        return connector, c_total * Fraction(1, 2 ** k)

    def tail(k: int) -> Exact:
        # the stages from level k on total below sum_{j >= k} c_total / 2^j
        return 2 * c_total * Fraction(1, 2 ** k)

    return list(exotic_stages(levels, certify, join, tail, thin=thin))


# -- bundled example surfaces ------------------------------------------------------------

def sheared_torus_doc(gamma=None) -> dict:
    """Unit-area torus from a sheared parallelogram; the first return to the
    vertical edge pair is rotation by gamma (default sqrt2 - 1)."""
    g = QuadNum(-1, 1, 2) if gamma is None else gamma
    pts = [(0, 0), (1, g), (1, g + 1), (0, 1)]
    d = surd((g,))  # the field of the coordinates, None over Q
    return {
        "field": d and f"sqrt{d}",
        "polygons": [[[format_exact(x), format_exact(y)] for x, y in pts]],
        "identify": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }


def slit_tori_doc(gamma=None, slit=Fraction(1, 2)) -> dict:
    """Two sheared tori glued along a vertical slit: a genus-2 surface whose
    horizontal flow is minimal for irrational shear."""
    g = QuadNum(-1, 1, 2) if gamma is None else gamma
    a = Fraction(slit)
    hexa = [(0, 0), (1, g), (1, g + a), (1, g + 1), (0, 1), (0, a)]
    poly = [[format_exact(x), format_exact(y)] for x, y in hexa]
    d = surd((g,))
    return {
        "field": d and f"sqrt{d}",
        "polygons": [poly, [list(v) for v in poly]],
        "identify": [
            [[0, 0], [0, 3]],   # bottom ~ top, torus 0
            [[1, 0], [1, 3]],   # bottom ~ top, torus 1
            [[0, 2], [0, 4]],   # upper right ~ upper left, torus 0
            [[1, 2], [1, 4]],   # upper right ~ upper left, torus 1
            [[0, 1], [1, 5]],   # lower right of torus 0 ~ slit of torus 1
            [[1, 1], [0, 5]],   # lower right of torus 1 ~ slit of torus 0
        ],
    }


SURFACE_PRESETS = {
    "sheared-torus": sheared_torus_doc,
    "slit-tori": slit_tori_doc,
}


def preset_surface(name: str) -> TranslationSurface:
    try:
        doc = SURFACE_PRESETS[name]()
    except KeyError:
        raise InvalidSurface(f"unknown surface preset {name!r}") from None
    return load_surface(doc)

