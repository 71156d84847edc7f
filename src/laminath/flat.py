"""Exact plane geometry for the unit-square torus.

Coordinates live in Q(sqrt(d)) (or Q); the torus is the quotient by the
integer lattice and paths are recorded in the universal cover.  The
transverse measure of a path against the slope-theta foliation follows the
vertical-shift convention: a segment contributes |dy - theta dx|, so leaf
segments contribute 0, vertical hops their length, and loops around the
puncture (cusp-marked lattice vertices) nothing.  The perpendicular-length
normalization differs by the constant factor 1/sqrt(1 + theta^2) and is
available as a floating-point convenience only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

from .cf import ContinuedFraction
from .errors import (CertificateViolation, ClearanceViolated, InvalidGrowthFunction,
                     SingularHit)
from .exactnum import (Exact, QuadNum, exact_floor, format_exact, frac_part, pair_floor,
                       parse_exact)

Number = Union[int, Fraction, QuadNum]


@dataclass(frozen=True)
class FlatPoint:
    x: Number
    y: Number

    def __iter__(self):
        return iter((self.x, self.y))


class FlatPath:
    """Piecewise-linear path in the universal cover.

    ``markers[i]`` tags vertex i: "start" for the base point, "leaf" when the
    incoming segment runs along the foliation direction (or any transversal
    flight), "hop" when it is a connector, "cusp" when the vertex is a lattice
    point standing for a loop around the puncture.  Interior vertices and
    segment interiors must avoid the integer lattice except at cusp marks.
    """

    def __init__(self, vertices: Sequence[FlatPoint], markers: Optional[Sequence[str]] = None,
                 validate: bool = True):
        self.vertices = list(vertices)
        if markers is None:
            markers = ["start"] + ["leaf"] * (len(self.vertices) - 1)
        self.markers = list(markers)
        if len(self.markers) != len(self.vertices):
            raise ValueError("one marker per vertex")
        if validate:
            self.validate()

    def validate(self):
        for u, v in zip(self.vertices, self.vertices[1:]):
            if u.x == v.x and u.y == v.y:
                raise ValueError("consecutive vertices must be distinct")
        for i, (pt, mark) in enumerate(zip(self.vertices, self.markers)):
            if mark == "cusp":
                continue
            if _is_integer(pt.x) and _is_integer(pt.y):
                raise SingularHit(f"vertex {i} lies on the lattice", point=pt)
        for i in range(1, len(self.vertices)):
            hit = _segment_lattice_hit(self.vertices[i - 1], self.vertices[i])
            if hit is not None:
                raise SingularHit("segment passes through a lattice point",
                                  point=hit)

    def segments(self):
        for i in range(1, len(self.vertices)):
            yield self.vertices[i - 1], self.vertices[i], self.markers[i]

    def concat(self, other: "FlatPath") -> "FlatPath":
        if tuple(self.vertices[-1]) != tuple(other.vertices[0]):
            raise ValueError("paths do not share an endpoint")
        return FlatPath(self.vertices + other.vertices[1:],
                        self.markers + other.markers[1:], validate=False)

    def to_json(self) -> dict:
        field = None
        for pt in self.vertices:
            for c in (pt.x, pt.y):
                if isinstance(c, QuadNum) and c.b != 0:
                    field = f"sqrt{c.d}"
        return {
            "field": field,
            "vertices": [[format_exact(pt.x), format_exact(pt.y)]
                         for pt in self.vertices],
            "markers": list(self.markers),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FlatPath":
        vertices = [FlatPoint(parse_exact(x), parse_exact(y))
                    for x, y in doc["vertices"]]
        return cls(vertices, doc.get("markers"))


def _is_integer(x: Number) -> bool:
    if isinstance(x, QuadNum):
        return x.b == 0 and x.a.denominator == 1
    return Fraction(x).denominator == 1


def _segment_lattice_hit(p: FlatPoint, q: FlatPoint):
    """The lattice point strictly interior to the segment (p, q) with the
    smallest abscissa (then ordinate), or None; decided in O(1) by the
    block kernel's first-hit test."""
    if p.x == q.x:
        lo, hi = (p.y, q.y) if p.y < q.y else (q.y, p.y)
        n = exact_floor(lo) + 1
        return FlatPoint(p.x, Fraction(n)) if _is_integer(p.x) and n < hi else None
    x_lo, x_hi = (p.x, q.x) if p.x < q.x else (q.x, p.x)
    m0 = exact_floor(x_lo)
    J = -exact_floor(-x_hi) - m0 - 1  # integers strictly inside (x_lo, x_hi)
    if J < 1:
        return None
    slope = (q.y - p.y) / (q.x - p.x)
    E, F, S, G, _, C = _integer_form(slope, p.y + (m0 - p.x) * slope)
    hit = _first_hit(E, F, S, G, C, J)
    return None if hit is None else FlatPoint(Fraction(m0 + hit[0]), Fraction(hit[1]))


# -- transverse measure ------------------------------------------------------

Measure = Exact  # vertical-shift convention: |dy - theta dx| summed over segments


def transverse_measure(path: FlatPath, theta: Exact, normalized: bool = False):
    """Exact transverse measure of ``path`` against the slope-theta foliation.

    With ``normalized=True`` the perpendicular-length value is returned as a
    float (the exact value times 1/sqrt(1+theta^2)) for plotting only.
    """
    total: Exact = Fraction(0)
    for u, v, _mark in path.segments():
        contribution = abs((v.y - u.y) - theta * (v.x - u.x))
        total = total + contribution
    if normalized:
        t = float(theta)
        return float(total) / math.sqrt(1.0 + t * t)
    return total


# -- cutting sequences ---------------------------------------------------------
#
# One kernel reads every Sturmian word in the package: the mechanical word
# with blocks floor((j+1) theta + s) - floor(j theta + s) (Morse-Hedlund
# 1940; Lothaire, Algebraic Combinatorics on Words, ch. 2).  Block j counts
# the horizontal grid lines the line y = theta x + s crosses for x in
# (j, j+1); its letters are b^block a.
#
# The kernel copies windows of q blocks, p/q the last convergent of theta
# with q <= J + 1.  With x = m theta + s, n0 = floor(x) and
# r = floor(q x) - q n0, floor(x + i theta) = n0 + floor((r + i p)/q) for
# every i = 0..q but at most one: |i (q theta - p)| < q/q' <= 1 (q' the
# next convergent denominator), so only the residue r + i p = q - 1
# (theta > p/q) or 0 (theta < p/q) mod q can cross an integer, and it comes
# up at exactly one i* in 1..q.  So a window is a slice of the doubled
# period word of p/q from block j0 = r/p mod q, which is letter
# j0 + floor(j0 p/q), and one exact floor at i* decides whether one "ab"
# turns into "ba" (one 'b' more or less at the window's end when i* = q).
# Three exact floors per window in all.


def _integer_form(theta_val: Exact, s) -> tuple[int, int, int, int, int, int]:
    """Integers (E, F, S, G, d, C), C > 0, with
    j theta + s = (E j + S + (F j + G) sqrt(d)) / C."""
    th = theta_val if isinstance(theta_val, QuadNum) else QuadNum(theta_val)
    *parts, d = th._align(s)  # raises on mixed fields
    C = math.lcm(*(x.denominator for x in parts))
    E, F, S, G = (x.numerator * (C // x.denominator) for x in parts)
    return E, F, S, G, d, C


def _quotients(E: int, F: int, d: int, C: int):
    """Partial quotients of (E + F sqrt(d)) / C: Euclid's algorithm when
    F = 0, else the endless (P + sqrt(D)) / Q recurrence, D not a square."""
    if not F:
        while C:
            yield E // C
            E, C = C, E % C
        return
    D = F * F * d * C * C
    P, Q = (E * C, C * C) if F > 0 else (-E * C, -C * C)
    root = math.isqrt(D)
    while True:
        a = (P + root + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q


def _period_word(quotients: list[int]) -> str:
    """Letters of the blocks floor((t+1) P/Q) - floor(t P/Q), t < Q, for
    P/Q = [c; a_1, ..., a_k] given by its partial quotients.

    Q/(P+Q) = [0; c+1, a_1, ..., a_k], and its standard word (s_1 = b^c a,
    s_0 = b, s_k = s_{k-1}^{a_k} s_{k-2}; Lothaire ch. 2) is this word up to
    the last two letters, which are "ba"."""
    prev, word = "b", "b" * quotients[0] + "a"
    for a in quotients[1:]:
        prev, word = word, word * a + prev
    return word[:-2] + "ba" if len(quotients) > 1 else word


def _window_word(E, F, S, G, d, C, J: int, lift: bool,
                 q_max: Optional[int] = None) -> tuple[str, int]:
    """(letters, c): the letters of blocks 0..J-1 of
    x_j = (E j + S + (F j + G) sqrt(d)) / C, and c = floor((E + F sqrt(d)) / C).

    Unless ``lift`` (which needs c >= 0), every block drops c b's, leaving
    blocks 0 and 1.  ``q_max`` caps the window length (default J + 1)."""
    limit = max(J, 0) + 1 if q_max is None else q_max
    quotients, sign = [], 0
    p0, q0, p, q = 0, 1, 1, 0
    for a in _quotients(E, F, d, C):
        if a * q + q0 > limit:
            sign = 1 if len(quotients) % 2 else -1  # even index: below theta
            break
        quotients.append(a)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    c = quotients[0]
    shift = 0 if lift else c
    quotients[0] -= shift
    P = p - shift * q
    period = _period_word(quotients) * 2
    inv = pow(p, -1, q)
    target = q - 1 if sign > 0 else 0
    pieces = []
    A, B = S, G
    for _ in range(-(-J // q)):
        n0 = pair_floor(A, B, d, C)
        r = pair_floor(q * A, q * B, d, C) - q * n0
        j0 = r * inv % q
        start = j0 + j0 * P // q
        end = start + P + q
        i = (target - r) * inv % q or q
        k = (r + i * p) // q
        miss = sign and pair_floor(A + i * E, B + i * F, d, C) - n0 - k
        if miss not in (0, sign):
            raise CertificateViolation(f"window floor off by {miss} at j={i}")
        e = start + i - 1 + k - shift * i  # the 'a' closing block i - 1
        if miss > 0:
            pieces += [period[start:e], "ba", period[e + 2:end]]
        elif miss < 0:
            pieces += [period[start:e - 1], "ab" if i < q else "a", period[e + 1:end]]
        else:
            pieces.append(period[start:end])
        A += q * E
        B += q * F
    n = J + pair_floor(S + J * E, G + J * F, d, C) - pair_floor(S, G, d, C) - shift * J
    return "".join(pieces)[:n], c


def floor_blocks(E: int, F: int, S: int, G: int, d: int, C: int, J: int) -> list[int]:
    """Blocks floor(x_{j+1}) - floor(x_j), j = 0..J-1, of
    x_j = (E j + S + (F j + G) sqrt(d)) / C, with square-free d and C > 0,
    read off the window kernel's letters one byte per block."""
    letters, c = _window_word(E, F, S, G, d, C, J, lift=False)
    base = c if 0 <= c < 255 else 0  # block values as bytes where they fit
    blocks = list(letters.encode().replace(b"ba", b"\x01")
                  .translate(bytes.maketrans(b"a\x01", bytes((base, base + 1)))))
    return blocks if base == c else list(map(c.__add__, blocks))


def _first_hit(E, F, S, G, C, J) -> Optional[tuple[int, int]]:
    """Smallest lattice point (i, n), 1 <= i <= J, with
    (E i + S + (F i + G) sqrt(d)) / C = n, or None."""
    if F:
        # an irrational slope meets at most one lattice point, where F i + G = 0
        i = -G // F if G % F == 0 else 0
    elif G:
        return None  # s irrational over a rational slope
    else:
        # E i + S = 0 (mod C), solvable when gcd(E, C) divides S; a
        # horizontal line (E = 0, so m = 1) meets every abscissa or none
        g = math.gcd(E, C)
        m = C // g
        i = (-S // g) * pow(E // g, -1, m) % m or m if S % g == 0 else 0
    if 1 <= i <= J and (E * i + S) % C == 0:
        return i, (E * i + S) // C
    return None


def _enclosure_blocks(theta: ContinuedFraction, s, J: int) -> list[int]:
    """Blocks of an opaque slope by one enclosure comparison each.

    With c0 < theta < c0 + 1 and n = floor(j theta + s), block j is c0 + 1
    when (j+1) theta + s exceeds n + c0 + 1 and c0 otherwise; an opaque
    slope compares as irrational, so the two never meet."""
    c0 = theta.floor_part()
    n = exact_floor(s)
    blocks = []
    for j in range(J):
        block = c0 + (theta.compare(Fraction(n + c0 + 1 - s, j + 1)) > 0)
        blocks.append(block)
        n += block
    return blocks


def sturmian_blocks(theta: ContinuedFraction, s, num_blocks: int):
    """(blocks, hit): the first ``num_blocks`` blocks of the line
    y = theta x + s leaving (0, s), and the first lattice point (m, n) the
    line meets at an abscissa 1 <= m <= num_blocks, or None.

    Slopes with an exact value use exact integer floors of j theta + s;
    ``s`` is rational or lies in theta's quadratic field.  Opaque coefficient
    sources use enclosure comparisons and a rational ``s``.
    """
    theta_val = theta.value()
    if theta_val is None:
        return _enclosure_blocks(theta, s, num_blocks), None
    E, F, S, G, d, C = _integer_form(theta_val, s)
    return (floor_blocks(E, F, S, G, d, C, num_blocks),
            _first_hit(E, F, S, G, C, num_blocks))


def sturmian_letters(theta: ContinuedFraction, s, num_letters: int):
    """(letters, hit): the first ``num_letters`` letters of the line from
    (0, s), 'b' per horizontal grid line and 'a' per vertical one, and the
    lattice point (m, n) the line meets within them, or None."""
    # J blocks hold J + floor(J theta + s) - floor(s) > J (1 + theta) - 1
    # letters, so J > num_letters / (1 + theta) blocks suffice
    theta_val = theta.value()
    if theta_val is None:
        J = num_letters // (1 + theta.floor_part()) + 1  # an opaque slope exceeds c0
        letters, hit = "".join(["b" * n + "a" for n in _enclosure_blocks(theta, s, J)]), None
    else:
        E, F, S, G, d, C = _integer_form(theta_val, s)
        # num_letters / (1 + theta) = n C (C + E - F sqrt(d)) / ((C + E)^2 - F^2 d)
        A, B, den = num_letters * C * (C + E), -num_letters * C * F, (C + E) ** 2 - F * F * d
        J = (pair_floor(A, B, d, den) if den > 0 else pair_floor(-A, -B, d, -den)) + 1
        letters, hit = _window_word(E, F, S, G, d, C, J, lift=True)[0], _first_hit(E, F, S, G, C, J)
    # the line reaches the hit after m - 1 a's and n - floor(s) - 1 b's
    if hit is not None and hit[0] + hit[1] - exact_floor(s) - 2 >= num_letters:
        hit = None
    return letters[:num_letters], hit


def _singular(hit) -> SingularHit:
    m, n = hit
    return SingularHit(f"line hits lattice point ({m}, {n})",
                       point=FlatPoint(Fraction(m), Fraction(n)))


def cutting_sequence(s, theta: ContinuedFraction, num_letters: int) -> str:
    """Crossing word of the line y = theta x + s leaving (0, s) rightward:
    'b' per horizontal grid line, 'a' per vertical grid line.

    Exact: a crossing that lands on a lattice point raises SingularHit with
    the point.  Slopes with an exact value use field arithmetic; opaque
    coefficient sources fall back to enclosure comparisons.
    """
    theta_val = theta.value()
    if theta_val is not None and not theta_val > 0:
        raise ValueError("theta must be positive")
    letters, hit = sturmian_letters(theta, s, num_letters)
    if hit is not None:
        raise _singular(hit)
    return letters


def cutting_blocks(s, theta: ContinuedFraction, num_blocks: int) -> tuple[int, ...]:
    """First ``num_blocks`` block sizes of the cutting sequence from height s."""
    blocks, hit = sturmian_blocks(theta, s, num_blocks)
    if hit is not None:
        raise _singular(hit)
    return tuple(blocks)


def _axis_crossings(u0, dx, letter):
    """Crossing parameters of integer lines along one coordinate, on (0, 1]."""
    events = []
    if dx == 0:
        return events
    v0 = u0 + dx
    lo, hi = (u0, v0) if u0 < v0 else (v0, u0)
    m = exact_floor(lo)
    while m <= hi:
        t = (m - u0) / dx
        if 0 < t <= 1:
            events.append((t, letter))
        m += 1
    return events


def path_crossing_word(path: FlatPath) -> str:
    """Grid-crossing word of a piecewise path; crossings are counted on the
    half-open segment (start, end].  Cusp-marked lattice junctions separate
    segments without contributing letters."""
    out = []
    for u, v, mark in path.segments():
        events = (_axis_crossings(u.x, v.x - u.x, "a")
                  + _axis_crossings(u.y, v.y - u.y, "b"))
        events.sort(key=lambda e: e[0])
        for t, letter in events:
            if mark == "cusp" and t == 1:
                continue
            out.append(letter)
    return "".join(out)


# -- rotation orbit structure ---------------------------------------------------

def three_distance_points(s, r) -> list:
    """Heights s + r*l mod 1 for l = 0..q-1, sorted: with r = p/q in lowest
    terms they are (frac(q s) + j)/q for j = 0..q-1, 1/q apart."""
    q = Fraction(r).denominator
    low = frac_part(s * q)
    return [(low + j) * Fraction(1, q) for j in range(q)]


@dataclass(frozen=True)
class ClearanceCertificate:
    """Witness that the slope-theta line and its convergent approximation stay
    in the same lattice cells over one cycle, except at the extreme height."""

    k: int
    l0: int
    heights: tuple
    agreements: tuple  # (l, common integer part) for l != l0


def homotopy_clearance(s, theta: ContinuedFraction, k: int) -> ClearanceCertificate:
    """Certify the lattice-free strip between y = theta x + s and the k-th
    convergent line over 0 <= x <= q_k.

    Requires 1/q_k < 1 - s for even k and 1/q_k < s for odd k; returns the
    index l0 of the extreme height and, for every other l, the common integer
    part of theta l + s and (p_k/q_k) l + s.
    """
    cv = theta.convergent(k)
    q = cv.q
    eps = (1 - s) if k % 2 == 0 else s
    if not Fraction(1, q) < eps:
        raise ClearanceViolated(
            f"need 1/q_k < {'1-s' if k % 2 == 0 else 's'} at k={k}")
    # floor(l p_k/q_k + s) and floor(l theta + s) for l = 0..q-1, as floor(s)
    # plus prefix sums of blocks from the one Sturmian kernel
    E, F, S, G, d, C = _integer_form(Fraction(cv.p, q), s)
    f_rat = list(accumulate(floor_blocks(E, F, S, G, d, C, q - 1), initial=exact_floor(s)))
    f_theta = list(accumulate(sturmian_blocks(theta, s, q - 1)[0], initial=exact_floor(s)))
    # height l is (num_l + G sqrt(d)) / C, so integer numerators order them
    nums = [E * l + S - C * f for l, f in enumerate(f_rat)]
    l0 = (max if k % 2 == 0 else min)(range(q), key=nums.__getitem__)
    heights = [Fraction(n, C) for n in nums]
    if isinstance(s, QuadNum):
        heights = [h + QuadNum(0, s.b, s.d) for h in heights]
    for l, (f, g) in enumerate(zip(f_theta, f_rat)):
        if f != g and l != l0:
            raise CertificateViolation(f"integer parts split at l={l}")
    agreements = [(l, f) for l, f in enumerate(f_theta) if l != l0]
    return ClearanceCertificate(k, l0, tuple(heights), tuple(agreements))


# -- growth probes -----------------------------------------------------------------

@dataclass(frozen=True)
class GrowthRow:
    t: Exact
    measure: Exact
    target: Optional[float] = None


def linear_growth_probe(theta: ContinuedFraction, direction, t_max, samples: int) -> list[GrowthRow]:
    """Measure straight paths of parameter length t in a fixed direction.

    ``direction`` is an exact slope or the string "vertical"; parameter length
    is dx for sloped directions and the height for vertical ones.  The table
    satisfies I(t) = t * I(1) exactly.
    """
    theta_val = theta.value()
    base = FlatPoint(Fraction(1, 7), Fraction(1, 9))
    rows = []
    t_max = Fraction(t_max)
    for i in range(1, samples + 1):
        t = t_max * i / samples
        if direction == "vertical":
            end = FlatPoint(base.x, base.y + t)
        else:
            end = FlatPoint(base.x + t, base.y + direction * t)
        path = FlatPath([base, end], validate=False)
        rows.append(GrowthRow(t, transverse_measure(path, theta_val)))
    return rows


def prescribed_growth_path(theta: ContinuedFraction, f: Callable[[float], float],
                           n_segments: int, t_cap=None):
    """Piecewise path whose transverse measure tracks a sublinear target f.

    Leaf segments of lengths d_n with f(d_1 + ... + d_n) = n alternate with
    unit-measure vertical jumps, so the measure at the n-th joint is exactly n
    and |I - f| <= 1 there.  Returns (path, rows); rows carry (t, I(t), f(t))
    at the joints.  Raises InvalidGrowthFunction when f(0) != 0 or f fails to
    increase across a bracket.
    """
    if abs(f(0.0)) > 1e-12:
        raise InvalidGrowthFunction("f(0) must be 0")
    theta_val = theta.value()
    if t_cap is None:
        t_cap = Fraction(10) ** 9

    joints = []
    T_prev = Fraction(0)
    for n in range(1, n_segments + 1):
        lo = T_prev
        hi = max(T_prev * 2, Fraction(1))
        tries = 0
        while f(float(hi)) < n:
            hi *= 2
            tries += 1
            if hi > t_cap or tries > 200:
                joints_ok = False
                break
        else:
            joints_ok = True
        if not joints_ok:
            break
        if f(float(lo)) > n:
            raise InvalidGrowthFunction("f decreased across a bracket")
        for _ in range(60):
            mid = (lo + hi) / 2
            if f(float(mid)) < n:
                lo = mid
            else:
                hi = mid
        T_n = (lo + hi) / 2
        # keep jump abscissas off the integer lattice
        while T_n.denominator == 1:
            T_n += Fraction(1, 2 ** 31)
        joints.append(T_n)
        T_prev = T_n

    base = FlatPoint(Fraction(0), Fraction(1, 7))
    vertices = [base]
    markers = ["start"]
    x = base.x
    y: Exact = base.y
    for T_n in joints:
        dx = T_n - x
        x = T_n
        y = y + theta_val * dx
        vertices.append(FlatPoint(x, y))
        markers.append("leaf")
        y = y + 1
        vertices.append(FlatPoint(x, y))
        markers.append("hop")
    if not joints:
        end_x = min(Fraction(t_cap), Fraction(100))
        vertices.append(FlatPoint(end_x, base.y + theta_val * end_x))
        markers.append("leaf")
    path = FlatPath(vertices, markers, validate=False)

    rows = []
    for n, T_n in enumerate(joints, start=1):
        rows.append(GrowthRow(T_n, Fraction(n), f(float(T_n))))
    return path, rows
