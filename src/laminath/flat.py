"""Exact plane geometry for the unit-square torus.

Coordinates live in Q(sqrt(d)) (or Q); the torus is the quotient by the
integer lattice and paths are recorded in the universal cover.  The
transverse measure of a path against the slope-theta foliation follows the
vertical-shift convention: a segment contributes |dy - theta dx|, so leaf
segments contribute 0, vertical hops their length, and loops around the
puncture (cusp-marked lattice vertices) nothing.  The perpendicular-length
normalization differs by the constant factor 1/sqrt(1 + theta^2) and is
available as a floating-point convenience only.

One window kernel (see the cutting sequences) reads every Sturmian word,
the oracle's sampled leaf prefixes with their window seams and period
included (``_leaf_offsets``): the oracle never reads a window plan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._record import record
from .cf import ContinuedFraction, partial_quotients
from .errors import (CertificateViolation, ClearanceViolated, InvalidGrowthFunction,
                     SingularHit)
from .exactnum import (Exact, QuadNum, decode, denominator, encode, exact_floor,
                       format_exact, pair_floor, pair_sign, parse_exact, surd)


@record(frozen=True)
class FlatPoint:
    x: Exact
    y: Exact

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

    def to_json(self) -> dict:
        d = surd(c for pt in self.vertices for c in (pt.x, pt.y))
        return {
            "field": d and f"sqrt{d}",
            "vertices": [[format_exact(pt.x), format_exact(pt.y)]
                         for pt in self.vertices],
            "markers": list(self.markers),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FlatPath":
        """The path of a :meth:`to_json` document; any other shape raises
        ValueError."""
        vertices, markers = (doc.get("vertices"), doc.get("markers")) if isinstance(
            doc, dict) else (None, None)
        if not (isinstance(vertices, list)
                and all(isinstance(v, list) and len(v) == 2 for v in vertices)
                and (markers is None or isinstance(markers, list)
                     and all(isinstance(m, str) for m in markers))):
            raise ValueError('a path document is {"vertices": [[x, y], ...], '
                             '"markers": [...]}')
        return cls([FlatPoint(parse_exact(x), parse_exact(y)) for x, y in vertices], markers)


def _is_integer(x: Exact) -> bool:
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
# with q <= J + 1.  With x = m theta + s, one floor, floor(q x) = q n0 + r
# with 0 <= r < q, gives n0 = floor(x) too (Graham, Knuth and Patashnik,
# Concrete Mathematics, 3.2), and floor(x + i theta) = n0 + floor((r + i p)/q)
# for every i = 0..q but at most one: |i (q theta - p)| < q/q' <= 1 (q' the
# next convergent denominator), so only the residue r + i p = q - 1
# (theta > p/q) or 0 (theta < p/q) mod q can cross an integer, and it comes
# up at exactly one i* in 1..q.  So a window is blocks j0..j0+q-1 of the
# doubled period of p/q, j0 = r/p mod q, and one exact floor at i* decides
# whether block i* - 1 gains one from block i* or loses one to it (from or
# to nothing when i* = q).  Two exact floors per window in all.  The window
# plan decides windows once, and one read-out copies them in the images of
# the block offsets 0/1 from c = floor(theta): the bytes 0/1, or the letters
# b^c a and b^(c+1) a.  One standard-word recursion builds the period in
# either image, as the morphism of the images commutes with it.  The slope
# half of the plan (p/q, the sign, p^-1 mod q, the images and the period)
# depends on the slope, J and the images alone, so lines of one slope at
# many heights share it, as the sampled read-out (``_leaf_offsets``) does
# across the heights of one search.


def _integer_form(theta_val: Exact, s) -> tuple[int, int, int, int, int, int]:
    """Integers (E, F, S, G, d, C), C > 0, with
    j theta + s = (E j + S + (F j + G) sqrt(d)) / C."""
    d = surd((theta_val, s)) or 2  # raises on mixed fields
    C = math.lcm(denominator(theta_val), denominator(s))
    (E, F), (S, G) = encode(theta_val, C), encode(s, C)
    return E, F, S, G, d, C


_OFFSETS = (b"\x00", b"\x01")


def _letter_images(c: int) -> tuple[str, str]:
    """The letters b^c a and b^(c+1) a of the block offsets 0 and 1 from c."""
    return "b" * c + "a", "b" * c + "ba"


def _block_periods(quotients: Iterable[int], k: int, images=_OFFSETS) -> Iterator:
    """Blocks floor((t+1) P/Q) - floor(t P/Q) - c, t < Q, in ``images`` (of
    the offsets 0 and 1; the offsets themselves by default), of P/Q = [c;
    a_1, ..., a_l] for l = k, k + 1, ..., each a_l read from ``quotients``
    when its level is asked for: [c] and [c; 1] have Q = 1, else 0 w 1 with
    w the standard word of directive (a_1 - 1, a_2, ..., a_l) over 1, 0 less
    its last two blocks, 01 or 10 (Berstel et al., Combinatorics on Words,
    2008).  Level l + 1 is one more step of the recursion
    s_l = s_{l-1}^{d_l} s_{l-2} (Lothaire ch. 2), run inline on the images."""
    x0, x1 = images
    last_two = len(x0) + len(x1)
    quotients = iter(quotients)
    next(quotients)
    if k == 0:
        yield x0
    prev, word = x1, x0
    for l, a in enumerate(quotients, 1):
        prev, word = word, word * (a - (l == 1)) + prev
        if l >= k:  # [c; 1] has the one-block word 1
            yield x0[:0].join((x0, word[:-last_two], x1)) if len(word) > len(x1) else word


def _slope_plan(E, F, d, C, J: int, letters: bool = False) -> tuple:
    """(quotients, p, q, sign, inv, images, doubled period): the slope half
    of a window plan for J blocks of slope (E + F sqrt(d)) / C.  p/q = [c;
    a_1, ..., a_k] is its last convergent with q <= J + 1, sign that of
    slope - p/q (0 when the expansion ends at p/q), inv = p^-1 mod q, the
    images those of the block offsets 0 and 1 (the offsets themselves, or
    with ``letters`` the letters b^c a and b^(c+1) a), and the period is
    ``_block_periods``' at p/q in them, twice over.  Every line of this
    slope, at any height and scale C, reads its windows off the same plan."""
    limit, quotients, sign = max(J, 0) + 1, [], 0
    p0, q0, p, q = 0, 1, 1, 0
    for a in partial_quotients(E, F, d, C):
        if a * q + q0 > limit:
            sign = 1 if len(quotients) % 2 else -1  # even index: below theta
            break
        quotients.append(a)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    images = _letter_images(quotients[0]) if letters else _OFFSETS
    period = next(_block_periods(quotients, len(quotients) - 1, images))
    return quotients, p, q, sign, pow(p, -1, q), images, period * 2


def _window_plan(plan, E, F, S, G, d, C, J: int) -> list[tuple[int, int, int]]:
    """The height half of the window plan for blocks j < J of
    x_j = (E j + S + (F j + G) sqrt(d)) / C, whose slope half is ``plan``:
    per window of q blocks (j0, i, miss), its start in the period and its
    block i - 1 off by miss (block i by -miss if i < q).  Two exact floors
    per window, floor(q x) and the one at i.  When the slope is p/q (sign
    0) a window moves q x by the integer q p, so every window is the first,
    read with one floor."""
    _, p, q, sign, inv, _, _ = plan
    target = q - 1 if sign > 0 else 0
    windows = []
    A, B = S, G
    for _ in range(-(-J // q)):
        n0, r = divmod(pair_floor(q * A, q * B, d, C), q)
        i = (target - r) * inv % q or q
        miss = sign and pair_floor(A + i * E, B + i * F, d, C) - n0 - (r + i * p) // q
        if miss not in (0, sign):
            raise CertificateViolation(f"window floor off by {miss} at j={i}")
        windows.append((r * inv % q, i, miss))
        if not sign:
            return windows * -(-J // q)
        A, B = A + q * E, B + q * F
    return windows


def _window_read(plan, windows):
    """The whole windows of ``windows`` (``_window_plan``'s, of the slope
    half ``plan``) read off the plan in its images: 0/1 offsets or letters.
    Block j of the doubled period starts at j w0 + (w1 - w0) floor(j f/q),
    with w0 and w1 the images' lengths and f = p - c q the offsets' sum
    over a period.  At a slope p/q (sign 0) every window is the first, read
    once and repeated."""
    quotients, p, q, sign, _, (x0, x1), period = plan
    w0, w1, f = len(x0), len(x1), p - quotients[0] * q
    width = q * w0 + (w1 - w0) * f
    pieces, repeat = [], 1
    if not sign:
        windows, repeat = windows[:1], len(windows)
    for j0, i, miss in windows:
        start = j0 * w0 + (w1 - w0) * (j0 * f // q)
        if not miss:
            pieces.append(period[start:start + width])
            continue
        # blocks i - 1 and i of the window swap 0 1 for 1 0 (miss > 0) or back,
        # block i - 1 alone when i = q, where the tail slice is empty
        j = j0 + i - 1
        cut = j * w0 + (w1 - w0) * (j * f // q)
        swap = (x1 + x0 if miss > 0 else x0 + x1) if i < q else (x1 if miss > 0 else x0)
        pieces += (period[start:cut], swap, period[cut + w0 + w1:start + width])
    return period[:0].join(pieces) * repeat


def _window_blocks(E, F, S, G, d, C, J: int, plan=None):
    """(offsets, c): blocks 0..J-1 of x_j less c = floor(x_1 - x_0), as a
    bytearray of 0/1 offsets, the first J of the read-out of the slope half
    ``plan`` (``_slope_plan``, built here when not given)."""
    plan = plan or _slope_plan(E, F, d, C, J)
    offsets = bytearray(_window_read(plan, _window_plan(plan, E, F, S, G, d, C, J)))
    del offsets[J:]
    return offsets, plan[0][0]


def _block_values(offsets, c: int):
    """The blocks c + offset, by one translate where they fit in a byte."""
    return (offsets.translate(bytes.maketrans(b"\x00\x01", bytes((c, c + 1))))
            if 0 <= c < 255 else list(map(c.__add__, offsets)))


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


def _line(theta: ContinuedFraction, s, J: int) -> tuple[int, int, int, int, int, int]:
    """The kernel's integers (E, F, S, G, d, C) of the line y = theta x + s,
    or, when theta is an opaque source, of an exact stand-in line with the
    same first J blocks and no lattice point; s = a/b is then rational.

    The stand-in has slope p/q, the least even convergent of theta whose next
    denominator q' exceeds J b, and starts at s + 1/(2qb).  For 1 <= j <= J,
    0 < j theta - j p/q < J/(q q') < 1/(qb), and g = j p/q + s lies on the
    grid (1/(qb))Z, which holds the integers: j theta + s and the stand-in's
    g + 1/(2qb) lie in the open cell (g, g + 1/(qb)), so both have integer
    part floor(g), as s and s + 1/(2qb) do at j = 0."""
    theta_val = theta.value()
    if theta_val is not None:
        return _integer_form(theta_val, s)
    b = Fraction(s).denominator
    k = 0
    while theta.convergent(k + 1).q <= J * b:
        k += 2
    cv = theta.convergent(k)
    return _integer_form(Fraction(cv.p, cv.q), s + Fraction(1, 2 * cv.q * b))


def sturmian_blocks(theta: ContinuedFraction, s, num_blocks: int):
    """(blocks, hit): the first ``num_blocks`` blocks of the line
    y = theta x + s leaving (0, s), and the first lattice point (m, n) the
    line meets at an abscissa 1 <= m <= num_blocks, or None.

    Slopes with an exact value use exact integer floors of j theta + s;
    ``s`` is rational or lies in theta's quadratic field.  An opaque
    coefficient source, irrational by contract, takes a rational ``s`` and
    reads a convergent line with the same blocks (``_line``).
    """
    E, F, S, G, d, C = _line(theta, s, num_blocks)
    return (list(_block_values(*_window_blocks(E, F, S, G, d, C, num_blocks))),
            _first_hit(E, F, S, G, C, num_blocks))


def _letter_line(theta: ContinuedFraction, s, num_letters: int):
    """(E, F, S, G, d, C, J): ``_line``'s integers of the line from (0, s)
    and the J blocks that hold its first ``num_letters`` letters."""
    # J blocks hold J + floor(J theta + s) - floor(s) > J (1 + theta) - 1
    # letters, so J > num_letters / (1 + theta) blocks suffice; an opaque
    # slope's stand-in line has a slope of at least c0, so it needs no more
    # than the num_letters // (1 + c0) + 1 blocks it is built for
    E, F, S, G, d, C = _line(theta, s, num_letters // (1 + theta.floor_part()) + 1)
    # num_letters / (1 + theta) = n C (C + E - F sqrt(d)) / ((C + E)^2 - F^2 d)
    A, B, den = num_letters * C * (C + E), -num_letters * C * F, (C + E) ** 2 - F * F * d
    J = (pair_floor(A, B, d, den) if den > 0 else pair_floor(-A, -B, d, -den)) + 1
    return E, F, S, G, d, C, J


def _leaf_offsets(theta: ContinuedFraction, s, n: int, plans: dict) -> tuple:
    """(offsets, seams, period): the J blocks of ``_letter_line`` that hold
    the first n letters of the leaf word from (0, s), as 0/1 offsets from
    c0; the ascending seams of their read-out; and the block period of its
    plan, one object per plan.

    The slope half of the window plan and its period come from ``plans``,
    keyed by the line's slope reduced by its gcd and J, built there on first
    use: heights over different denominators scale the same slope's
    integers differently.  Window w is bytes wq .. wq + q - 1 of the
    read-out; its seams are the byte before it (but for the first window)
    and its off blocks' bytes, wq + i - 1 and wq + i (the first alone when
    i = q).  So a run that holds no seam lies in one window, off its
    swapped blocks: it is a factor of the periodic word of the period.

    A rational height a/b over an exact slope reads (E, F, d, C), J and the
    plan off ``plans`` under (b, n) after the first: only S = a C/b is its
    own (G = 0).  Other heights derive their line each time."""
    b = s.denominator if isinstance(s, Fraction) and theta.value() is not None else None
    line = plans.get((b, n))
    if line is None:
        E, F, S, G, d, C, J = _letter_line(theta, s, n)
        g = math.gcd(E, F, C)
        key = (E // g, F // g, d, C // g, J)
        if key not in plans:
            plan = _slope_plan(E, F, d, C, J)
            plans[key] = plan, plan[6][:plan[2]]
        line = E, F, d, C, J, plans[key]
        if b is not None:
            plans[b, n] = line
    else:
        E, F, d, C, J, _ = line
        S, G = s.numerator * (C // b), 0
    plan, period = line[5]
    q = len(period)
    windows = _window_plan(plan, E, F, S, G, d, C, J)
    seams = []
    for w, (_, i, miss) in enumerate(windows):
        if w:
            seams.append(w * q - 1)
        if miss:
            seams += (w * q + i - 1, w * q + i) if i < q else (w * q + q - 1,)
    return _window_read(plan, windows)[:J], seams, period


def sturmian_letters(theta: ContinuedFraction, s, num_letters: int):
    """(letters, hit): the first ``num_letters`` letters of the line from
    (0, s), 'b' per horizontal grid line and 'a' per vertical one, and the
    lattice point (m, n) the line meets within them, or None."""
    E, F, S, G, d, C, J = _letter_line(theta, s, num_letters)
    plan = _slope_plan(E, F, d, C, J, letters=True)
    letters = _window_read(plan, _window_plan(plan, E, F, S, G, d, C, J))
    hit = _first_hit(E, F, S, G, C, J)
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
    the point.  Slopes with an exact value use field arithmetic; an opaque
    coefficient source reads an exact convergent line with the same letters.
    """
    theta_val = theta.value()
    if theta_val is not None and not theta_val > 0:
        raise ValueError("theta must be positive")
    letters, hit = sturmian_letters(theta, s, num_letters)
    if hit is not None:
        raise _singular(hit)
    return letters


# -- rotation orbit structure ---------------------------------------------------

@record(frozen=True)
class ClearanceCertificate:
    """Witness that the slope-theta line and its convergent approximation stay
    in the same lattice cells over one cycle, except at the extreme height.

    Kept as the kernel's integers: (p_k/q_k) l + s is (E l + S + G sqrt(d)) / C,
    floors[l] = (l p_k + floor(q_k s)) // q_k its integer part, which theta
    l + s shares for l != l0, and height l, its fractional part, (nums[l] +
    G sqrt(d)) / C with nums[l] = E l + S - C floors[l].  ``floors``,
    ``nums``, ``heights`` and ``agreements`` are derived on request."""

    k: int
    l0: int
    C: int
    E: int
    S: int
    G: int
    d: int

    @property
    def floors(self) -> tuple:
        q = self.C // math.gcd(self.E, self.C)  # E/C is p_k/q_k
        p, t = self.E * q // self.C, pair_floor(q * self.S, q * self.G, self.d, self.C)
        return tuple((l * p + t) // q for l in range(q))

    @property
    def nums(self) -> tuple:
        E, S, C = self.E, self.S, self.C
        return tuple(E * l + S - C * f for l, f in enumerate(self.floors))

    @property
    def heights(self) -> tuple:
        """Height l for l = 0..q_k-1: a Fraction, or a QuadNum when s has a
        surd part."""
        C, G, d = self.C, self.G, self.d
        return tuple(decode((n, G), C, d) for n in self.nums)

    @property
    def agreements(self) -> tuple:
        """(l, common integer part) for l != l0."""
        return tuple((l, f) for l, f in enumerate(self.floors) if l != self.l0)


def homotopy_clearance(s, theta: ContinuedFraction, k: int) -> ClearanceCertificate:
    """Certify the lattice-free strip between y = theta x + s and the k-th
    convergent line over 0 <= x <= q_k.

    Requires 1/q_k < 1 - s for even k and 1/q_k < s for odd k; returns the
    index l0 of the extreme height and, for every other l, the common integer
    part of theta l + s and (p_k/q_k) l + s.

    Decided in O(1).  For l < q = q_k, |l (theta - p/q)| < 1/q once (q - 1)
    |q theta - p| < 1, which |q theta - p| < 1/q_(k+1) <= 1/q gives (Khinchin,
    Continued Fractions, 1964, ch. I).  With s = floor(s) + (c + phi)/q, c an
    integer and 0 <= phi < 1, the p/q line's fractional heights are (m +
    phi)/q, m = l p + c mod q, one for each m in 0..q-1.  theta l + s lies
    above (p/q) l + s for even k and below for odd k, by less than 1/q, so
    only the extreme height, m = q - 1 (upward) or 0 (downward), can cross an
    integer, at l0 = (m - c) p^-1 mod q.  The hypothesis is checked exactly:
    for an exact slope q theta - p has the parity's sign (or is 0 at a finite
    expansion's last level) and (q - 1)|q theta - p| < 1, one comparison on
    theta's integer pair; an opaque source is irrational and q_(k+1) >= q."""
    cv = theta.convergent(k)
    p, q = cv.p, cv.q
    eps = (1 - s) if k % 2 == 0 else s
    if not Fraction(1, q) < eps:
        raise ClearanceViolated(f"need 1/q_k < {'1-s' if k % 2 == 0 else 's'} at k={k}")
    E, _, S, G, d, C = _integer_form(Fraction(p, q), s)
    if (theta_val := theta.value()) is not None:
        a, b, _, _, e, D = _integer_form(theta_val, 0)
        u, v = q * a - p * D, q * b  # q theta - p = (u + v sqrt(e))/D
        sign = pair_sign(u, v, e)
        if sign == (1 if k % 2 else -1):
            raise CertificateViolation(f"p_k/q_k lies on the wrong side of theta at k={k}")
        if pair_sign(D - (q - 1) * sign * u, -(q - 1) * sign * v, e) <= 0:
            raise CertificateViolation(f"(q_k - 1)|q_k theta - p_k| is not below 1 at k={k}")
    l0 = (-(k % 2 == 0) - pair_floor(q * S, q * G, d, C)) * pow(p, -1, q) % q  # m = -1 or 0
    return ClearanceCertificate(k, l0, C, E, S, G, d)


# -- growth probes -----------------------------------------------------------------

@record(frozen=True)
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
    and |I - f| <= 1 there.  Joints stop before the first one beyond
    ``t_cap`` (default 10^9).  Returns (path, rows); rows carry (t, I(t), f(t))
    at the joints.  Raises InvalidGrowthFunction when f(0) != 0, when f fails
    to increase across a bracket, or when f jumps so that |I - f| > 1 at a
    joint.
    """
    if abs(f(0.0)) > 1e-12:
        raise InvalidGrowthFunction("f(0) must be 0")
    theta_val = theta.value()
    if t_cap is None:
        t_cap = Fraction(10) ** 9
    vertices, markers, rows = [FlatPoint(Fraction(0), Fraction(1, 7))], ["start"], []
    T = Fraction(0)
    for n in range(1, n_segments + 1):
        # double hi until f(hi) >= n; a doubling past t_cap or the 201st ends
        # the path, as does a joint past t_cap
        lo, hi, doublings = T, max(T * 2, Fraction(1)), 0
        while f(float(hi)) < n:
            hi, doublings = hi * 2, doublings + 1
            if hi > t_cap or doublings > 200:
                break
        else:
            if f(float(lo)) > n:
                raise InvalidGrowthFunction("f decreased across a bracket")
            for _ in range(60):
                mid = (lo + hi) / 2
                if f(float(mid)) < n:
                    lo = mid
                else:
                    hi = mid
            T = (lo + hi) / 2
            # keep jump abscissas off the integer lattice
            while T.denominator == 1:
                T += Fraction(1, 2 ** 31)
            if T <= t_cap:
                if abs(n - f(float(T))) > 1:   # f jumps past n: no joint holds |I - f| <= 1
                    raise InvalidGrowthFunction(f"|I - f| exceeds 1 at joint {n}")
                y = vertices[-1].y + theta_val * (T - vertices[-1].x)
                vertices += (FlatPoint(T, y), FlatPoint(T, y + 1))
                markers += ("leaf", "hop")
                rows.append(GrowthRow(T, Fraction(n), f(float(T))))
                continue
        break
    if not rows:
        end_x = min(Fraction(t_cap), Fraction(100))
        vertices.append(FlatPoint(end_x, vertices[0].y + theta_val * end_x))
        markers.append("leaf")
    return FlatPath(vertices, markers, validate=False), rows
