"""Slow references and per-point helpers that the tests call and no
certificate, CLI command, script or benchmark needs: on surfaces
``flow_step``, ``state_point``, ``param``, ``surface_doc`` (the document
``load_surface`` reads), ``saddle_connections``, ``sample_leaf_words``
(read off the library's kernels) and ``backward_cut_values``, the cut
points decoded; on the torus
``cutting_blocks``, ``path_crossing_word``, ``concat``,
``three_distance_points``, ``revert_flip``, ``cusp_representative``,
``rotate``, ``rational_block_rotations``, ``is_finite`` and
``prescribed_growth_path``, the two-pass growth path; the letter-space
verdict ``is_admissible_letters`` on period letters from exact floors, the
slow reference of the oracle's block needles, ``cylinder_admissible``, the
O(k) cylinder-interval verdict on "ba" block words, and the letter-space searches
``first_occurrence_letters`` and ``find_witness_letters``, the slow
references of the sampling oracle and the witness search, and
``refuse_letters``, the tripwire that makes every letter path raise;
``exact_orbit``,
the exchange kernel's orbit by exact sign tests alone; ``interval_length``
of an exchange interval; ``parts`` and the slow reference ``QuadNum`` (a
Fraction pair a, b) with its ``format_exact``; ``run_cli``, one in-process
CLI call."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from typing import Optional

from laminath import cli, exactnum, flat, iet, oracle, tsurface as ts
from laminath._record import record
from laminath.cf import ContinuedFraction
from laminath.errors import CertificateViolation, InvalidGrowthFunction, InvalidSlope, SingularHit
from laminath.exactnum import (Exact, decode, exact_floor, frac_part, pair_floor, pair_sign,
                               squarefree_decompose)
from laminath.words import BlockWord, simple_word


@record(frozen=True)
class StepResult:
    kind: str                          # "crossing" | "singular" | "boundary"
    point: Optional[ts.SurfacePoint]   # transported point (crossing only)
    hit: Optional[ts.SurfacePoint]     # crossing/vertex point in the exited chart
    letter: Optional[str]              # internal char label of the exited slot
    pair: Optional[int]
    advance: Optional[Exact]           # horizontal distance travelled


def state_point(st) -> ts.SurfacePoint:
    """The point of a flow kernel state, decoded."""
    return ts.SurfacePoint(st.poly, decode(st.x, st.xden, st.d), decode(st.y, st.den, st.d))


def flow_step(point: ts.SurfacePoint, surface: ts.TranslationSurface,
              direction: int = 1) -> StepResult:
    """Exact first boundary contact of the horizontal ray from ``point``:
    one step of the surface's flow kernel.

    Inner-edge crossings transport through the gluing; a polygon vertex on
    the ray is a singular hit (informative, not fatal), an unglued edge a
    boundary hit.  ``direction`` is 1 (rightward) or -1 (leftward).
    """
    if direction not in (1, -1):
        raise ValueError("direction must be 1 or -1")
    flow = surface._flow
    st = flow.start(point)
    letter = next(flow.trace(st, back=direction < 0), None)
    p, k, x, adv = st.last
    hit = (surface.vertex_point((p, k)) if st.end == "singular"
           else ts.SurfacePoint(p, decode(x, st.xden, st.d), point.y))
    adv = decode(adv, st.xden, st.d)
    if letter is None:
        return StepResult(st.end, None, hit, None, None, adv)
    pair = surface.slot_info[(p, k)][0]
    return StepResult("crossing", state_point(st), hit, letter, pair, adv)


def param(trans: ts.Transversal, point: ts.SurfacePoint):
    """Edge parameter of a point lying on either chart of the transversal's
    pair; the gluing moves the upstream slot's start to the slot's end."""
    (q, j), (x1, y1) = trans.upstream_slot, trans.end
    x0, y0 = trans.surface.polygons[q][j]
    for x, y in ((point.x, point.y), (point.x + (x1 - x0), point.y + (y1 - y0))):
        tau = (y - trans.start[1]) / trans.vec[1]
        if 0 <= tau <= 1 and trans.start[0] + tau * trans.vec[0] == x:
            return tau
    raise ValueError("point does not lie on the transversal")


def surface_doc(surface: ts.TranslationSurface) -> dict:
    """The JSON document of a surface, as ``load_surface`` reads it."""
    d = surface._d
    return {"field": d and f"sqrt{d}",
            "polygons": [[[exactnum.format_exact(x), exactnum.format_exact(y)] for x, y in poly]
                         for poly in surface.polygons],
            "identify": [[list(sa), list(sb)] for sa, sb in surface.pairs]}


@record(frozen=True)
class SaddleConnection:
    kind: str              # "interior" leaf or "edge" (a horizontal edge)
    start_class: int
    end_class: int
    word: str
    steps: int


def saddle_connections(surface, max_steps: int = 4096):
    """Horizontal separatrices terminating at a vertex within the budget,
    with crossing words; horizontal inner edges are edge connections."""
    out = [SaddleConnection("edge", surface.corner_class[p, k],
                            surface.corner_class[p, (k + 1) % len(surface.polygons[p])], "", 0)
           for p, k in surface.slot_info if surface._edge_pairs((p, k))[2:] == (0, 0)]
    flow = surface._flow
    for corner in surface.corner_germs(+1):   # the forward separatrices
        st = flow.start(surface.vertex_point(corner))
        letters = list(islice(flow.trace(st), max_steps))
        if st.end == "singular":
            out.append(SaddleConnection("interior", surface.corner_class[corner],
                                        surface.corner_class[st.last[:2]], "".join(letters),
                                        len(letters) + 1))
    return out


def sample_leaf_words(surface, trans, num_letters: int, heights: int):
    """Leaf-word prefixes from the start parameters j/(heights + 1) on the
    transversal; start points landing exactly on a partition cut are skipped."""
    if isinstance(trans, int):
        trans = ts.Transversal(surface, trans)
    iet = trans.return_map()
    for tau in (Fraction(j, heights + 1) for j in range(1, heights + 1)):
        try:
            yield tau, iet.letter_stream(tau, num_letters)
        except SingularHit:
            continue


def backward_cut_values(trans: ts.Transversal, depth: int, step_budget: int = 400000):
    """``tsurface.backward_cut_points`` with each parameter decoded to its
    exact value."""
    N, d = trans._over[2], trans.surface._d
    return [(corner, decode(t, N, d))
            for corner, t in ts.backward_cut_points(trans, depth, step_budget)]


def cutting_blocks(s, theta: ContinuedFraction, num_blocks: int) -> tuple[int, ...]:
    """First ``num_blocks`` block sizes of the cutting sequence from height s."""
    blocks, hit = flat.sturmian_blocks(theta, s, num_blocks)
    if hit is not None:
        raise flat._singular(hit)
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


def path_crossing_word(path: flat.FlatPath) -> str:
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


def concat(path: flat.FlatPath, other: flat.FlatPath) -> flat.FlatPath:
    """``path`` followed by ``other``, which must start where it ends."""
    if tuple(path.vertices[-1]) != tuple(other.vertices[0]):
        raise ValueError("paths do not share an endpoint")
    return flat.FlatPath(path.vertices + other.vertices[1:],
                         path.markers + other.markers[1:], validate=False)


def three_distance_points(s, r) -> list:
    """Heights s + r*l mod 1 for l = 0..q-1, sorted: with r = p/q in lowest
    terms they are (frac(q s) + j)/q for j = 0..q-1, 1/q apart."""
    q = Fraction(r).denominator
    low = frac_part(s * q)
    return [(low + j) * Fraction(1, q) for j in range(q)]


def revert_flip(word: BlockWord) -> BlockWord:
    """Undo the final-block flip of ``words.inadmissible_word``: swap its last
    block between n and n+1."""
    return BlockWord(word.base, (*word.blocks[:-1], 2 * word.base + 1 - word.blocks[-1]),
                     word.orientation)


def cusp_representative(theta: ContinuedFraction, num_stages: int) -> flat.FlatPath:
    """Piecewise path through the cusps: slope-p_k/q_k segments joining
    successive lattice points, each junction marked as a cusp loop."""
    points = [flat.FlatPoint(Fraction(0), Fraction(0))]
    for j in range(1, num_stages + 1):
        cv = theta.convergent(j)
        points.append(flat.FlatPoint(points[-1].x + cv.q, points[-1].y + cv.p))
    return flat.FlatPath(points, ["cusp"] * len(points))


def rotate(word: BlockWord, j: int) -> BlockWord:
    """The block word read from block j on, cyclically."""
    k = j % len(word.blocks)
    return BlockWord(word.base, word.blocks[k:] + word.blocks[:k], word.orientation)


def rational_block_rotations(r) -> list[BlockWord]:
    base = simple_word(Fraction(r), 1)
    return [rotate(base, j) for j in range(len(base.blocks))]


def is_finite(theta: ContinuedFraction) -> bool:
    """Whether theta's coefficient stream ends (a rational slope)."""
    return theta.length is not None


def prescribed_growth_path(theta: ContinuedFraction, f, n_segments: int, t_cap=None):
    """``flat.prescribed_growth_path`` in two passes: every joint is found
    first, and the path and rows are laid after."""
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
        while T_n.denominator == 1:
            T_n += Fraction(1, 2 ** 31)
        if T_n > t_cap:
            break
        joints.append(T_n)
        T_prev = T_n

    base = flat.FlatPoint(Fraction(0), Fraction(1, 7))
    vertices = [base]
    markers = ["start"]
    x = base.x
    y: Exact = base.y
    for T_n in joints:
        dx = T_n - x
        x = T_n
        y = y + theta_val * dx
        vertices.append(flat.FlatPoint(x, y))
        markers.append("leaf")
        y = y + 1
        vertices.append(flat.FlatPoint(x, y))
        markers.append("hop")
    if not joints:
        end_x = min(Fraction(t_cap), Fraction(100))
        vertices.append(flat.FlatPoint(end_x, base.y + theta_val * end_x))
        markers.append("leaf")
    path = flat.FlatPath(vertices, markers, validate=False)
    rows = [flat.GrowthRow(T_n, Fraction(n), f(float(T_n)))
            for n, T_n in enumerate(joints, start=1)]
    return path, rows


def exact_orbit(kernel, state, back: bool = False):
    """The exchange kernel's orbit decided by exact sign tests alone: every
    step bisects all of the table's bounds (``_slot``), with no key and no
    successor table.  The reference of ``_IETKernel.orbit``: it moves
    ``state`` in place and yields the same indices, and raises SingularHit
    at the same step."""
    bounds, moves = (kernel.backward if back else kernel.forward)[:2]
    while True:
        i, du, dv = moves[iet._slot(bounds, *state, kernel.d)][:3]
        state[0] += du
        state[1] += dv
        yield i


def interval_length(iv: iet.ExchangeInterval):
    return iv.hi - iv.lo


def _period_letters(cv) -> str:
    """Letters of the blocks floor((t+1) p/q) - floor(t p/q), t < q, of the
    convergent p/q, by exact integer floors; InvalidSlope unless p/q > 1."""
    p, q = cv.p, cv.q
    if p <= q:
        raise InvalidSlope(f"slope must be > 1, got {Fraction(p, q)}")
    c = p // q
    floors = [t * p // q for t in range(q + 1)]
    offsets = bytes(y - x - c for x, y in zip(floors, floors[1:]))
    return (offsets.replace(b"\x01", b"b" * (c + 1) + b"a")
            .replace(b"\x00", b"b" * c + b"a").decode())


def is_admissible_letters(word, theta: ContinuedFraction,
                          k_max: int = 24) -> oracle.AdmissibilityCertificate:
    """``oracle.is_admissible`` with every word decided in letter space: the
    marker-anchored letters searched in a letter haystack of the periodic
    convergent word at levels l0 and l0 + 1."""
    search, letters, aligned = oracle._search_form(word)
    if letters == "":
        return oracle.AdmissibilityCertificate("admissible", word, (), 0, aligned,
                                               Fraction(1, 7), 0)
    span = search.count("a") + 2
    l0 = oracle._window_level(theta, span, k_max)

    def occurs(l):
        period = _period_letters(theta.convergent(l))
        return search in period * (len(search) // len(period) + 2)

    levels = [l0]
    if not occurs(l0):
        if l0 + 1 <= k_max and l0 + 1 != theta.length:
            if occurs(l0 + 1):
                raise CertificateViolation("level disagreement; window threshold violated")
            levels.append(l0 + 1)
        return oracle.AdmissibilityCertificate("inadmissible", word, tuple(levels),
                                               span, aligned)
    s, offset = find_witness_letters(search, letters, aligned, theta)
    return oracle.AdmissibilityCertificate("admissible", word, tuple(levels), span,
                                           aligned, s, offset)


def cylinder_admissible(word: BlockWord, theta_value: Exact) -> bool:
    """Whether the "ba" block word (n_1, ..., n_k) occurs in some leaf word
    of the slope ``theta_value``, by its cylinder interval (Lothaire,
    Algebraic Combinatorics on Words, ch. 2): the leaf word from height s in
    [0, 1) starts with the word exactly when floor(j theta + s) = N_j, N_j =
    n_1 + ... + n_j, for j = 0..k, so those heights form [max_j (N_j - j
    theta), min_j (N_j + 1 - j theta)), and the word occurs where that is not
    empty.  With theta = (E + F sqrt d)/C the ends are the integer pairs
    (C N_j - j E, -j F) over C, kept as a running maximum and minimum by
    ``pair_sign``: O(k) exact sign tests, with no convergent and no
    haystack.  Where two ends tie, as at a rational slope, the half-open
    convention may differ from the oracle's."""
    E, F, _, _, d, C = flat._integer_form(theta_value, 0)
    lo, hi, N = (0, 0), (C, 0), 0
    for j, n in enumerate(word.blocks, 1):
        N += n
        a, b = C * N - j * E, -j * F
        if pair_sign(a - lo[0], b - lo[1], d) > 0:
            lo = a, b
        if pair_sign(a + C - hi[0], b - hi[1], d) < 0:
            hi = a + C, b
    return pair_sign(hi[0] - lo[0], hi[1] - lo[1], d) > 0


def run_length_needle(u: str, c: int):
    """``oracle._needle`` of the letter string u, by its run lengths: the
    runs of b's between its a's are its blocks, less c, and its leading
    and trailing runs add a 1 where they fill a long block."""
    *runs, y = map(len, u.split("a"))
    x, blocks = (runs[0], runs[1:]) if runs else (-1, ())
    if not set(blocks) <= {c, c + 1} or max(x, y) > c + 1:
        return None, False, x
    head = x == c + 1
    return bytes([1] * head + [b - c for b in blocks] + [1] * (y == c + 1)), head, x


def first_occurrence_letters(search: str, letters: str, aligned: bool,
                             theta: ContinuedFraction, starts):
    """``oracle._first_occurrence`` in letter space, one whole letter stream
    per height: (height, offset) of the factor in the first leaf word, read
    to n letters for each (height, n) of ``starts`` in turn, that holds it,
    or None.  An aligned factor at the stream head is at 0 (the stream starts
    on a block boundary); elsewhere ``search`` carries the block marker,
    which the offset skips."""
    for s, n in starts:
        stream = oracle.leaf_letter_stream(theta, s, n)
        if aligned and stream.startswith(letters):
            return s, 0
        pos = stream.find(search)
        if pos >= 0:
            return s, pos + aligned
    return None


def find_witness_letters(search: str, letters: str, aligned: bool, theta: ContinuedFraction):
    """``oracle._find_witness`` by ``first_occurrence_letters``: three
    heights per denominator, each denominator's streams twice as long as
    the last."""
    budget = max(4 * len(search) + 2000, 10000)
    found = first_occurrence_letters(search, letters, aligned, theta,
                                     ((Fraction(j, denom), budget << i)
                                      for i, denom in enumerate((7, 11, 101, 257))
                                      for j in (1, 2, 3)))
    if found is None:
        raise CertificateViolation("admissible word not found in sampled leaf words")
    return found


def refuse_letters(monkeypatch) -> None:
    """Make every letter path raise when read: the window kernel's letter
    images, the one place a letter plan is made, and the oracle's leaf
    letter stream."""
    def refuse(*args, **kwargs):
        raise RuntimeError("letters read")

    monkeypatch.setattr(flat, "_letter_images", refuse)
    monkeypatch.setattr(oracle, "leaf_letter_stream", refuse)


def parts(x: Exact) -> tuple[Fraction, Fraction]:
    """(a, b) with x = a + b sqrt d."""
    if isinstance(x, exactnum.QuadNum):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _element(a: Fraction, b, d: int):
    """a + b sqrt(d) by the type rule: a QuadNum when b (after folding any
    square factor of d) is nonzero, else the Fraction a."""
    if b:
        x = QuadNum(a, b, d)
        if x.b:
            return x
        a = x.a
    return a


class QuadNum:
    """The element a + b*sqrt(d) of Q(sqrt(d)) kept as the Fraction pair
    (a, b): the reference for ``laminath.exactnum.QuadNum``, which keeps the
    integer triple (u, v, D)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=2):
        a, b = Fraction(a), Fraction(b)
        if b:
            if d < 2:
                raise ValueError("d must be >= 2")
            d0, f = squarefree_decompose(d)
            if d0 == 1:
                # sqrt(d) rational: fold into the rational part
                a, b, d = a + b * f, Fraction(0), 2
            else:
                b, d = b * f, d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadNum is immutable")

    def _align(self, other):
        """Both operands as (a, b) pairs over a common square-free d."""
        if isinstance(other, QuadNum):
            if self.b != 0 and other.b != 0 and self.d != other.d:
                raise ValueError(f"mixed fields sqrt{self.d} and sqrt{other.d}")
            d = self.d if self.b != 0 else other.d
            return self.a, self.b, other.a, other.b, d
        if isinstance(other, (int, Fraction)):
            return self.a, self.b, Fraction(other), Fraction(0), self.d
        return None

    def __add__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return _element(ax + ay, bx + by, d)

    __radd__ = __add__

    def __neg__(self):
        return _element(-self.a, -self.b, self.d)

    def __sub__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return _element(ax - ay, bx - by, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return _element(ax * ay + bx * by * d, ax * by + bx * ay, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        norm = ay * ay - by * by * d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        # multiply by the conjugate of the divisor over its norm
        ia, ib = ay / norm, -by / norm
        return _element(ax * ia + bx * ib * d, ax * ib + bx * ia, d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadNum(other, 0, self.d) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        if not self.b:
            return abs(self.a)
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        a, b = self.a, self.b
        return pair_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadNum):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        if isinstance(other, (QuadNum, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def floor(self) -> int:
        a, b = self.a, self.b
        return pair_floor(a.numerator * b.denominator, b.numerator * a.denominator,
                          self.d, a.denominator * b.denominator)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(x) -> str:
    """"7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5" for a reference QuadNum or a rational."""
    if isinstance(x, QuadNum):
        if x.b == 0:
            return _fmt_fraction(x.a)
        b_abs = _fmt_fraction(abs(x.b))
        tail = f"{b_abs}*sqrt{x.d}"
        if x.a == 0:
            return tail if x.b > 0 else f"-{tail}"
        sign = "+" if x.b > 0 else "-"
        return f"{_fmt_fraction(x.a)}{sign}{tail}"
    return _fmt_fraction(Fraction(x))


def run_cli(argv):
    """(exit code, stdout, stderr) of ``laminath.cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
