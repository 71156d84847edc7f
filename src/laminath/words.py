"""Word algorithms on the once-punctured square torus.

Letters are 'a', 'b' with inverses 'A', 'B'.  A word of slope r = p/q > 1
starting on the left edge of the unit square decomposes into blocks
b^{n_i} a with n_i in {n, n+1}; we write such words as block sequences
(n_1, ..., n_k), stored as bytes when n < 255, with an orientation marker
"ba" (blocks b^n a) or "ab".

The three constructions here are the simple-closed-curve word of a rational
slope, the inadmissible single-cycle word (a simple word with its last block
flipped), and the short inadmissible segment with an exact transverse-measure
certificate.  Both inadmissible words are read off the segment's own path, a
line of slope p_k/q_k, one short vertical hop and the moved line until it
closes up, as its cutting sequence by the block kernel.  Concatenating
segments over a parity-aligned index sequence gives finite-measure words
that are not asymptotic to any leaf; a cusp-loop variant interleaves
convergent words with loops around the puncture.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, Optional

from ._record import factory, record
from .cf import ContinuedFraction, Convergent, q_error
from .errors import (CertificateViolation, InvalidSlope, NotBlockShaped, ParityMismatch,
                     SingularHit)
from .exactnum import Exact, decode, exact_floor, pair_sign
from .ledger import ExoticStage, exotic_stages
from . import flat

LetterWord = str  # finite words are plain strings over "abAB"


@record(frozen=True)
class BlockWord:
    """Blocks over {n, n+1}; orientation "ba" means each block is b^{n_i} a.

    ``blocks`` is stored as bytes, a block a byte, when base < 255 and so
    every block fits in one, and as a tuple of ints otherwise.  Any sequence
    of ints is taken and stored in that form, so a word equals and hashes
    like every other word with the same base, blocks and orientation."""

    base: int
    blocks: bytes | tuple[int, ...]
    orientation: str = "ba"

    def __post_init__(self):
        if self.orientation not in ("ba", "ab"):
            raise ValueError("orientation must be 'ba' or 'ab'")
        if not self.blocks:
            raise ValueError("blocks must be nonempty")
        n = self.base
        if n < 0:
            raise ValueError(f"blocks must be >= 0, got base {n}")
        try:
            if n < 255:
                blocks = bytes(self.blocks)
                ok = not blocks.translate(None, bytes((n, n + 1)))
            else:
                blocks = tuple(self.blocks)
                ok = set(blocks) <= {n, n + 1}
        except (TypeError, ValueError):  # a block that is not an int in 0..255
            ok = False
        if not ok:
            raise ValueError(f"blocks must lie in {{{n},{n + 1}}}")
        object.__setattr__(self, "blocks", blocks)

    def letters(self) -> LetterWord:
        run, mark = (b"b", b"a") if self.orientation == "ba" else (b"a", b"b")
        n, blocks = self.base, self.blocks
        offs = (blocks.translate(bytes.maketrans(bytes((n, n + 1)), b"\x00\x01"))
                if type(blocks) is bytes else bytes(map(n.__rsub__, blocks)))
        return offs.replace(b"\x00", run * n + mark).replace(b"\x01", run * n + run + mark).decode()

    @property
    def letter_count(self) -> int:
        return (self.base + 1) * len(self.blocks) + self.blocks.count(self.base + 1)

    def serialize(self) -> str:
        return "(" + ",".join(map(str, self.blocks)) + ")@" + self.orientation

    @classmethod
    def parse(cls, text: str) -> "BlockWord":
        body, _, orient = text.strip().partition("@")
        body = body.strip()
        try:
            if not (body.startswith("(") and body.endswith(")")):
                raise ValueError
            blocks = tuple(int(t) for t in body[1:-1].split(","))
        except ValueError:  # not parenthesised, or an entry that is not an integer
            raise NotBlockShaped(f"cannot parse block word {text!r}") from None
        return cls(min(blocks), blocks, orient or "ba")

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self):
        return self.serialize()


def letters_to_blocks(word: LetterWord) -> BlockWord:
    """Inverse of :meth:`BlockWord.letters` on block-shaped positive words."""
    if not word:
        raise NotBlockShaped("empty word")
    if set(word) <= {"b", "a"} and word[0] == "b" and word[-1] == "a":
        mark, orientation = "a", "ba"
    elif set(word) <= {"a", "b"} and word[0] == "a" and word[-1] == "b":
        mark, orientation = "b", "ab"
    else:
        raise NotBlockShaped(f"{word!r} is not of block shape")
    blocks = list(map(len, word[:-1].split(mark)))
    if 0 in blocks:
        raise NotBlockShaped(f"{word!r} has an empty block")
    n = min(blocks)
    if max(blocks) > n + 1:
        raise NotBlockShaped(f"{word!r} mixes block sizes {n} and {max(blocks)}")
    return BlockWord(n, blocks, orientation)


# -- the simple-closed-curve word algorithm ------------------------------------

def _slope_data(r: Fraction) -> tuple[int, int, int]:
    """(p, q, n) for slope r = p/q > 1, whose q blocks are (n + 1) q - p
    n-blocks and p - n q (n+1)-blocks.  Integer slopes take n = r - 1 so
    that one block is n + 1."""
    r = Fraction(r)
    if r <= 1:
        raise InvalidSlope(f"slope must be > 1, got {r}")
    p, q = r.numerator, r.denominator
    return p, q, p // q - (q == 1)


def simple_word(r, l1: int = 1) -> BlockWord:
    """Block word of the simple closed curve of slope r = p/q > 1.

    The q blocks are floor(((j+1) p + q - l1) / q) - floor((j p + q - l1) / q),
    the cutting sequence of slope r from height 1 - l1/q (``_slope_data``
    counts its n- and (n+1)-blocks), and l1 picks the start, so different l1
    give cyclic rotations of one word.
    """
    p, q, n = _slope_data(Fraction(r))
    if not 1 <= l1 <= q:
        raise InvalidSlope(f"start index must be in 1..{q}")
    offs, c = flat._window_blocks(p, 0, q - l1, 0, 2, q, q)
    if len(offs) != q or c * q + offs.count(1) != p:
        raise CertificateViolation("simple word breaks the block counts")
    return BlockWord(n, flat._block_values(offs, c))


# -- inadmissible words ----------------------------------------------------------

def _segment_shape(theta: ContinuedFraction, k: int) -> tuple[Convergent, int, tuple, int]:
    """(cv, B, heights, letters) of the level-k segment path, in integers: its
    B blocks, ``_segment_heights`` and letter count.

    With p/q = p_k/q_k, the checked convergent, the path is the line of
    slope p/q from height S/(2q), S = 1 (2q - 1 for odd k), over 0 < x < q -
    1; there it hops by -1/q (+1/q for odd k), crossing no grid line, and
    follows the moved line until it closes up after B blocks, B p = +1 (-1)
    mod q.  Block j is floor(y(j + 1)) - floor(y(j)), so the word's checks
    read floors of the heights, after ``_check_segment_heights``: blocks 0
    and q - 1 are the edge block (n, or n + 1 for odd k), the first q sum to
    p -+ 1, and the B blocks' B + sum letters are at most 2(p + q)."""
    if k < 2:
        raise IndexError("k must be >= 2")
    cv = theta.convergents(k)[-1]
    p, q, n = _slope_data(Fraction(cv.p, cv.q))
    sign = -1 if k % 2 else 1
    B = q + sign * pow(p, -1, q) % q
    S, N1, N2, N3 = heights = _segment_heights(p, q, k, B)
    _check_segment_heights(q, *heights)
    two_q, last = 2 * q, (N2 + 2 * p) // (2 * q) - N2 // (2 * q)  # block q - 1
    if not (2 * p + S) // two_q - S // two_q == n + k % 2 == last:
        raise CertificateViolation("flipped word does not start and end on the edge block")
    first = N1 // two_q - S // two_q  # blocks 0..q-2
    if first + last != p - sign:
        raise CertificateViolation("flipped word breaks the block counts")
    letters = B + first + N3 // two_q - N2 // two_q
    if not letters <= 2 * (p + q):
        raise CertificateViolation("segment word exceeds 2(p_k + q_k) letters")
    return cv, B, heights, letters


def _segment_word(p: int, q: int, k: int, B: int) -> BlockWord:
    """The first B blocks of the level-k segment path of p/q: the lines
    (2 p j + S)/(2q) and (2 p j + N2)/(2q), off one plan exact at any length."""
    S, _, N2, _ = _segment_heights(p, q, k, B)
    plan = flat._slope_plan(2 * p, 0, 2, 2 * q, q - 1)
    offs, c = flat._window_blocks(2 * p, 0, S, 0, 2, 2 * q, q - 1, plan=plan)
    offs += flat._window_blocks(2 * p, 0, N2, 0, 2, 2 * q, B - q + 1, plan=plan)[0]
    return BlockWord(c, flat._block_values(offs, c))


def _segment_heights(p: int, q: int, k: int, B: int) -> tuple[int, int, int, int]:
    """Numerators over 2q of the level-k segment path's vertex heights: the
    start S at x = 0, the hop's ends N1 = 2 p (q - 1) + S and N1 -+ 2 at
    x = q - 1, and the end at x = B."""
    S = 2 * q - 1 if k % 2 else 1
    N1 = 2 * p * (q - 1) + S
    N2 = N1 + 2 if k % 2 else N1 - 2
    return S, N1, N2, N2 + 2 * p * (B - q + 1)


def _check_segment_heights(q: int, S: int, N1: int, N2: int, N3: int) -> None:
    """Decide in integers that the segment path with these height numerators
    over 2q meets no lattice point and closes up on the torus.

    Both leaves have slope p/q, so at every integer x their heights keep the
    parity of S and of N2 over 2q; odd numerators are never integers, which
    clears each vertex and leaf point at an integer abscissa.  The hop at the
    integer x = q - 1 clears the lattice unless a multiple of 2q lies between
    N1 and N2, and the end lies over the start exactly when 2q | N3 - S."""
    two_q = 2 * q
    if not S & N2 & 1:
        raise CertificateViolation("segment leaf meets the lattice")
    lo, hi = (N1, N2) if N1 < N2 else (N2, N1)
    if (lo - 1) // two_q != hi // two_q:
        raise CertificateViolation("segment hop meets a grid line")
    if (N3 - S) % two_q:
        raise CertificateViolation("segment representative does not close up")


def inadmissible_word(theta: ContinuedFraction, k: int) -> BlockWord:
    """Single-cycle theta-inadmissible word on q_k blocks.

    The first q_k blocks of the level-k segment path, whose shape
    (``_segment_shape``) is checked whole, close-up included: the simple
    word of the k-th convergent from the extreme start height (lowest for
    even k, highest for odd k), whose final block the path's hop flips
    between n and n+1.  Reverting the flip recovers a p_k/q_k word.
    """
    cv = _segment_shape(theta, k)[0]
    return _segment_word(cv.p, cv.q, k, cv.q)


@record(frozen=True)
class SegmentCertificate:
    """Short inadmissible word together with an exact measured representative.

    ``measure`` is the exact transverse measure of ``path`` against theta and
    ``bound`` is the structural estimate 3|q_k theta - p_k| + 2/q_k;
    :func:`inadmissible_segment` decides measure <= bound before it builds one.
    All but ``word`` are closed forms in (p_k, q_k, B); it is built on read.
    """

    k: int
    convergent: Convergent
    B: int
    letter_count: int
    path: "flat.FlatPath"
    measure: Exact
    bound: Exact

    length = property(lambda self: self.B)  # the ledger's unit: blocks
    word = cached_property(lambda self: _segment_word(self.convergent.p, self.convergent.q,
                                                      self.k, self.B))
    start_height = property(lambda self: self.path.vertices[0].y)
    end_height_mod1 = property(lambda self: self.path.vertices[-1].y % 1)


def inadmissible_segment(theta: ContinuedFraction, k: int) -> SegmentCertificate:
    """Inadmissible word of letter count <= 2(p_k + q_k) with an exact
    representative: two leaf-direction pieces of slope p_k/q_k joined by one
    vertical hop of height 1/q_k, closing up on the torus.  The word is the
    cutting sequence of that path (``_segment_word``), so it starts with
    ``inadmissible_word(theta, k)``.  The measure needs theta's exact value,
    so opaque coefficient sources raise InvalidSlope.

    The certificate is decided in integers, and no block is built.  The
    vertex heights are numerators over 2q (``_segment_heights``);
    ``_check_segment_heights`` clears the lattice and the close-up in O(1),
    so the path is built unvalidated (``FlatPath.validate`` stays the
    reference), and ``_segment_shape`` decides the word's checks.  With
    theta = (E + F sqrt d)/C (``ContinuedFraction.integer_pair``), r - theta
    is the pair (pC - qE, -qF) over qC, of sign (-1)^(k+1) (r is checked),
    so the measure B|r - theta| + 1/q and the bound 3|q theta - p| + 2/q are
    pairs over qC, compared by one ``pair_sign`` and decoded once each."""
    theta.exact_value("a measured segment")
    cv, B, heights, letters = _segment_shape(theta, k)
    p, q = cv.p, cv.q

    E, F, d, C = theta.integer_pair()
    u, v = (p * C - q * E, -q * F) if k % 2 else (q * E - p * C, q * F)  # |r - theta|
    if pair_sign((3 * q - B) * u + C, (3 * q - B) * v, d) < 0:
        raise CertificateViolation("certificate bound violated")
    measure = decode((B * u + C, B * v), q * C, d)
    bound = decode((3 * q * u + 2 * C, 3 * q * v), q * C, d)

    x1 = Fraction(q - 1)
    y0, y1, y2, y3 = (Fraction(n, 2 * q) for n in heights)
    path = flat.FlatPath([flat.FlatPoint(Fraction(0), y0), flat.FlatPoint(x1, y1),
                          flat.FlatPoint(x1, y2), flat.FlatPoint(Fraction(B), y3)],
                         ["start", "leaf", "hop", "leaf"], validate=False)
    return SegmentCertificate(k, cv, B, letters, path, measure, bound)


# -- exotic concatenations ---------------------------------------------------------

@record
class ExoticWord:
    """Lazily emitted concatenation w_{i_1} w_{i_2} ... with measure ledger."""

    theta: ContinuedFraction
    stages: list[ExoticStage] = factory(list)
    skipped_indices: list[int] = factory(list)

    @property
    def kept_indices(self) -> list[int]:
        return [st.level for st in self.stages]

    def letters(self) -> LetterWord:
        return "".join(st.certificate.word.letters() for st in self.stages)

    def blocks(self, limit: Optional[int] = None) -> bytes | tuple[int, ...]:
        """The stages' blocks joined, in the form their words store them; with
        ``limit``, the first ``limit``, from the stage words they reach."""
        starts = accumulate((st.certificate.B for st in self.stages), initial=0)
        parts = [st.certificate.word.blocks for st, start in zip(self.stages, starts)
                 if limit is None or start < limit]
        return (b"".join(parts) if parts and type(parts[0]) is bytes
                else tuple(chain(*parts)))[:limit]

    @property
    def total_measure(self) -> Exact:
        return self.stages[-1].partial_measure if self.stages else Fraction(0)


def _validate_indices(indices: Iterable[int]) -> Iterator[int]:
    prev = None
    parity = None
    for i in indices:
        if i < 2:
            raise ParityMismatch("indices must start at 2 or later")
        if parity is None:
            parity = i % 2
        elif i % 2 != parity:
            raise ParityMismatch(f"index {i} breaks the parity of the sequence")
        if prev is not None and i <= prev:
            raise ParityMismatch("indices must be strictly increasing")
        prev = i
        yield i


def exotic_word(theta: ContinuedFraction, indices: Iterable[int], *,
                thin: bool = False) -> ExoticWord:
    """Concatenate inadmissible segments over a same-parity index sequence.

    Consecutive representatives are joined by vertical connectors of length
    |1/(2 q_i) - 1/(2 q_j)| < 1/q_i, so the exact ledger is dominated by a
    constant times sum of 1/q_i.  ``thin=True`` applies the ledger's thin gate
    (see ``ledger.exotic_stages``); skipped indices are reported.
    """

    def join(prev: Optional[ExoticStage], k: int, cert: SegmentCertificate):
        if prev is None:
            return Fraction(0), cert.bound
        return (abs(cert.start_height - prev.certificate.end_height_mod1),
                Fraction(1, theta.convergent(prev.level).q) + cert.bound)

    def tail(k: int) -> Exact:
        # each segment measure is < 3/q and q at least doubles along a
        # same-parity sequence, so the segments from k on total < 8/q_k
        return Fraction(8, theta.convergent(k).q)

    out = ExoticWord(theta)
    stages = exotic_stages(_validate_indices(indices),
                           lambda k: inadmissible_segment(theta, k), join, tail,
                           thin=thin, skipped=out.skipped_indices)
    out.stages.extend(stages)
    return out


def exotic_representative(word: ExoticWord) -> "flat.FlatPath":
    """One piecewise path through all emitted stages: each segment's
    representative translated to follow the previous one, joined by vertical
    connector hops inside a single lattice cell.  Its exact transverse
    measure equals the ledger total.

    Each piece is certified lattice-free by ``inadmissible_segment`` and
    moved by an integer vector, so only the connectors are checked: each runs
    at the previous end's abscissa between two heights in one cell [n, n + 1),
    so it meets the lattice only if an end sits at height n.  The path is
    built unvalidated; ``FlatPath.validate`` stays the reference."""
    if not word.stages:
        raise ValueError("no stages emitted")
    first = word.stages[0].certificate.path
    verts, marks = list(first.vertices), list(first.markers)
    for st in word.stages[1:]:
        path = st.certificate.path
        last = verts[-1]
        shift_x = last.x - path.vertices[0].x   # segment paths start at x = 0
        shift_y = exact_floor(last.y)           # keep the same lattice cell
        start = flat.FlatPoint(path.vertices[0].x + shift_x,
                               path.vertices[0].y + shift_y)
        if tuple(start) != tuple(last):
            if last.y == shift_y or not shift_y < start.y < shift_y + 1:
                raise SingularHit("connector meets the lattice", point=last)
            verts.append(start)
            marks.append("hop")
        for v, mk in zip(path.vertices[1:], path.markers[1:]):
            verts.append(flat.FlatPoint(v.x + shift_x, v.y + shift_y))
            marks.append(mk)
    return flat.FlatPath(verts, marks, validate=False)


# -- cusp-loop construction ---------------------------------------------------------

CUSP_LOOP = "BAba"


@record(frozen=True)
class CuspStage:
    k: int
    word: BlockWord
    loop_count: int
    letters: LetterWord
    partial_measure: Exact


def cusp_exotic_word(theta: ContinuedFraction, loop_counts: Iterable[int]) -> list[CuspStage]:
    """Interleave convergent words w_k = simple_word(p_k/q_k, q_k) with cusp
    loops B A b a repeated loop_counts[k-1] times.

    The representative runs along slope-p_k/q_k segments between integer
    lattice points with zero-measure loops at the cusps, so the exact ledger
    is the partial sums of |q_k theta - p_k|.  The ledger needs theta's
    exact value, so opaque coefficient sources raise InvalidSlope.
    """
    loop_counts = tuple(loop_counts)
    # every count is checked before any convergent is read, so a bad count is
    # reported as such even when theta's expansion is too short for it
    if any(count < 1 for count in loop_counts):
        raise ValueError("loop counts must be positive")
    if not theta.exceeds_one():
        raise InvalidSlope("theta must exceed 1")
    theta_val = theta.exact_value("a cusp ledger")
    stages = []
    partial: Exact = Fraction(0)
    for j, count in enumerate(loop_counts, start=1):
        cv = theta.convergent(j)
        w = simple_word(Fraction(cv.p, cv.q), cv.q)
        partial = partial + abs(q_error(theta_val, cv))
        letters = w.letters() + CUSP_LOOP * count
        stages.append(CuspStage(j, w, count, letters, partial))
    return stages


def cusp_word_letters(stages: list[CuspStage]) -> LetterWord:
    return "".join(st.letters for st in stages)
