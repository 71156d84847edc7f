"""Word algorithms on the once-punctured square torus.

Letters are 'a', 'b' with inverses 'A', 'B'.  A word of slope r = p/q > 1
starting on the left edge of the unit square decomposes into blocks
b^{n_i} a with n_i in {n, n+1}; we write such words as block tuples
(n_1, ..., n_k) with an orientation marker "ba" (blocks b^n a) or "ab".

The three constructions here are the simple-closed-curve word of a rational
slope, the inadmissible single-cycle word obtained by flipping its last
block, and the short inadmissible segment with an exact transverse-measure
certificate.  Concatenating segments over a parity-aligned index sequence
gives finite-measure words that are not asymptotic to any leaf; a cusp-loop
variant interleaves convergent words with loops around the puncture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .cf import ContinuedFraction, Convergent, q_error
from .errors import CertificateViolation, InvalidSlope, NotBlockShaped, ParityMismatch
from .exactnum import Exact
from . import flat

LetterWord = str  # finite words are plain strings over "abAB"

INVERSE = {"a": "A", "b": "B", "A": "a", "B": "b"}


def is_reduced(word: LetterWord) -> bool:
    return all(INVERSE[x] != y for x, y in zip(word, word[1:]))


@dataclass(frozen=True)
class BlockWord:
    """Blocks over {n, n+1}; orientation "ba" means each block is b^{n_i} a."""

    base: int
    blocks: tuple[int, ...]
    orientation: str = "ba"

    def __post_init__(self):
        if self.orientation not in ("ba", "ab"):
            raise ValueError("orientation must be 'ba' or 'ab'")
        if not self.blocks:
            raise ValueError("blocks must be nonempty")
        if not set(self.blocks) <= {self.base, self.base + 1}:
            raise ValueError(f"blocks must lie in {{{self.base},{self.base + 1}}}")

    def letters(self) -> LetterWord:
        run, mark = ("b", "a") if self.orientation == "ba" else ("a", "b")
        n = self.base
        return "".join(map({n: run * n + mark, n + 1: run * n + run + mark}.__getitem__,
                           self.blocks))

    @property
    def letter_count(self) -> int:
        return sum(self.blocks) + len(self.blocks)

    def rotate(self, j: int) -> "BlockWord":
        k = j % len(self.blocks)
        return BlockWord(self.base, self.blocks[k:] + self.blocks[:k],
                         self.orientation)

    def serialize(self) -> str:
        return "(" + ",".join(map(str, self.blocks)) + ")@" + self.orientation

    @classmethod
    def parse(cls, text: str) -> "BlockWord":
        body, _, orient = text.strip().partition("@")
        body = body.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise NotBlockShaped(f"cannot parse block word {text!r}")
        blocks = tuple(int(t) for t in body[1:-1].split(","))
        return cls(min(blocks), blocks, orient or "ba")

    def __str__(self):
        return self.serialize()


def letters_to_blocks(word: LetterWord) -> BlockWord:
    """Inverse of :meth:`BlockWord.letters` on block-shaped positive words."""
    if not word:
        raise NotBlockShaped("empty word")
    if set(word) <= {"b", "a"} and word[0] == "b" and word[-1] == "a":
        run, mark = "b", "a"
        orientation = "ba"
    elif set(word) <= {"a", "b"} and word[0] == "a" and word[-1] == "b":
        run, mark = "a", "b"
        orientation = "ab"
    else:
        raise NotBlockShaped(f"{word!r} is not of block shape")
    blocks = []
    count = 0
    for ch in word:
        if ch == run:
            count += 1
        else:
            if count == 0:
                raise NotBlockShaped(f"{word!r} has an empty block")
            blocks.append(count)
            count = 0
    n = min(blocks)
    if max(blocks) > n + 1:
        raise NotBlockShaped(f"{word!r} mixes block sizes {n} and {max(blocks)}")
    return BlockWord(n, tuple(blocks), orientation)


# -- the simple-closed-curve word algorithm ------------------------------------

def _slope_data(r: Fraction) -> tuple[int, int, int, int, int]:
    """(p, q, n, s, t) for slope r = p/q > 1; s n-blocks and t (n+1)-blocks.
    Integer slopes take n = r - 1 so that t = 1."""
    r = Fraction(r)
    if r <= 1:
        raise InvalidSlope(f"slope must be > 1, got {r}")
    p, q = r.numerator, r.denominator
    n = p // q
    if q == 1:
        n = p - 1
    s = (n + 1) * q - p
    t = p - n * q
    return p, q, n, s, t


def simple_word(r, l1: int = 1) -> BlockWord:
    """Block word of the simple closed curve of slope r = p/q > 1.

    The q blocks are floor(((j+1) p + q - l1) / q) - floor((j p + q - l1) / q),
    the cutting sequence of slope r from height 1 - l1/q; t of them carry
    n+1 and s carry n, and l1 picks the start, so different l1 give cyclic
    rotations of one word.
    """
    p, q, n, s, t = _slope_data(Fraction(r))
    if not 1 <= l1 <= s + t:
        raise InvalidSlope(f"start index must be in 1..{s + t}")
    blocks = flat.floor_blocks(p, 0, q - l1, 0, 2, q, q)
    if len(blocks) != q or sum(blocks) != p:
        raise CertificateViolation("simple word breaks the block counts")
    return BlockWord(n, tuple(blocks))


def partial_simple_word(r, l1: int, stop: int) -> tuple[int, ...]:
    """Prefix of ``simple_word(r, l1)`` ending just before start index
    ``stop``.

    Block i of the word belongs to start index l1 - i t (mod q), so the
    prefix has the m blocks with m = (l1 - stop) / t (mod q), 1 <= m <= q:
    the block at the starting index is always emitted and the block at the
    stopping index never is."""
    p, q, n, s, t = _slope_data(Fraction(r))
    if not 1 <= stop <= q:
        raise InvalidSlope(f"stop index must be in 1..{q}")
    m = (l1 - stop) * pow(t, -1, q) % q or q
    return simple_word(r, l1).blocks[:m]


# -- inadmissible words ----------------------------------------------------------

def _flip(block: int, n: int) -> int:
    return n + 1 if block == n else n


def inadmissible_word(theta: ContinuedFraction, k: int) -> BlockWord:
    """Single-cycle theta-inadmissible word on q_k blocks.

    Reads the simple word of the k-th convergent from the extreme start
    height (lowest for even k, highest for odd k) and flips the final
    block between n and n+1.  Reverting the flip recovers a p_k/q_k word.
    """
    if k < 2:
        raise IndexError("k must be >= 2")
    cv = theta.convergent(k)
    r = Fraction(cv.p, cv.q)
    l1 = cv.q if k % 2 == 0 else 1
    w = simple_word(r, l1)
    blocks = w.blocks[:-1] + (_flip(w.blocks[-1], w.base),)
    out = BlockWord(w.base, blocks)
    edge = w.base if k % 2 == 0 else w.base + 1
    if not out.blocks[0] == edge == out.blocks[-1]:
        raise CertificateViolation("flipped word does not start and end on the edge block")
    return out


def revert_flip(word: BlockWord) -> BlockWord:
    """Undo the final-block flip of :func:`inadmissible_word`."""
    return BlockWord(word.base,
                     word.blocks[:-1] + (_flip(word.blocks[-1], word.base),),
                     word.orientation)


@dataclass(frozen=True)
class SegmentCertificate:
    """Short inadmissible word together with an exact measured representative.

    ``measure`` is the exact transverse measure of ``path`` against theta and
    ``bound`` is the structural estimate 3|q_k theta - p_k| + 2/q_k.
    """

    k: int
    convergent: Convergent
    word: BlockWord
    path: "flat.FlatPath"
    measure: Exact
    bound: Exact

    def __post_init__(self):
        if not self.measure <= self.bound:
            raise CertificateViolation("certificate bound violated")

    @property
    def start_height(self) -> Fraction:
        return Fraction(self.path.vertices[0].y)

    @property
    def end_height_mod1(self) -> Fraction:
        y = Fraction(self.path.vertices[-1].y)
        return y - (y.numerator // y.denominator)


def _segment_blocks(theta: ContinuedFraction, k: int) -> tuple[BlockWord, Convergent]:
    head = inadmissible_word(theta, k)
    cv = theta.convergent(k)
    r = Fraction(cv.p, cv.q)
    _, q, n, s, t = _slope_data(r)
    if k % 2 == 0:
        tail = partial_simple_word(r, t + 1, stop=q)
    else:
        tail = partial_simple_word(r, t, stop=1)
    tail = tail[1:]  # drop the first block of the partial run
    return BlockWord(n, head.blocks + tail), cv


def inadmissible_segment(theta: ContinuedFraction, k: int) -> SegmentCertificate:
    """Inadmissible word of letter count <= 2(p_k + q_k) with an exact
    representative: two leaf-direction pieces of slope p_k/q_k joined by one
    vertical hop of height 1/q_k, closing up on the torus.  The measure needs
    theta's exact value, so opaque coefficient sources raise InvalidSlope."""
    theta_val = theta.value()
    if theta_val is None:
        raise InvalidSlope("a measured segment needs an exact slope value")
    word, cv = _segment_blocks(theta, k)
    p, q = cv.p, cv.q
    r = Fraction(p, q)
    B = len(word.blocks)
    if not word.letter_count <= 2 * (p + q):
        raise CertificateViolation("segment word exceeds 2(p_k + q_k) letters")

    even = k % 2 == 0
    h0 = Fraction(1, 2 * q) if even else 1 - Fraction(1, 2 * q)
    hop = -Fraction(1, q) if even else Fraction(1, q)
    v0 = flat.FlatPoint(Fraction(0), h0)
    v1 = flat.FlatPoint(Fraction(q - 1), h0 + (q - 1) * r)
    v2 = flat.FlatPoint(v1.x, v1.y + hop)
    dx = B - (q - 1)
    v3 = flat.FlatPoint(v2.x + dx, v2.y + dx * r)
    path = flat.FlatPath([v0, v1, v2, v3], ["start", "leaf", "hop", "leaf"])
    # closes up on the torus: total rise is an integer over B cells
    if (v3.y - h0).denominator != 1:
        raise CertificateViolation("segment representative does not close up")

    measure = flat.transverse_measure(path, theta_val)
    bound = 3 * abs(q_error(theta_val, cv)) + Fraction(2, q)
    return SegmentCertificate(k, cv, word, path, measure, bound)


# -- exotic concatenations ---------------------------------------------------------

@dataclass(frozen=True)
class ExoticStage:
    """One emitted segment of an exotic word with the running exact ledger."""

    position: int
    index: int
    certificate: SegmentCertificate
    connector: Exact            # vertical hop from the previous segment's end
    partial_measure: Exact      # segments + connectors so far, exact
    partial_bound: Exact        # sum of certificate bounds + connector bounds


@dataclass
class ExoticWord:
    """Lazily emitted concatenation w_{i_1} w_{i_2} ... with measure ledger."""

    theta: ContinuedFraction
    stages: list[ExoticStage] = field(default_factory=list)
    kept_indices: list[int] = field(default_factory=list)
    skipped_indices: list[int] = field(default_factory=list)

    def letters(self) -> LetterWord:
        return "".join(st.certificate.word.letters() for st in self.stages)

    def blocks(self) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for st in self.stages:
            out += st.certificate.word.blocks
        return out

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
                thin: bool = False, max_stages: Optional[int] = None) -> ExoticWord:
    """Concatenate inadmissible segments over a same-parity index sequence.

    Consecutive representatives are joined by vertical connectors of length
    |1/(2 q_i) - 1/(2 q_j)| < 1/q_i, so the exact ledger is dominated by a
    constant times sum of 1/q_i.  With ``thin=True`` the sequence is pruned so
    each kept segment's measure exceeds three times the total of all later
    segment measures (the domination that makes tail measure signatures
    distinguish distinct index tails); skipped indices are reported.
    """
    out = ExoticWord(theta)
    prev: Optional[SegmentCertificate] = None
    prev_index: Optional[int] = None
    partial_measure: Exact = Fraction(0)
    partial_bound: Exact = Fraction(0)
    min_next_q = None

    for i in _validate_indices(indices):
        if max_stages is not None and len(out.stages) >= max_stages:
            break
        if thin and min_next_q is not None:
            if not theta.convergent(i).q > min_next_q:
                out.skipped_indices.append(i)
                continue
        cert = inadmissible_segment(theta, i)
        if prev is None:
            connector: Exact = Fraction(0)
            connector_bound: Exact = Fraction(0)
        else:
            connector = abs(cert.start_height - prev.end_height_mod1)
            connector_bound = Fraction(1, theta.convergent(prev_index).q)
        partial_measure = partial_measure + connector + cert.measure
        partial_bound = partial_bound + connector_bound + cert.bound
        out.stages.append(ExoticStage(len(out.stages), i, cert, connector,
                                      partial_measure, partial_bound))
        out.kept_indices.append(i)
        prev, prev_index = cert, i
        if thin:
            # later segment measures total < 8/q_next (each is < 3/q and q at
            # least doubles along a same-parity sequence); demanding
            # measure/3 > 8/q_next enforces the domination inequality
            min_next_q = 24 / cert.measure
    return out


def tail_measure_signature(word: ExoticWord, from_position: int = 0) -> Exact:
    """Exact total of the segment measures from ``from_position`` on.

    Under the thinned domination inequality (each segment measure exceeds
    three times the sum of all later ones), these sums distinguish any two
    distinct tails of kept indices, so equal signatures mean equal tails.
    """
    total: Exact = Fraction(0)
    for st in word.stages[from_position:]:
        total = total + st.certificate.measure
    return total


def exotic_representative(word: ExoticWord) -> "flat.FlatPath":
    """One piecewise path through all emitted stages: each segment's
    representative translated to follow the previous one, joined by vertical
    connector hops inside a single lattice cell.  Its exact transverse
    measure equals the ledger total."""
    from .exactnum import exact_floor
    if not word.stages:
        raise ValueError("no stages emitted")
    verts: list = []
    marks: list = []
    for st in word.stages:
        path = st.certificate.path
        if not verts:
            verts.extend(path.vertices)
            marks.extend(path.markers)
            continue
        last = verts[-1]
        shift_x = last.x - path.vertices[0].x   # segment paths start at x = 0
        shift_y = exact_floor(last.y)           # keep the same lattice cell
        start = flat.FlatPoint(path.vertices[0].x + shift_x,
                               path.vertices[0].y + shift_y)
        if tuple(start) != tuple(last):
            verts.append(start)
            marks.append("hop")
        for v, mk in zip(path.vertices[1:], path.markers[1:]):
            verts.append(flat.FlatPoint(v.x + shift_x, v.y + shift_y))
            marks.append(mk)
    return flat.FlatPath(verts, marks)


def min_full_segment_window(word: ExoticWord) -> int:
    """Smallest window length (in blocks) such that every window of that many
    consecutive blocks of the emitted prefix contains one segment entirely.

    A window of length L starting at block x contains segment j exactly when
    S_{j-1} >= x and S_j <= x + L, so full coverage is equivalent to
    L >= max(first segment, last segment, every sum of consecutive segments).
    Each segment begins with a certified inadmissible cycle, so any window of
    at least this length contains an inadmissible factor.
    """
    lengths = [len(st.certificate.word.blocks) for st in word.stages]
    if not lengths:
        return 0
    need = max(lengths[0], lengths[-1])
    for l1, l2 in zip(lengths, lengths[1:]):
        need = max(need, l1 + l2)
    return need


# -- cusp-loop construction ---------------------------------------------------------

CUSP_LOOP = "BAba"


@dataclass(frozen=True)
class CuspStage:
    position: int
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
    is the partial sums of |q_k theta - p_k|.
    """
    loop_counts = tuple(loop_counts)
    # every count is checked before any convergent is read, so a bad count is
    # reported as such even when theta's expansion is too short for it
    if any(count < 1 for count in loop_counts):
        raise InvalidSlope("loop counts must be positive")
    if theta.compare(1) <= 0:
        raise InvalidSlope("theta must exceed 1")
    theta_val = theta.value()
    stages = []
    partial: Exact = Fraction(0)
    for j, count in enumerate(loop_counts, start=1):
        cv = theta.convergent(j)
        w = simple_word(Fraction(cv.p, cv.q), cv.q)
        if theta_val is not None:
            partial = partial + abs(q_error(theta_val, cv))
        letters = w.letters() + CUSP_LOOP * count
        stages.append(CuspStage(j - 1, j, w, count, letters, partial))
    return stages


def cusp_word_letters(stages: list[CuspStage]) -> LetterWord:
    return "".join(st.letters for st in stages)


def cusp_representative(theta: ContinuedFraction, num_stages: int) -> "flat.FlatPath":
    """Piecewise path through the cusps: slope-p_k/q_k segments joining
    successive lattice points, each junction marked as a cusp loop."""
    x = Fraction(0)
    y = Fraction(0)
    points = [flat.FlatPoint(x, y)]
    markers = ["cusp"]
    for j in range(1, num_stages + 1):
        cv = theta.convergent(j)
        x += cv.q
        y += cv.p
        points.append(flat.FlatPoint(x, y))
        markers.append("cusp")
    return flat.FlatPath(points, markers)
