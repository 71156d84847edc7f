"""Ground truth for which finite words occur in slope-theta leaf words.

The decision procedure reduces to rational convergent words: a word u over
{a, b} spanning at most count_a(u) + 1 blocks occurs in some theta-leaf word
if and only if it is a factor of the periodic word with period the
convergent word p_l/q_l, for any level l with q_l >= count_a(u) + 2.  One
direction is the window structure of leaf words (every q_l-block window is a
rotation of the convergent word), the other is that every convergent word
extends to a leaf word.  Verdicts record the levels used; "depth
insufficient" is an explicit outcome, never a verdict.

Every word is matched on blocks, never on letters.  In a leaf word every 'a'
ends a block b^c0 a or b^(c0+1) a, so a letter string is a cylinder set of
blocks (Lothaire ch. 2): the 0/1 offsets from c0 of its inner blocks, with a
1 at either end where its leading or trailing run of b's fills a long block
(``_needle``).  Verdicts search that needle in the convergent's block period
(``flat._block_periods``: the confirming level is one more step of the same
standard-word recursion).  Each query is parsed once (``_query``), and a
verdict hands its needle on to its witness search.  A "ba" BlockWord builds
no letters: its needle, its span len(blocks) + 3 (the 'a's of its
marker-led letters, plus 2) and its letter count come off the stored
blocks, and a certificate builds its letters from the query on first read.

An independent sampling oracle searches long leaf-word prefixes from many
start heights, on the same needle.  The prefixes come from the window kernel
in ``flat`` (``flat._leaf_offsets``): copies of a convergent's block
period, each placed and corrected by a few exact floors, with the seams of
the copy and the period it copies.  A search plans each slope once per
call, for all its heights; the witness search is the same loop.  A run of a
prefix inside one window, off its corrected blocks, is a factor of the
periodic word, so a needle that word lacks (every inadmissible word's) can
only occur through a seam: a window's last byte or a corrected one.  Such
needles are searched in the spans around the seams alone, a few needle
lengths per window, not in the whole prefix (Lohrey 2012 on pattern
matching in compressed strings).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import Optional

from . import flat
from ._record import record
from .cf import ContinuedFraction
from .errors import CertificateViolation, InvalidSlope
from .exactnum import format_exact
from .words import BlockWord, simple_word


@record(frozen=True)
class FactorSet:
    """All length-m letter factors of the periodic slope-r word."""

    slope: Fraction
    length: int
    factors: frozenset

    def __contains__(self, word: str) -> bool:
        return word in self.factors


def rational_factors(r, m: int) -> FactorSet:
    """Length-m factors of the bi-infinite periodic word with period the
    slope-r convergent word (``simple_word(r, 1)``, so r > 1), from all
    cyclic rotations."""
    r = Fraction(r)
    period = simple_word(r, 1).letters()
    hay = _cyclic(period, m)
    return FactorSet(r, m, frozenset(hay[i:i + m] for i in range(len(period))))


@record(frozen=True)
class AdmissibilityCertificate:
    verdict: str                       # "admissible" | "inadmissible"
    query: object                      # the word asked: a letter string or a BlockWord
    levels: tuple[int, ...]            # convergent indices consulted
    block_span: int                    # block window requirement
    aligned: bool = False              # block-aligned occurrence demanded
    witness_height: Optional[Fraction] = None
    witness_offset: Optional[int] = None

    # the factor's letters, built from the query on first read
    word = cached_property(lambda self: (self.query.letters() if isinstance(self.query, BlockWord)
                                         else self.query))

    @property
    def is_admissible(self) -> bool:
        return self.verdict == "admissible"


def _level_above_one(theta: ContinuedFraction, span: int, k_max: int) -> int:
    """``theta.window_level(span, k_max)`` where theta exceeds 1, else
    InvalidSlope naming theta's value; a depth too small is reported first."""
    l = theta.window_level(span, k_max)
    if not theta.exceeds_one():
        v = theta.value()
        raise InvalidSlope("slope must be > 1, got "
                           + (format_exact(v) if v is not None else "an opaque slope below 1"))
    return l


def _query(word) -> tuple:
    """(form, aligned, letter count, block span) of ``word``, parsed once.

    A BlockWord asks for a block-aligned occurrence.  Its form, the search
    string, is its letters led by its marker letter ('a' for b^n a blocks),
    found anywhere; the letters alone also count at the head of a leaf word,
    which starts a block.  A "ba" word's form is its stored blocks instead,
    which ``_needle`` reads as they are.  A letter string is searched as it
    is.  The span is the search string's 'a's, plus 2.
    """
    aligned = isinstance(word, BlockWord)
    if aligned and word.orientation == "ba":
        return word.blocks, True, word.letter_count, len(word.blocks) + 3
    search = "b" + word.letters() if aligned else word
    if set(search) - {"a", "b"}:
        raise ValueError("words are over the letters a, b")
    return search, aligned, len(search) - aligned, search.count("a") + 2


def _needle(u, c: int) -> tuple[Optional[bytes], bool, int]:
    """(needle, head, x) of the letter string u = b^x a (b^n_1 a) ...
    (b^n_k a) b^y, a cylinder set of the blocks b^c a and b^(c+1) a of leaf
    words.  The needle is n_1 .. n_k as 0/1 offsets from c, led by a 1
    (``head``) where x = c + 1 and closed by a 1 where y = c + 1; it is None,
    as no leaf word holds u, where x or y exceeds c + 1 or some n_i lies off
    {c, c + 1}.  A u with no 'a' is its tail b^y alone, with x = -1.  The
    stored blocks of a "ba" BlockWord, u = a (b^n_1 a) ... (b^n_k a), are
    given as they are, bytes or a tuple, and translated once."""
    if not isinstance(u, str):
        x = y = 0
        if type(u) is bytes and c < 255:
            inner = (None if u.translate(None, bytes((c, c + 1)))
                     else u.translate(bytes.maketrans(bytes((c, c + 1)), b"\x00\x01")))
        else:
            inner = bytes(b - c for b in u) if set(u) <= {c, c + 1} else None
    else:
        x, last = u.find("a"), u.rfind("a")
        y = len(u) - 1 - last
        # the inner blocks b^(c+1) a and b^c a become 0x01 and 0x00, the
        # 'ba' first; any other block leaves an 'a' or a 'b' behind
        inner = u[x + 1:last + 1].replace("b" * c + "ba", "\x01").replace("b" * c + "a", "\x00")
        inner = None if "a" in inner or "b" in inner else inner.encode()
    if inner is None or max(x, y) > c + 1:
        return None, False, x
    head = x == c + 1
    return b"\x01" * head + inner + b"\x01" * (y == c + 1), head, x


def is_admissible(word, theta: ContinuedFraction, k_max: int = 24) -> AdmissibilityCertificate:
    """Decide whether ``word`` occurs in some theta-leaf word.

    ``word`` may be a letter string (plain containment) or a BlockWord
    (block-aligned containment).  Membership of the query's block needle
    (``_needle``) in the periodic block word of the first convergent whose
    cycle is longer than the word's block span, or else of a finite
    expansion's last, settles the verdict; inadmissible verdicts are
    confirmed at the following level, where there is one.
    Theta must exceed 1, the empty word's too.  Admissible verdicts carry a
    start height and offset locating the factor in the leaf word from that
    height, re-checkable against the exact cutting sequence.  A "ba"
    BlockWord is decided on its stored blocks, with no letter built.
    """
    query = form, aligned, size, span = _query(word)
    if not size and theta.exceeds_one():
        return AdmissibilityCertificate("admissible", word, (), 0, aligned, Fraction(1, 7), 0)
    l0 = _level_above_one(theta, span, k_max)
    parse = _needle(form, theta.floor_part())
    periods = flat._block_periods(map(theta.coefficient, count()), l0)
    levels = [l0]
    if not _occurs(parse[0], periods):
        if l0 + 1 <= k_max and l0 + 1 != theta.length:
            if _occurs(parse[0], periods):
                raise CertificateViolation("level disagreement; window threshold violated")
            levels.append(l0 + 1)
        return AdmissibilityCertificate("inadmissible", word, tuple(levels), span, aligned)
    s, offset = _find_witness(query, parse, theta)
    return AdmissibilityCertificate("admissible", word, tuple(levels), span, aligned, s, offset)


def _cyclic(period, m: int):
    """The first q + m - 1 symbols of the periodic word of the length-q
    ``period`` (bytes or str): they hold every length-m factor of it."""
    q = len(period)
    return (period * (m // q + 2))[:q + m - 1]


def _occurs(needle: Optional[bytes], periods) -> bool:
    """Whether the periodic word of the next block period of ``periods``
    holds ``needle``; the level is read either way."""
    period = next(periods)
    return needle is not None and needle in _cyclic(period, len(needle))


def _seam_find(offs, needle: bytes, start: int, seams) -> int:
    """``offs.find(needle, start)`` for a needle whose every occurrence holds
    one of the ascending ``seams``: the spans [x - m + 1, x + m) of the
    seams x, m = len(needle), are merged and searched in order, so the first
    hit is the first occurrence."""
    m = len(needle)
    lo = hi = start
    for x in seams:
        if x - m + 1 >= hi:  # past the current span: search it
            if lo < hi and (i := offs.find(needle, lo, hi)) >= 0:
                return i
            lo = x - m + 1
        hi = x + m
    return offs.find(needle, lo, hi) if lo < hi else -1


def _first_occurrence(query, parse, theta: ContinuedFraction,
                      starts) -> Optional[tuple[Fraction, int]]:
    """(height, offset) of the word of ``query`` (``_query``'s), whose
    needle is ``parse`` (``_needle``'s of its form), in the first leaf word,
    read to n letters for each (height, n) of ``starts`` in turn, that holds
    it, or None.  Each slope is planned once per call
    (``flat._leaf_offsets``).

    The needle is found in the leaf word's block offsets.  Where the
    periodic word of a plan's period does not hold the needle (tested once
    per plan), every occurrence holds a seam of the read-out, and only the
    spans around the seams are searched (``_seam_find``); elsewhere, as in
    the witness search for an admissible word, the whole read-out is.

    A hit whose block after the head starts at letter L puts the search
    string at L - x - 1, and the letters of an aligned word one letter on.
    So a hit at block 0 with no head byte counts only for an aligned "ba"
    word (x = 0): its marker is the start of the stream, at letter -1.  An
    "ab" word's letters also count at letter 0 where the needle of "a" +
    letters starts the offsets.  The first hit ends first, so it is the
    first letter occurrence; it counts if the word ends by letter n."""
    form, aligned, size, _ = query
    needle, head, x = parse
    c = theta.floor_part()
    top = _needle("a" + form[1:], c)[0] if aligned and isinstance(form, str) else None
    if needle is None and top is None:
        return None
    first = not head and x >= aligned  # the least block a hit may start at
    plans, absent = {}, {}
    for s, n in starts:
        offs, seams, period = flat._leaf_offsets(theta, s, n, plans)
        if top is not None and offs.startswith(top):
            at = 0
        elif needle is None:
            continue
        else:
            if period not in absent:
                absent[period] = needle not in _cyclic(period, len(needle))
            i = (_seam_find(offs, needle, first, seams) if absent[period]
                 else offs.find(needle, first))
            if i < 0:
                continue
            i += head
            at = i * (c + 1) + offs.count(1, 0, i) - x - 1 + aligned
        if at + size <= n:
            return s, at
    return None


def _find_witness(query, parse, theta: ContinuedFraction):
    """Start height and offset of the word of ``query``, whose needle is
    ``parse``, in an actual leaf word; the offset always points at the
    factor itself.  Each denominator's heights read twice the letters of
    the one before."""
    budget = max(4 * (query[2] + query[1]) + 2000, 10000)
    found = _first_occurrence(query, parse, theta,
                              ((Fraction(j, denom), budget << i)
                               for i, denom in enumerate((7, 11, 101, 257)) for j in (1, 2, 3)))
    if found is None:
        raise CertificateViolation("admissible word not found in sampled leaf words")
    return found


def factor_count(theta: ContinuedFraction, m: int, k_max: int = 24) -> int:
    """Number of distinct admissible length-m letter factors: min(m + 1, p_l
    + q_l), p_l + q_l letters the least period of the periodic word of p_l/q_l
    at the window level of m + 2 blocks, which holds them (Lothaire ch. 2)."""
    if m == 0:
        return 1
    cv = theta.convergent(_level_above_one(theta, m + 2, k_max))
    return min(m + 1, cv.p + cv.q)


# -- exact leaf-word streams -----------------------------------------------------

def leaf_letter_stream(theta: ContinuedFraction, s: Fraction, num_letters: int) -> str:
    """First ``num_letters`` letters of the cutting sequence from (0, s),
    read off the block kernel; lattice hits are not reported."""
    return flat.sturmian_letters(theta, s, num_letters)[0]


def leaf_block_stream(theta: ContinuedFraction, s: Fraction, num_blocks: int):
    """Block sizes floor((j+1)theta + s) - floor(j theta + s), j = 0..n-1."""
    return flat.sturmian_blocks(theta, s, num_blocks)[0]


@record(frozen=True)
class SamplingReport:
    word: str
    heights: tuple[Fraction, ...]
    letters_per_height: int
    found_at: Optional[tuple[Fraction, int]]  # (height, offset) if the word occurred

    @property
    def absent(self) -> bool:
        return self.found_at is None


def sampling_form(word, num_letters: int, heights: int) -> tuple:
    """``_query(word)`` for a sampling search that can find the word:
    ValueError if there are no heights or fewer letters per height than the
    word has."""
    query = _query(word)
    if heights < 1:
        raise ValueError("sampling needs at least 1 height")
    if num_letters < query[2]:
        raise ValueError(f"sampling needs at least {query[2]} letters per height "
                         f"(the word's length), got {num_letters}")
    return query


def sampling_cross_check(word, theta: ContinuedFraction,
                         num_letters: int = 100_000, heights: int = 100,
                         seed: Optional[int] = None) -> SamplingReport:
    """Search the factor in leaf-word prefixes from many exact start heights.

    Every word is searched on the block offsets of the leaf words
    (``_first_occurrence``), BlockWord inputs block-aligned.  One slope plan
    serves every height of the call.  Returns the first occurrence if any;
    an absent report is the sampling oracle's rejection of the word.  A
    search that could not find the word (no heights, or fewer letters per
    height than the word has), or a seeded one asking for more distinct
    heights than it draws from, raises ValueError.
    """
    query = sampling_form(word, num_letters, heights)
    if seed is None:
        hs = [Fraction(j, heights + 1) for j in range(1, heights + 1)]
    else:
        denom = 2 ** 20 + 7
        if heights >= denom:
            raise ValueError(f"seeded sampling draws at most {denom - 1} distinct heights "
                             f"c/{denom}, got {heights}")
        rng = random.Random(seed)
        hs = []
        seen = set()
        while len(hs) < heights:
            c = rng.randrange(1, denom)
            if c not in seen:
                seen.add(c)
                hs.append(Fraction(c, denom))
    found = _first_occurrence(query, _needle(query[0], theta.floor_part()), theta,
                              ((s, num_letters) for s in hs))
    letters = word.letters() if isinstance(word, BlockWord) else word
    return SamplingReport(letters, tuple(hs), num_letters, found)
