"""Ground truth for which finite words occur in slope-theta leaf words.

The decision procedure reduces to rational convergent words: a word u over
{a, b} spanning at most count_a(u) + 1 blocks occurs in some theta-leaf word
if and only if it is a factor of the periodic word with period the
convergent word p_l/q_l, for any level l with q_l >= count_a(u) + 2.  One
direction is the window structure of leaf words (every q_l-block window is a
rotation of the convergent word), the other is that every convergent word
extends to a leaf word.  Verdicts record the levels used; "depth
insufficient" is an explicit outcome, never a verdict.  Block words are
decided on block bytes, as the convergent's block sequence is a standard word.

An independent sampling oracle searches long leaf-word prefixes from many
start heights.  The prefixes come from the window kernel in ``flat``: copies
of a convergent's period word, each placed and corrected by a few exact
floors, at tens of millions of letters per second.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional

from . import flat
from ._record import record
from .cf import ContinuedFraction
from .errors import CertificateViolation, DepthInsufficient
from .words import BlockWord, _slope_data


@record(frozen=True)
class FactorSet:
    """All length-m letter factors of the periodic slope-r word."""

    slope: Fraction
    length: int
    factors: frozenset

    def __contains__(self, word: str) -> bool:
        return word in self.factors


def _periodic_haystack(r, m: int) -> tuple[str, int]:
    """(haystack, period length): enough copies of the slope-r convergent word
    that every length-m factor of its bi-infinite periodic word occurs in the
    haystack at an offset below the period length.

    The period is the letters of ``simple_word(r, 1)``, read straight off the
    window kernel as blocks 0..q-1 of (p j + q - 1)/q; the slope check comes
    first, as the kernel takes any slope."""
    p, q = _slope_data(Fraction(r))[:2]
    period = flat._window_letters(p, 0, q - 1, 0, 2, q, q)
    return period * (m // len(period) + 2), len(period)


def _block_periods(theta: ContinuedFraction, l: int) -> Iterator[bytes]:
    """Block values of one period of the level-l, l + 1, ... convergent
    words, a byte each (c0 < 255): one standard-word recursion, one more
    step per level, reading each coefficient once."""
    c = theta.floor_part()
    return (flat._block_values(period, c)
            for period in flat._block_periods(map(theta.coefficient, count()), l))


def _occurs(search: str, blocks: Optional[bytes], periods, theta: ContinuedFraction,
            l: int) -> bool:
    """Whether the level-l periodic word holds ``search``, read on the block
    bytes ``blocks`` of a "ba" BlockWord if given, against the next period of
    ``periods``: a marker-anchored letter occurrence is a block occurrence,
    and L // q + 2 periods hold every length-L factor."""
    cv = theta.convergent(l)
    if blocks is None:
        return search in _periodic_haystack(Fraction(cv.p, cv.q), len(search))[0]
    return blocks in next(periods) * (len(blocks) // cv.q + 2)


def rational_factors(r, m: int) -> FactorSet:
    """Length-m factors of the bi-infinite periodic word with period the
    slope-r convergent word, from all cyclic rotations."""
    r = Fraction(r)
    hay, plen = _periodic_haystack(r, m)
    return FactorSet(r, m, frozenset(hay[i:i + m] for i in range(plen)))


@record(frozen=True)
class AdmissibilityCertificate:
    verdict: str                       # "admissible" | "inadmissible"
    word: str                          # the factor's letters
    levels: tuple[int, ...]            # convergent indices consulted
    block_span: int                    # block window requirement
    aligned: bool = False              # block-aligned occurrence demanded
    witness_height: Optional[Fraction] = None
    witness_offset: Optional[int] = None

    @property
    def is_admissible(self) -> bool:
        return self.verdict == "admissible"


def _window_level(theta: ContinuedFraction, span: int, k_max: int) -> int:
    for l in range(k_max + 1):
        theta._grow(l)  # q_l off the cached convergent table
        if theta._q[l + 2] >= span:
            return l
    raise DepthInsufficient(
        f"window of {span} blocks needs q_l >= {span}, unavailable at depth {k_max}")


def _search_form(word) -> tuple[str, str, bool]:
    """(search string, display letters, aligned).

    A BlockWord asks for a block-aligned occurrence.  In a leaf word every
    block ends with the marker letter, so an occurrence is aligned exactly
    when the marker precedes it; anchoring the search string with the marker
    encodes alignment as plain containment.
    """
    if isinstance(word, BlockWord):
        letters = word.letters()
        anchor = letters[-1]  # block-terminating marker ('a' for b^n a blocks)
        return anchor + letters, letters, True
    if set(word) - {"a", "b"}:
        raise ValueError("words are over the letters a, b")
    return word, word, False


def is_admissible(word, theta: ContinuedFraction, k_max: int = 24) -> AdmissibilityCertificate:
    """Decide whether ``word`` occurs in some theta-leaf word.

    ``word`` may be a letter string (plain containment) or a BlockWord
    (block-aligned containment).  Membership of the search string among the
    convergent-word factors at the first level whose cycle is longer than the
    word's block span settles the verdict; inadmissible verdicts are
    confirmed at the following level as well.  A "ba" BlockWord is decided on
    the block bytes it stores (base < 255) when theta's c0 >= 1 is below 255,
    against each level's period from one standard-word recursion.  Admissible
    verdicts carry a start height and offset locating the factor in the leaf
    word from that height, re-checkable against the exact cutting sequence.
    """
    search, letters, aligned = _search_form(word)
    if letters == "":
        return AdmissibilityCertificate("admissible", letters, (), 0, aligned,
                                        Fraction(1, 7), 0)
    span = search.count("a") + 2
    l0 = _window_level(theta, span, k_max)
    c = theta.floor_part()
    blocks = (word.blocks if isinstance(word, BlockWord) and word.orientation == "ba"
              and 0 < c < 255 and type(word.blocks) is bytes else None)
    periods = None if blocks is None else _block_periods(theta, l0)
    levels = [l0]
    if not _occurs(search, blocks, periods, theta, l0):
        if l0 + 1 <= k_max:
            if _occurs(search, blocks, periods, theta, l0 + 1):
                raise CertificateViolation(
                    "level disagreement; window threshold violated")
            levels.append(l0 + 1)
        return AdmissibilityCertificate("inadmissible", letters, tuple(levels),
                                        span, aligned)
    s, offset = _find_witness(search, letters, aligned, theta)
    return AdmissibilityCertificate("admissible", letters, tuple(levels), span,
                                    aligned, s, offset)


def _first_occurrence(search: str, letters: str, aligned: bool, theta: ContinuedFraction,
                      starts) -> Optional[tuple[Fraction, int]]:
    """(height, offset) of the factor in the first leaf word, read to n
    letters for each (height, n) of ``starts`` in turn, that holds it, or
    None.  An aligned factor at the stream head is at 0 (the stream starts
    on a block boundary); elsewhere ``search`` carries the block marker,
    which the offset skips."""
    for s, n in starts:
        stream = leaf_letter_stream(theta, s, n)
        if aligned and stream.startswith(letters):
            return s, 0
        pos = stream.find(search)
        if pos >= 0:
            return s, pos + aligned
    return None


def _find_witness(search: str, letters: str, aligned: bool,
                  theta: ContinuedFraction):
    """Start height and offset of the factor in an actual leaf word; the
    offset always points at the factor itself.  Each denominator's heights
    read twice the letters of the one before."""
    budget = max(4 * len(search) + 2000, 10000)
    found = _first_occurrence(search, letters, aligned, theta,
                              ((Fraction(j, denom), budget << i)
                               for i, denom in enumerate((7, 11, 101, 257)) for j in (1, 2, 3)))
    if found is None:
        raise CertificateViolation("admissible word not found in sampled leaf words")
    return found


def factor_count(theta: ContinuedFraction, m: int, k_max: int = 24) -> int:
    """Number of distinct admissible length-m letter factors."""
    if m == 0:
        return 1
    cv = theta.convergent(_window_level(theta, m + 2, k_max))
    return len(rational_factors(Fraction(cv.p, cv.q), m).factors)


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


def sampling_form(word, num_letters: int, heights: int) -> tuple[str, str, bool]:
    """``_search_form(word)`` for a sampling search that can find the word:
    ValueError if there are no heights or fewer letters per height than the
    word has."""
    form = _search_form(word)
    if heights < 1:
        raise ValueError("sampling needs at least 1 height")
    if num_letters < len(form[1]):
        raise ValueError(f"sampling needs at least {len(form[1])} letters per height "
                         f"(the word's length), got {num_letters}")
    return form


def sampling_cross_check(word, theta: ContinuedFraction,
                         num_letters: int = 100_000, heights: int = 100,
                         seed: Optional[int] = None) -> SamplingReport:
    """Search the factor in leaf-word prefixes from many exact start heights.

    BlockWord inputs are searched block-aligned (anchored by the block
    marker, or at the stream head).  Returns the first occurrence if any; an
    absent report is the sampling oracle's rejection of the word.  A search
    that could not find the word (no heights, or fewer letters per height
    than the word has), or a seeded one asking for more distinct heights than
    it draws from, raises ValueError.
    """
    search, letters, aligned = sampling_form(word, num_letters, heights)
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
    found = _first_occurrence(search, letters, aligned, theta, ((s, num_letters) for s in hs))
    return SamplingReport(letters, tuple(hs), num_letters, found)
