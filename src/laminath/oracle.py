"""Ground truth for which finite words occur in slope-theta leaf words.

The decision procedure reduces to rational convergent words: a word u over
{a, b} spanning at most count_a(u) + 1 blocks occurs in some theta-leaf word
if and only if it is a factor of the periodic word with period the
convergent word p_l/q_l, for any level l with q_l >= count_a(u) + 2.  One
direction is the window structure of leaf words (every q_l-block window is a
rotation of the convergent word), the other is that every convergent word
extends to a leaf word.  Verdicts record the levels used; "depth
insufficient" is an explicit outcome, never a verdict.

An independent sampling oracle searches long leaf-word prefixes generated by
exact integer floor arithmetic (sums floor(j*theta + s) with isqrt), which is
fast enough for 10^5-letter prefixes from 100 start heights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import flat
from .cf import ContinuedFraction
from .errors import DepthInsufficient
from .words import BlockWord, simple_word


@dataclass(frozen=True)
class FactorSet:
    """All length-m letter factors of the periodic slope-r word."""

    slope: Fraction
    length: int
    factors: frozenset

    def __contains__(self, word: str) -> bool:
        return word in self.factors


def rational_block_rotations(r) -> list[BlockWord]:
    base = simple_word(Fraction(r), 1)
    return [base.rotate(j) for j in range(len(base.blocks))]


def _periodic_haystack(r, m: int) -> tuple[str, int]:
    """(haystack, period length): enough copies of the slope-r convergent word
    that every length-m factor of its bi-infinite periodic word occurs in the
    haystack at an offset below the period length."""
    period = simple_word(Fraction(r), 1).letters()
    return period * (m // len(period) + 2), len(period)


def rational_factors(r, m: int) -> FactorSet:
    """Length-m factors of the bi-infinite periodic word with period the
    slope-r convergent word, from all cyclic rotations."""
    r = Fraction(r)
    hay, plen = _periodic_haystack(r, m)
    return FactorSet(r, m, frozenset(hay[i:i + m] for i in range(plen)))


@dataclass(frozen=True)
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
        if theta.convergent(l).q >= span:
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
    confirmed at the following level as well.  Admissible verdicts carry a
    start height and offset locating the factor in the leaf word from that
    height, re-checkable against the exact cutting sequence.
    """
    search, letters, aligned = _search_form(word)
    if letters == "":
        return AdmissibilityCertificate("admissible", letters, (), 0, aligned,
                                        Fraction(1, 7), 0)
    span = search.count("a") + 2
    l0 = _window_level(theta, span, k_max)
    cv = theta.convergent(l0)
    hay, _plen = _periodic_haystack(Fraction(cv.p, cv.q), len(search))
    member = search in hay
    levels = [l0]
    if not member:
        if l0 + 1 <= k_max:
            cv1 = theta.convergent(l0 + 1)
            hay1, _ = _periodic_haystack(Fraction(cv1.p, cv1.q), len(search))
            if search in hay1:
                raise AssertionError(
                    "level disagreement; window threshold violated")
            levels.append(l0 + 1)
        return AdmissibilityCertificate("inadmissible", letters, tuple(levels),
                                        span, aligned)
    s, offset = _find_witness(search, letters, aligned, theta)
    return AdmissibilityCertificate("admissible", letters, tuple(levels), span,
                                    aligned, s, offset)


def _find_witness(search: str, letters: str, aligned: bool,
                  theta: ContinuedFraction):
    """Start height and offset of the factor in an actual leaf word.

    The offset always points at the factor itself; for aligned factors the
    stream either begins with the factor (offset 0, the stream starts on a
    block boundary) or contains the anchored string.
    """
    budget = max(4 * len(search) + 2000, 10000)
    for denom in (7, 11, 101, 257):
        for j in (1, 2, 3):
            s = Fraction(j, denom)
            stream = leaf_letter_stream(theta, s, budget)
            if aligned and stream.startswith(letters):
                return s, 0
            pos = stream.find(search)
            if pos >= 0:
                return s, pos + (1 if aligned else 0)
        budget *= 2
    raise AssertionError("admissible word not found in sampled leaf words")


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


@dataclass(frozen=True)
class SamplingReport:
    word: str
    heights: tuple[Fraction, ...]
    letters_per_height: int
    found_at: Optional[tuple[Fraction, int]]  # (height, offset) if the word occurred

    @property
    def absent(self) -> bool:
        return self.found_at is None


def sampling_cross_check(word, theta: ContinuedFraction,
                         num_letters: int = 100_000, heights: int = 100,
                         seed: Optional[int] = None) -> SamplingReport:
    """Search the factor in leaf-word prefixes from many exact start heights.

    BlockWord inputs are searched block-aligned (anchored by the block
    marker, or at the stream head).  Returns the first occurrence if any; an
    absent report is the sampling oracle's rejection of the word.
    """
    search, letters, aligned = _search_form(word)
    if seed is None:
        hs = [Fraction(j, heights + 1) for j in range(1, heights + 1)]
    else:
        rng = random.Random(seed)
        denom = 2 ** 20 + 7
        hs = []
        seen = set()
        while len(hs) < heights:
            c = rng.randrange(1, denom)
            if c not in seen:
                seen.add(c)
                hs.append(Fraction(c, denom))
    for s in hs:
        stream = leaf_letter_stream(theta, s, num_letters)
        if aligned and stream.startswith(letters):
            return SamplingReport(letters, tuple(hs), num_letters, (s, 0))
        pos = stream.find(search)
        if pos >= 0:
            return SamplingReport(letters, tuple(hs), num_letters,
                                  (s, pos + (1 if aligned else 0)))
    return SamplingReport(letters, tuple(hs), num_letters, None)
