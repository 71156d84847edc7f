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
standard-word recursion).

An independent sampling oracle searches long leaf-word prefixes from many
start heights, on the same needle.  The prefixes come from the window kernel
in ``flat``: copies of a convergent's block period, each placed and
corrected by a few exact floors.  A search plans each slope once per call,
for all its heights; the witness search is the same loop.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count
from typing import Optional

from . import flat
from ._record import record
from .cf import ContinuedFraction
from .errors import CertificateViolation, DepthInsufficient, InvalidSlope
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
    hay = period * (m // len(period) + 2)
    return FactorSet(r, m, frozenset(hay[i:i + m] for i in range(len(period))))


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

    A BlockWord asks for a block-aligned occurrence: the search string is
    its letters led by its marker letter ('a' for b^n a blocks), found
    anywhere, and the letters alone also count at the head of a leaf word,
    which starts a block.  A letter string is searched as it is.
    """
    if isinstance(word, BlockWord):
        letters = word.letters()
        return letters[-1] + letters, letters, True
    if set(word) - {"a", "b"}:
        raise ValueError("words are over the letters a, b")
    return word, word, False


def _needle(u: str, c: int, blocks=None) -> tuple[Optional[bytes], bool, int]:
    """(needle, head, x) of the letter string u = b^x a (b^n_1 a) ...
    (b^n_k a) b^y, a cylinder set of the blocks b^c a and b^(c+1) a of leaf
    words.  The needle is n_1 .. n_k as 0/1 offsets from c, led by a 1
    (``head``) where x = c + 1 and closed by a 1 where y = c + 1; it is None,
    as no leaf word holds u, where x or y exceeds c + 1 or some n_i lies off
    {c, c + 1}.  A u with no 'a' is its tail b^y alone, with x = -1.  The
    stored blocks of a "ba" BlockWord, u = a (b^n_1 a) ... (b^n_k a), are
    given as ``blocks`` and translated once."""
    if blocks is None:
        *runs, y = map(len, u.split("a"))
        x, blocks = (runs[0], runs[1:]) if runs else (-1, ())
    else:
        x = y = 0
    if type(blocks) is bytes and c < 255:
        inner = (None if blocks.translate(None, bytes((c, c + 1)))
                 else blocks.translate(bytes.maketrans(bytes((c, c + 1)), b"\x00\x01")))
    else:
        inner = bytes(b - c for b in blocks) if set(blocks) <= {c, c + 1} else None
    if inner is None or max(x, y) > c + 1:
        return None, False, x
    head = x == c + 1
    return b"\x01" * head + inner + b"\x01" * (y == c + 1), head, x


def _stored_blocks(word):
    """The blocks of a "ba" BlockWord, which ``_needle`` reads as they are."""
    return word.blocks if isinstance(word, BlockWord) and word.orientation == "ba" else None


def is_admissible(word, theta: ContinuedFraction, k_max: int = 24) -> AdmissibilityCertificate:
    """Decide whether ``word`` occurs in some theta-leaf word.

    ``word`` may be a letter string (plain containment) or a BlockWord
    (block-aligned containment).  Membership of the search string's block
    needle (``_needle``) in the periodic block word of the first convergent
    whose cycle is longer than the word's block span settles the verdict;
    inadmissible verdicts are confirmed at the following level as well.
    Theta must exceed 1.  Admissible verdicts carry a start height and
    offset locating the factor in the leaf word from that height,
    re-checkable against the exact cutting sequence.
    """
    search, letters, aligned = _search_form(word)
    if letters == "":
        return AdmissibilityCertificate("admissible", letters, (), 0, aligned,
                                        Fraction(1, 7), 0)
    span = search.count("a") + 2
    l0 = _window_level(theta, span, k_max)
    c = theta.floor_part()
    if c == 0:
        cv = theta.convergent(l0)
        raise InvalidSlope(f"slope must be > 1, got {Fraction(cv.p, cv.q)}")
    needle = _needle(search, c, _stored_blocks(word))[0]
    periods = flat._block_periods(map(theta.coefficient, count()), l0)
    levels = [l0]
    if not _occurs(needle, periods):
        if l0 + 1 <= k_max:
            if _occurs(needle, periods):
                raise CertificateViolation(
                    "level disagreement; window threshold violated")
            levels.append(l0 + 1)
        return AdmissibilityCertificate("inadmissible", letters, tuple(levels),
                                        span, aligned)
    s, offset = _find_witness(word, (search, letters, aligned), theta)
    return AdmissibilityCertificate("admissible", letters, tuple(levels), span,
                                    aligned, s, offset)


def _occurs(needle: Optional[bytes], periods) -> bool:
    """Whether the periodic word of the next block period of ``periods``
    holds ``needle``: L // q + 2 periods hold every length-L factor."""
    period = next(periods)
    return needle is not None and needle in period * (len(needle) // len(period) + 2)


def _height_read(theta: ContinuedFraction, s, n: int, plans: dict) -> bytearray:
    """The blocks that hold the first n letters of the leaf word from (0, s)
    (the J of ``flat._letter_line``), as 0/1 offsets from c0.  The slope half
    of the window plan comes from ``plans``, keyed by the line's slope
    reduced by its gcd and J, and is built there on first use: heights over
    different denominators scale the same slope's integers differently."""
    E, F, S, G, d, C, J = flat._letter_line(theta, s, n)
    g = math.gcd(E, F, C)
    key = (E // g, F // g, d, C // g, J)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = flat._slope_plan(E, F, d, C, J)
    return flat._window_blocks(E, F, S, G, d, C, J, plan=plan)[0]


def _first_occurrence(word, form: tuple[str, str, bool], theta: ContinuedFraction,
                      starts) -> Optional[tuple[Fraction, int]]:
    """(height, offset) of ``word``, in its ``_search_form`` ``form``, in the
    first leaf word, read to n letters for each (height, n) of ``starts`` in
    turn, that holds it, or None.  Each slope is planned once per call
    (``_height_read``).

    The search string's needle (``_needle``) is found in the leaf word's
    block offsets.  A hit whose block after the head starts at letter L
    puts the search string at L - x - 1, and the letters of an aligned word
    one letter on.  So a hit at block 0 with no head byte counts only for
    an aligned "ba" word (x = 0): its marker is the start of the stream, at
    letter -1.  An "ab" word's letters also count at letter 0 where the
    needle of "a" + letters starts the offsets.  The first hit ends first,
    so it is the first letter occurrence; it counts if the word ends by
    letter n."""
    search, letters, aligned = form
    c = theta.floor_part()
    blocks = _stored_blocks(word)
    needle, head, x = _needle(search, c, blocks)
    top = _needle("a" + letters, c)[0] if aligned and blocks is None else None
    if needle is None and top is None:
        return None
    first = not head and x >= aligned  # the least block a hit may start at
    plans = {}
    for s, n in starts:
        offs = _height_read(theta, s, n, plans)
        if top is not None and offs.startswith(top):
            at = 0
        elif needle is not None and (i := offs.find(needle, first)) >= 0:
            i += head
            at = i * (c + 1) + offs.count(1, 0, i) - x - 1 + aligned
        else:
            continue
        if at + len(letters) <= n:
            return s, at
    return None


def _find_witness(word, form: tuple[str, str, bool], theta: ContinuedFraction):
    """Start height and offset of ``word`` (in its ``_search_form`` ``form``)
    in an actual leaf word; the offset always points at the factor itself.
    Each denominator's heights read twice the letters of the one before."""
    budget = max(4 * len(form[0]) + 2000, 10000)
    found = _first_occurrence(word, form, theta,
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

    Every word is searched on the block offsets of the leaf words
    (``_first_occurrence``), BlockWord inputs block-aligned.  One slope plan
    serves every height of the call.  Returns the first occurrence if any;
    an absent report is the sampling oracle's rejection of the word.  A
    search that could not find the word (no heights, or fewer letters per
    height than the word has), or a seeded one asking for more distinct
    heights than it draws from, raises ValueError.
    """
    form = sampling_form(word, num_letters, heights)
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
    found = _first_occurrence(word, form, theta, ((s, num_letters) for s in hs))
    return SamplingReport(form[1], tuple(hs), num_letters, found)
