from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import flat, words
from laminath.cf import ContinuedFraction, q_error
from laminath.errors import InvalidSlope, NotBlockShaped, ParityMismatch

SQRT2 = ContinuedFraction.sqrt2()
GOLDEN = ContinuedFraction.golden()


def coprime_slopes(max_sum=40):
    from math import gcd
    out = []
    for q in range(1, max_sum):
        for p in range(q + 1, max_sum):
            if p + q <= max_sum and gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out


# -- Algorithm 1 -------------------------------------------------------------

def test_simple_word_traces():
    assert words.simple_word(Fraction(5, 3), 1).blocks == (2, 2, 1)
    assert words.simple_word(Fraction(5, 3), 3).blocks == (1, 2, 2)
    assert words.simple_word(Fraction(2, 1), 1).blocks == (2,)
    assert words.simple_word(Fraction(7, 5), 5).blocks == (1, 1, 2, 1, 2)


def test_simple_word_counts():
    for r in coprime_slopes(24):
        w = words.simple_word(r, 1)
        assert len(w.blocks) == r.denominator
        assert sum(w.blocks) == r.numerator
        letters = w.letters()
        assert letters.count("b") == r.numerator
        assert letters.count("a") == r.denominator


def test_simple_word_rejects():
    with pytest.raises(InvalidSlope):
        words.simple_word(Fraction(3, 5), 1)
    with pytest.raises(InvalidSlope):
        words.simple_word(Fraction(5, 3), 4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(coprime_slopes(30)), st.data())
def test_simple_word_start_is_rotation(r, data):
    q = r.denominator
    l1 = data.draw(st.integers(min_value=1, max_value=q))
    base = words.simple_word(r, 1)
    other = words.simple_word(r, l1)
    assert any(base.rotate(j).blocks == other.blocks for j in range(q))


def _schedule_word(r, l1):
    """Reference: the cyclic schedule of q start positions, t carrying n+1
    and s carrying n, read from l1 until it returns to l1."""
    _, _, n, s, t = words._slope_data(r)
    blocks = []
    l = l1
    while True:
        blocks.append(n + 1 if l <= t else n)
        l = s + l if l <= t else l - t
        if l == l1:
            return tuple(blocks)


def _schedule_partial(r, l1, stop):
    """Reference: the schedule from l1, stopped on reaching ``stop``."""
    _, _, n, s, t = words._slope_data(r)
    blocks = []
    l = l1
    while True:
        blocks.append(n + 1 if l <= t else n)
        l = s + l if l <= t else l - t
        if l == stop:
            return tuple(blocks)


def _check_against_schedule(r):
    q = r.denominator
    for l1 in range(1, q + 1):
        assert words.simple_word(r, l1).blocks == _schedule_word(r, l1)
        for stop in range(1, q + 1):
            assert words.partial_simple_word(r, l1, stop) == _schedule_partial(r, l1, stop)


def test_simple_words_match_schedule_small_slopes():
    from math import gcd
    for q in range(1, 13):
        for p in range(q + 1, 4 * q + 3):
            if gcd(p, q) == 1:
                _check_against_schedule(Fraction(p, q))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=13, max_value=60), st.data())
def test_simple_words_match_schedule(q, data):
    p = data.draw(st.integers(min_value=q + 1, max_value=6 * q).filter(
        lambda p: Fraction(p, q).denominator == q))
    _check_against_schedule(Fraction(p, q))


# -- blocks <-> letters --------------------------------------------------------

def test_blocks_letters_examples():
    assert words.BlockWord(1, (2, 2, 1)).letters() == "bbabbaba"
    assert words.letters_to_blocks("baba").blocks == (1, 1)
    with pytest.raises(NotBlockShaped):
        words.letters_to_blocks("aBa")
    with pytest.raises(NotBlockShaped):
        words.letters_to_blocks("bbab")  # ends mid-block
    flipped = words.letters_to_blocks("aab ab".replace(" ", ""))
    assert flipped.orientation == "ab" and flipped.blocks == (2, 1)
    assert flipped.letters() == "aabab"


def test_exotic_max_stages():
    def even_indices():
        i = 2
        while True:
            yield i
            i += 2
    ew = words.exotic_word(SQRT2, even_indices(), max_stages=3)
    assert ew.kept_indices == [2, 4, 6]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=9))
def test_blocks_letters_round_trip(n, bits):
    blocks = tuple(n + b for b in bits)
    w = words.BlockWord(min(blocks), blocks)
    assert words.letters_to_blocks(w.letters()).blocks == blocks


# -- Algorithm 2 -----------------------------------------------------------------

def test_inadmissible_word_sqrt2():
    assert words.inadmissible_word(SQRT2, 2).blocks == (1, 1, 2, 1, 1)
    assert words.inadmissible_word(SQRT2, 3).blocks == (2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2)


def test_inadmissible_word_edges():
    for theta in (SQRT2, GOLDEN):
        for k in range(2, 8):
            w = words.inadmissible_word(theta, k)
            n = w.base
            edge = n if k % 2 == 0 else n + 1
            assert w.blocks[0] == edge and w.blocks[-1] == edge
            assert len(w.blocks) == theta.convergent(k).q
            # reverting the flip recovers a convergent word rotation
            rev = words.revert_flip(w)
            cv = theta.convergent(k)
            base = words.simple_word(Fraction(cv.p, cv.q), 1)
            assert any(base.rotate(j).blocks == rev.blocks
                       for j in range(len(base.blocks)))


def test_inadmissible_word_k_too_small():
    with pytest.raises(IndexError):
        words.inadmissible_word(SQRT2, 1)


# -- Algorithm 3 --------------------------------------------------------------------

def test_segment_sqrt2_k2():
    cert = words.inadmissible_segment(SQRT2, 2)
    assert cert.word.blocks == (1, 1, 2, 1, 1, 2, 1, 2)
    assert cert.word.letter_count == 19
    assert cert.word.letter_count <= 2 * (7 + 5)
    # measure below 3|q theta - p| + 2/q
    assert cert.measure <= cert.bound
    # representative is consistent with the emitted word
    assert flat.path_crossing_word(cert.path) == cert.word.letters()


def test_segment_bounds_both_thetas():
    for theta in (SQRT2, GOLDEN):
        val = theta.value()
        for k in range(2, 9):
            cert = words.inadmissible_segment(theta, k)
            cv = cert.convergent
            assert cert.word.letter_count <= 2 * (cv.p + cv.q)
            assert cert.measure <= 3 * abs(q_error(val, cv)) + Fraction(2, cv.q)
            assert flat.path_crossing_word(cert.path) == cert.word.letters()


def test_segment_starts_with_inadmissible_cycle():
    for k in (2, 3, 4):
        cert = words.inadmissible_segment(SQRT2, k)
        head = words.inadmissible_word(SQRT2, k)
        assert cert.word.blocks[:len(head.blocks)] == head.blocks


def test_segment_needs_an_exact_slope():
    # an opaque source has no exact value to measure the segment against
    lazy = ContinuedFraction(source=SQRT2.coefficient)
    with pytest.raises(InvalidSlope):
        words.inadmissible_segment(lazy, 2)
    with pytest.raises(InvalidSlope):
        words.exotic_word(lazy, (2, 4))


# -- exotic words ---------------------------------------------------------------------

def test_exotic_empty():
    ew = words.exotic_word(SQRT2, ())
    assert ew.stages == [] and ew.total_measure == 0


def test_exotic_parity_mismatch():
    with pytest.raises(ParityMismatch):
        words.exotic_word(SQRT2, (2, 3))
    with pytest.raises(ParityMismatch):
        words.exotic_word(SQRT2, (4, 2))


def test_exotic_two_segments():
    ew = words.exotic_word(SQRT2, (2, 4))
    assert ew.kept_indices == [2, 4]
    w2 = words.inadmissible_segment(SQRT2, 2)
    w4 = words.inadmissible_segment(SQRT2, 4)
    assert ew.letters() == w2.word.letters() + w4.word.letters()
    # exact ledger: segments plus one connector
    expect = w2.measure + w4.measure + abs(w4.start_height - w2.end_height_mod1)
    assert ew.total_measure == expect
    # connector shorter than 1/q_2
    assert ew.stages[1].connector < Fraction(1, 5)


def test_exotic_thinning_reports():
    ew = words.exotic_word(SQRT2, (2, 4, 6, 8, 10, 12), thin=True)
    assert ew.kept_indices[0] == 2
    assert set(ew.kept_indices) | set(ew.skipped_indices) <= {2, 4, 6, 8, 10, 12}
    # domination: each kept measure exceeds 3x the later tail
    for i, st_ in enumerate(ew.stages):
        tail = words.tail_measure_signature(ew, i + 1)
        assert st_.certificate.measure > 3 * tail


def test_exotic_representative_measure_matches_ledger():
    val = SQRT2.value()
    for indices in ((2, 4), (2, 4, 6), (3, 5)):
        ew = words.exotic_word(SQRT2, indices)
        rep = words.exotic_representative(ew)
        assert flat.transverse_measure(rep, val) == ew.total_measure
        # and the crossing word of the whole path matches the emitted letters
        assert flat.path_crossing_word(rep) == ew.letters()


def test_min_full_segment_window():
    ew = words.exotic_word(SQRT2, (2, 4, 6))
    lengths = [len(st.certificate.word.blocks) for st in ew.stages]
    need = words.min_full_segment_window(ew)
    assert need == max(lengths[0], lengths[-1], lengths[0] + lengths[1],
                       lengths[1] + lengths[2])


# -- cusp construction -------------------------------------------------------------------

def test_cusp_word_first_stages():
    stages = words.cusp_exotic_word(SQRT2, (1, 1))
    assert stages[0].word.blocks == (1, 2)
    assert stages[0].letters == "babba" + "BAba"
    letters = words.cusp_word_letters(stages)
    assert letters.startswith("babbaBAba")
    assert "A" in letters and "B" in letters
    assert words.is_reduced(letters)


def test_cusp_measure_ledger_exact():
    stages = words.cusp_exotic_word(SQRT2, (1, 2, 1))
    val = SQRT2.value()
    total = Fraction(0)
    for st_, cv in zip(stages, SQRT2.convergents(3)[1:]):
        total = total + abs(q_error(val, cv))
        assert st_.partial_measure == total


def test_cusp_representative_measure():
    stages = words.cusp_exotic_word(SQRT2, (1, 1, 1))
    path = words.cusp_representative(SQRT2, 3)
    val = SQRT2.value()
    assert flat.transverse_measure(path, val) == stages[-1].partial_measure


def test_cusp_loop_counts_positive():
    with pytest.raises(InvalidSlope):
        words.cusp_exotic_word(SQRT2, (1, 0, 1))
