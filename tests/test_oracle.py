from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import flat, oracle, words
from laminath.cf import ContinuedFraction
from laminath.errors import DepthInsufficient, InvalidSlope
from laminath.exactnum import exact_floor

SQRT2 = ContinuedFraction.sqrt2()
GOLDEN = ContinuedFraction.golden()


# -- rational factor sets -------------------------------------------------------

def test_factor_set_members_occur_in_leaf_words():
    # every member of a convergent factor set extends to an actual leaf word
    fs = oracle.rational_factors(Fraction(7, 5), 6)
    for factor in sorted(fs.factors)[:4]:
        cert = oracle.is_admissible(factor, SQRT2)
        assert cert.verdict == "admissible"


def test_rational_factors_examples():
    fs = oracle.rational_factors(Fraction(2, 1), 3)
    assert fs.factors == {"bba", "bab", "abb"}
    rot5 = oracle.rational_block_rotations(Fraction(7, 5))
    assert {r.blocks for r in rot5} == {(1, 1, 2, 1, 2), (1, 2, 1, 2, 1),
                                        (2, 1, 2, 1, 1), (1, 2, 1, 1, 2),
                                        (2, 1, 1, 2, 1)}
    rot3 = oracle.rational_block_rotations(Fraction(5, 3))
    pairs = set()
    for r in rot3:
        for j in range(len(r.blocks)):
            pairs.add((r.blocks[j], r.blocks[(j + 1) % 3]))
    assert pairs == {(2, 2), (2, 1), (1, 2)}


# -- the decision procedure ------------------------------------------------------

def test_two_consecutive_big_blocks_inadmissible():
    cert = oracle.is_admissible(words.BlockWord(1, (2, 2)), SQRT2)
    assert cert.verdict == "inadmissible"
    assert len(cert.levels) >= 2
    # with both block sizes maximal the plain letter search agrees
    assert oracle.is_admissible("bbabba", SQRT2).verdict == "inadmissible"


def test_alignment_matters_for_small_leading_blocks():
    # the letters of the flipped cycle do occur in leaf words, but only with
    # the leading run absorbed into a longer block; the aligned factor never
    bad = words.inadmissible_word(SQRT2, 2)
    assert oracle.is_admissible(bad, SQRT2).verdict == "inadmissible"
    assert oracle.is_admissible(bad.letters(), SQRT2).verdict == "admissible"


def test_one_two_block_admissible_with_witness():
    bw = words.BlockWord(1, (1, 2))
    cert = oracle.is_admissible(bw, SQRT2)
    assert cert.verdict == "admissible" and cert.aligned
    # the witness is re-checkable through the exact cutting sequence
    word = bw.letters()
    stream = flat.cutting_sequence(cert.witness_height, SQRT2,
                                   cert.witness_offset + len(word))
    assert stream[cert.witness_offset:] == word
    if cert.witness_offset > 0:
        assert stream[cert.witness_offset - 1] == "a"


def test_empty_word_admissible():
    assert oracle.is_admissible("", SQRT2).verdict == "admissible"


def test_word_alphabet_checked():
    with pytest.raises(ValueError):
        oracle.is_admissible("abA", SQRT2)


def test_depth_insufficient_is_explicit():
    long_word = "ba" * 40
    with pytest.raises(DepthInsufficient):
        oracle.is_admissible(long_word, SQRT2, k_max=2)


def test_golden_small_patterns():
    assert oracle.is_admissible(words.BlockWord(1, (2, 2, 2)), GOLDEN).verdict == "inadmissible"
    assert oracle.is_admissible(words.BlockWord(1, (1, 1)), GOLDEN).verdict == "inadmissible"
    assert oracle.is_admissible(words.BlockWord(1, (2, 2, 1)), GOLDEN).verdict == "admissible"


def test_algorithm_words_rejected_and_reverts_accepted():
    for theta in (SQRT2, GOLDEN):
        for k in (2, 3, 4, 5):
            bad = words.inadmissible_word(theta, k)
            good = words.revert_flip(bad)
            assert oracle.is_admissible(bad, theta).verdict == "inadmissible"
            assert oracle.is_admissible(good, theta).verdict == "admissible"


def test_monotonicity_factors_of_admissible():
    word = words.simple_word(Fraction(7, 5), 2).letters() * 2
    for start in range(0, len(word) - 4, 3):
        factor = word[start:start + 4]
        assert oracle.is_admissible(factor, SQRT2).verdict == "admissible"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_extensions_of_inadmissible_stay_inadmissible(lead, tail):
    # extending an inadmissible block factor by whole blocks on either side
    bad = words.inadmissible_word(SQRT2, 2)
    extended = words.BlockWord(1, (lead,) + bad.blocks + (tail,))
    assert oracle.is_admissible(extended, SQRT2).verdict == "inadmissible"


# -- factor complexity -------------------------------------------------------------

def test_factor_count_small():
    assert oracle.factor_count(SQRT2, 1) == 2
    assert oracle.factor_count(SQRT2, 2) == 3
    assert oracle.factor_count(SQRT2, 3) == 4


def test_factor_count_sturmian_law():
    for theta in (SQRT2, GOLDEN):
        for m in range(1, 24):
            assert oracle.factor_count(theta, m) == m + 1


def test_factor_count_matches_prefix_enumeration():
    stream = oracle.leaf_letter_stream(SQRT2, Fraction(1, 101), 100_000)
    for m in (1, 2, 3, 5, 8, 13):
        found = {stream[i:i + m] for i in range(len(stream) - m)}
        assert len(found) == oracle.factor_count(SQRT2, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (5, 3), (7, 5), (8, 5), (9, 7), (11, 4)]),
       st.integers(min_value=1, max_value=20))
def test_rational_factor_complexity(pq, m):
    p, q = pq
    fs = oracle.rational_factors(Fraction(p, q), m)
    assert len(fs.factors) == min(m + 1, p + q)


def _assert_haystack_is_simple_word(r):
    hay, plen = oracle._periodic_haystack(r, 3 * r.denominator)
    period = words.simple_word(r, 1).letters()
    assert plen == len(period) and hay == period * (3 * r.denominator // plen + 2), r


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_haystack_period_is_the_simple_word(q, data):
    # the kernel's period letters against the BlockWord reference, p/q > 1
    p = data.draw(st.integers(min_value=q + 1, max_value=6 * q + 5).filter(
        lambda p: Fraction(p, q).denominator == q))
    _assert_haystack_is_simple_word(Fraction(p, q))


@pytest.mark.parametrize("theta", [SQRT2, GOLDEN], ids=["sqrt2", "golden"])
def test_haystack_period_on_convergents(theta):
    k = 0
    while theta.convergent(k).q <= 5000:
        cv = theta.convergent(k)
        if cv.p > cv.q:
            _assert_haystack_is_simple_word(Fraction(cv.p, cv.q))
        k += 1
    assert k >= 10


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(0), Fraction(1), Fraction(-3, 2)])
def test_haystack_keeps_the_slope_guard(r):
    # the window kernel takes any slope; the haystack still demands r > 1
    with pytest.raises(InvalidSlope, match="slope must be > 1"):
        oracle._periodic_haystack(r, 3)
    with pytest.raises(InvalidSlope, match="slope must be > 1"):
        oracle.rational_factors(r, 3)


def test_wilder_quadratic_slope():
    # integer part 7, period-3 expansion: stresses the block-size arithmetic
    theta = ContinuedFraction.periodic([7], [3, 1, 5])
    s = Fraction(2, 11)
    assert (oracle.leaf_letter_stream(theta, s, 3000)
            == flat.cutting_sequence(s, theta, 3000))
    for m in range(1, 12):
        assert oracle.factor_count(theta, m) == m + 1
    for k in (2, 3, 4):
        bad = words.inadmissible_word(theta, k)
        assert oracle.is_admissible(bad, theta).verdict == "inadmissible"
        good = words.revert_flip(bad)
        assert oracle.is_admissible(good, theta).verdict == "admissible"
        cert = words.inadmissible_segment(theta, k)
        assert flat.path_crossing_word(cert.path) == cert.word.letters()


# -- streams ------------------------------------------------------------------------

def test_stream_matches_cutting_sequence():
    for theta in (SQRT2, GOLDEN):
        for s in (Fraction(1, 4), Fraction(2, 7), Fraction(99, 101)):
            assert (oracle.leaf_letter_stream(theta, s, 400)
                    == flat.cutting_sequence(s, theta, 400))


def test_block_stream_matches_exact_floors():
    s = Fraction(267711, 1_000_003)
    val = SQRT2.value()
    floors = [exact_floor(j * val + s) for j in range(201)]
    assert (oracle.leaf_block_stream(SQRT2, s, 200)
            == [y - x for x, y in zip(floors, floors[1:])])


def test_opaque_source_streams_and_verdicts():
    # sqrt2 as a bare coefficient callable: streams and verdicts go through
    # enclosure comparisons and agree with the exact slope
    lazy = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    assert (oracle.leaf_letter_stream(lazy, Fraction(1, 4), 10)
            == oracle.leaf_letter_stream(SQRT2, Fraction(1, 4), 10))
    assert oracle.is_admissible("ab", lazy) == oracle.is_admissible("ab", SQRT2)


def test_sampling_cross_check():
    bad = words.inadmissible_word(SQRT2, 3)
    rep = oracle.sampling_cross_check(bad, SQRT2, num_letters=20_000, heights=20)
    assert rep.absent
    good = words.simple_word(Fraction(7, 5), 1)
    rep2 = oracle.sampling_cross_check(good, SQRT2, num_letters=20_000, heights=20)
    assert not rep2.absent


def test_sampling_refuses_a_search_that_cannot_fail():
    # a stream shorter than the word, or no stream at all, once reported the
    # word absent, which reads as the oracle rejecting it
    word = words.simple_word(Fraction(7, 5), 1)
    n = word.letter_count
    with pytest.raises(ValueError, match=f"at least {n} letters per height"):
        oracle.sampling_cross_check(word, SQRT2, num_letters=n - 1, heights=5)
    with pytest.raises(ValueError, match="at least 5 letters per height"):
        oracle.sampling_cross_check("babba", SQRT2, num_letters=3, heights=5)
    with pytest.raises(ValueError, match="at least 1 height"):
        oracle.sampling_cross_check("ab", SQRT2, num_letters=100, heights=0)
    rep = oracle.sampling_cross_check(word, SQRT2, num_letters=n, heights=5)
    assert rep.letters_per_height == n


def test_sampling_seeded_deterministic():
    bad = words.inadmissible_word(SQRT2, 2)
    r1 = oracle.sampling_cross_check(bad, SQRT2, num_letters=5000, heights=5, seed=11)
    r2 = oracle.sampling_cross_check(bad, SQRT2, num_letters=5000, heights=5, seed=11)
    assert r1.heights == r2.heights and r1.absent and r2.absent
