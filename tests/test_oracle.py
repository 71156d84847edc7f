from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laminath import flat, oracle, words
from laminath.cf import ContinuedFraction
from laminath.errors import CertificateViolation, DepthInsufficient, InvalidSlope
from laminath.exactnum import exact_floor

import reference as ref

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
    rot5 = ref.rational_block_rotations(Fraction(7, 5))
    assert {r.blocks for r in rot5} == set(map(bytes, [(1, 1, 2, 1, 2), (1, 2, 1, 2, 1),
                                                       (2, 1, 2, 1, 1), (1, 2, 1, 1, 2),
                                                       (2, 1, 1, 2, 1)]))
    rot3 = ref.rational_block_rotations(Fraction(5, 3))
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
            good = ref.revert_flip(bad)
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
    extended = words.BlockWord(1, (lead, *bad.blocks, tail))
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
        good = ref.revert_flip(bad)
        assert oracle.is_admissible(good, theta).verdict == "admissible"
        cert = words.inadmissible_segment(theta, k)
        assert ref.path_crossing_word(cert.path) == cert.word.letters()


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
    # sqrt2 as a bare coefficient callable: streams read a convergent
    # stand-in line, verdicts read convergents, and both agree with the exact
    # slope
    lazy = ContinuedFraction(source=lambda i: 1 if i == 0 else 2)
    assert (oracle.leaf_letter_stream(lazy, Fraction(1, 4), 10)
            == oracle.leaf_letter_stream(SQRT2, Fraction(1, 4), 10))
    assert oracle.is_admissible("ab", lazy) == oracle.is_admissible("ab", SQRT2)


def test_witness_search_reads_its_heights_and_budgets(monkeypatch):
    # a witness search that finds nothing reads three heights per
    # denominator, each denominator's streams twice as long as the last
    calls = []

    def empty(theta, s, n):
        calls.append((s, n))
        return ""

    monkeypatch.setattr(oracle, "leaf_letter_stream", empty)
    with pytest.raises(CertificateViolation, match="not found in sampled leaf words"):
        oracle.is_admissible("ab", SQRT2)
    assert calls == [(Fraction(j, denom), 10000 << i)
                     for i, denom in enumerate((7, 11, 101, 257)) for j in (1, 2, 3)]


def test_sampling_cross_check():
    bad = words.inadmissible_word(SQRT2, 3)
    rep = oracle.sampling_cross_check(bad, SQRT2, num_letters=20_000, heights=20)
    assert rep.absent
    good = words.simple_word(Fraction(7, 5), 1)
    rep2 = oracle.sampling_cross_check(good, SQRT2, num_letters=20_000, heights=20)
    assert not rep2.absent


def test_sampling_refuses_a_search_that_cannot_fail(monkeypatch):
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
    # a seeded search draws distinct heights c/(2^20 + 7): asking for more
    # drew forever; it is refused before any draw
    monkeypatch.setattr(oracle, "random", None)
    with pytest.raises(ValueError, match="at most 1048582 distinct heights"):
        oracle.sampling_cross_check("ab", SQRT2, num_letters=10, heights=2 ** 20 + 7, seed=1)


def test_sampling_seeded_deterministic():
    bad = words.inadmissible_word(SQRT2, 2)
    r1 = oracle.sampling_cross_check(bad, SQRT2, num_letters=5000, heights=5, seed=11)
    r2 = oracle.sampling_cross_check(bad, SQRT2, num_letters=5000, heights=5, seed=11)
    assert r1.heights == r2.heights and r1.absent and r2.absent
    assert r1.heights == tuple(Fraction(c, 2 ** 20 + 7)
                               for c in (948709, 976539, 947562, 398254, 387261))


# -- block-space verdicts ----------------------------------------------------------

def _outcome(decide, word, theta, k_max):
    """The certificate, or the type and text of the exception raised."""
    try:
        return decide(word, theta, k_max)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


@st.composite
def _slopes(draw):
    """Quadratic, rational and opaque slopes with integer part 0..2, 7, 254 or
    255, the last two often, since a byte holds blocks up to 255."""
    c = draw(st.sampled_from([0, 1, 1, 2, 2, 7, 254, 254, 255, 255]))
    tail = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["quadratic", "rational", "opaque"]))
    if kind == "rational":
        return ContinuedFraction([c, *tail, *draw(st.lists(st.integers(1, 4), max_size=8))])
    quadratic = ContinuedFraction.periodic([c], tail)
    return quadratic if kind == "quadratic" else ContinuedFraction(source=quadratic.coefficient)


@st.composite
def _block_words(draw, theta):
    """Block words over bases c - 1 .. c + 1 in both orientations, 1 to 400
    blocks: leaf-word slices (admissible), perhaps with one block flipped, or
    random blocks."""
    c = theta.floor_part()
    n = draw(st.integers(min_value=1, max_value=400))
    if draw(st.booleans()):
        s = Fraction(draw(st.integers(1, 996)), 997)
        skip = draw(st.integers(min_value=0, max_value=300))
        blocks = list(oracle.leaf_block_stream(theta, s, skip + n)[skip:])
        if draw(st.booleans()):
            j = draw(st.integers(min_value=0, max_value=n - 1))
            blocks[j] = 2 * c + 1 - blocks[j]
        base = c
    else:
        base = max(c + draw(st.integers(min_value=-1, max_value=1)), 0)
        blocks = draw(st.lists(st.sampled_from([base, base + 1]), min_size=n, max_size=n))
    return words.BlockWord(base, tuple(blocks), draw(st.sampled_from(["ba", "ba", "ab"])))


@settings(max_examples=150, deadline=None)
@given(_slopes(), st.data())
def test_block_verdicts_match_the_letter_reference(theta, data):
    # block-space verdicts against the letter haystacks: verdict, levels,
    # span and witness, or the same exception, including depth exhaustion,
    # slopes below 1 and block values beyond a byte
    word = data.draw(_block_words(theta))
    k_max = data.draw(st.sampled_from([24, 24, 24, 3, 5, 7]))
    assert (_outcome(oracle.is_admissible, word, theta, k_max)
            == _outcome(ref.is_admissible_letters, word, theta, k_max))


@pytest.mark.parametrize("c", [0, 1, 254, 255, 300])
def test_block_verdicts_at_the_byte_edges(c):
    # words over bases c - 1 .. c + 1 next to integer parts 0 and 255
    theta = ContinuedFraction.periodic([c], [2])
    for base in {max(c - 1, 0), c, c + 1}:
        for blocks in ((base,), (base + 1, base), (base, base + 1, base, base + 1, base)):
            for orientation in ("ba", "ab"):
                word = words.BlockWord(base, blocks, orientation)
                assert (_outcome(oracle.is_admissible, word, theta, 24)
                        == _outcome(ref.is_admissible_letters, word, theta, 24)), word


def test_block_verdicts_fall_back_beyond_a_byte(monkeypatch):
    # integer part 300 or a block of 256: the letter path decides
    wide = ContinuedFraction.from_text("cf:[300;2]p")
    narrow = ContinuedFraction.from_text("cf:[254;1,2]p")
    cases = [(wide, words.inadmissible_word(wide, 2)),
             (wide, ref.revert_flip(words.inadmissible_word(wide, 3))),
             (narrow, words.BlockWord(255, (255, 256, 255)))]
    want = [ref.is_admissible_letters(word, theta) for theta, word in cases]
    assert [c.verdict for c in want] == ["inadmissible", "admissible", "inadmissible"]

    def refuse(*args):
        raise RuntimeError("block bytes read")

    monkeypatch.setattr(oracle, "_block_periods", refuse)
    assert [oracle.is_admissible(word, theta) for theta, word in cases] == want


def test_torus_block_words_are_decided_on_their_bytes(monkeypatch):
    # segment and inadmissible words below base 255 never reach the letter
    # haystack: their stored bytes are searched in the standard-word periods
    cases = [(theta, make(theta, k)) for theta in (SQRT2, GOLDEN,
                                                  ContinuedFraction.from_text("cf:[253;1,2]p"))
             for k in (2, 3, 4) for make in (words.inadmissible_word,
                                              lambda t, k: words.inadmissible_segment(t, k).word)]
    want = [ref.is_admissible_letters(word, theta) for theta, word in cases]
    assert {c.verdict for c in want} == {"inadmissible"}

    def refuse(*args):
        raise RuntimeError("letter haystack read")

    monkeypatch.setattr(oracle, "_periodic_haystack", refuse)
    assert [oracle.is_admissible(word, theta) for theta, word in cases] == want


def test_block_period_is_a_rotation_of_the_simple_word():
    # every reduced p/q with 2 <= q <= 60 and integer part 1..3, and integer
    # parts up to 254 at q <= 12
    slopes = [Fraction(p, q) for q in range(2, 61) for p in range(q + 1, 4 * q)]
    slopes += [Fraction(c * q + j, q) for c in (4, 7, 100, 254)
               for q in range(2, 13) for j in range(1, q)]
    for r in {r for r in slopes if r.denominator > 1}:
        theta = ContinuedFraction.from_rational(r)
        period = next(oracle._block_periods(theta, theta.length - 1))
        simple = words.simple_word(r, 1).blocks
        assert len(period) == len(simple) and period in simple * 2, r
