from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from laminath import flat, oracle, words
from laminath.cf import ContinuedFraction
from laminath.errors import CertificateViolation, DepthInsufficient, InvalidSlope
from laminath.exactnum import QuadNum, exact_floor

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


@pytest.mark.parametrize("pq", [(3, 2), (5, 3), (7, 5), (8, 5)])
def test_finite_slopes_decide_at_their_last_level(pq):
    # the last level of a finite expansion is theta, each of whose leaf words
    # is its periodic word: wider factors and verdicts end there, unconfirmed
    theta = ContinuedFraction.from_rational(Fraction(*pq))
    for m in (1, 4, 9, 20):
        assert oracle.factor_count(theta, m) == min(m + 1, sum(pq))
    period = words.simple_word(Fraction(*pq)).letters()
    for word, verdict in ((period * 3, "admissible"), ("aa", "inadmissible")):
        cert = oracle.is_admissible(word, theta)
        assert (cert.verdict, cert.levels) == (verdict, (theta.length - 1,)), word


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


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(0), Fraction(1), Fraction(-3, 2)])
def test_haystack_keeps_the_slope_guard(r):
    # the window kernel takes any slope; the factor haystack demands r > 1
    with pytest.raises(InvalidSlope, match="slope must be > 1"):
        oracle.rational_factors(r, 3)


@pytest.mark.parametrize("word", ["a", "bab", words.BlockWord(1, (1, 2))])
def test_verdicts_refuse_slope_one(word):
    # theta = [1] has integer part 1 but does not exceed 1: it is refused,
    # as the letter reference refuses it, not decided
    with pytest.raises(InvalidSlope, match="slope must be > 1, got 1$"):
        oracle.is_admissible(word, ContinuedFraction([0, 1]))


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


def test_needle_parse_matches_the_run_length_reference():
    # the needle of every a/b string of up to 12 letters, over bases on
    # both sides of a byte
    for m in range(13):
        for u in map("".join, product("ab", repeat=m)):
            for c in (0, 1, 2, 254, 255, 300):
                assert oracle._needle(u, c) == ref.run_length_needle(u, c)


def test_witness_search_reads_its_heights_and_budgets(monkeypatch):
    # a witness search that finds nothing reads three heights per
    # denominator, each denominator's streams twice as long as the last
    calls = []

    def empty(theta, s, n, plans):
        calls.append((s, n))
        return b"", [], b"\x00"

    monkeypatch.setattr(flat, "_leaf_offsets", empty)
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


def test_aligned_words_count_at_the_stream_head():
    # the golden leaf word from height 1/2 starts bba ba bba: a "ba" word read
    # in exactly its own letters sits at letter 0, its anchored form at
    # letter -1; the "ab" word bbab sits at letter 0 too, while its anchored
    # form bbbab occurs in no leaf word
    assert oracle.is_admissible("bbbab", GOLDEN).verdict == "inadmissible"
    for word in (words.BlockWord(1, (2, 1, 2)), words.BlockWord(0, (0, 0, 1), "ab")):
        form = oracle._search_form(word)
        rep = oracle.sampling_cross_check(word, GOLDEN, word.letter_count, 1)
        assert rep.heights == (Fraction(1, 2),)
        assert rep.found_at == (Fraction(1, 2), 0) == ref.first_occurrence_letters(
            *form, GOLDEN, [(Fraction(1, 2), word.letter_count)])


@st.composite
def _sampling_cases(draw):
    """(theta, word, n, heights, seed): a slope with integer part c0 in 0..3,
    254, 255 or 300, exact or opaque; unseeded or seeded heights; and a word
    read off the first searched height's leaf stream of n letters (two
    blocks or more).  A "ba" block word is a block-aligned factor of it (at
    its head, anywhere, or through the block that ends past letter n), such
    a factor over base c0 - 1 or 0, whose blocks 0 and 1 are no offsets from
    c0, or an inadmissible word (c0 > 0).  An "ab" word is a slice ending on
    a 'b', its a-runs as blocks, at the head or anywhere: the head slice
    b^(c0+1) a b of a stream that starts on a long block occurs there while
    its anchored form occurs nowhere.  A letter string is a slice, perhaps
    with one letter flipped, or a run of c0 to c0 + 2 b's."""
    c = draw(st.sampled_from([0, 1, 2, 3, 254, 255, 300]))
    theta = ContinuedFraction.periodic([c], draw(st.lists(st.integers(1, 3), min_size=1,
                                                          max_size=3)))
    if draw(st.booleans()):
        theta = ContinuedFraction(source=theta.coefficient)
    n = draw(st.integers(min_value=20, max_value=3000)) + 2 * c
    heights = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 16)))
    kind = draw(st.sampled_from(["head", "factor", "past n", "base", "inadmissible",
                                 "ab head", "ab", "letters", "run"]))
    if kind == "run":
        return theta, "b" * draw(st.integers(min_value=c, max_value=c + 2)), n, heights, seed
    if kind == "inadmissible" and c > 0:
        word = words.inadmissible_word(theta, draw(st.integers(min_value=2, max_value=5)))
        return theta, word, max(n, word.letter_count), heights, seed
    s0 = oracle.sampling_cross_check("a", theta, n, heights, seed).heights[0]  # read first
    if kind in ("ab head", "ab", "letters"):
        stream = oracle.leaf_letter_stream(theta, s0, n)
        i = 0 if kind == "ab head" else draw(st.integers(min_value=0, max_value=n - 1))
        j = (stream.index("a") + 2 if kind == "ab head"
             else draw(st.integers(min_value=i + 1, max_value=min(i + 200, n))))
        if kind == "letters":
            word = list(stream[i:j])
            k = draw(st.integers(min_value=-1, max_value=j - i - 1))  # -1: no flip
            if k >= 0:
                word[k] = "ab"[word[k] == "a"]
            return theta, "".join(word), n, heights, seed
        j = stream.rfind("b", i, j) + 1 or stream.find("b", i) + 1
        assume(j > i)
        runs = [len(run) for run in stream[i:j].split("b")[:-1]]
        base = min(runs)
        word = words.BlockWord(base, [min(r, base + 1) for r in runs], "ab")
        return theta, word, n, heights, seed
    J = flat._letter_line(theta, s0, n)[-1]
    offsets, _ = flat._window_blocks(*flat._line(theta, s0, J), J)
    ends = [0, *accumulate(c + 1 + o for o in offsets)]   # letter offset of each block
    if kind == "past n":
        lo = min(i for i in range(J) if ends[J] - ends[i] <= n)
        i, j = draw(st.integers(min_value=lo, max_value=min(lo + 3, J - 1))), J
    else:
        i = 0 if kind == "head" else draw(st.integers(min_value=0, max_value=J - 1))
        j = draw(st.integers(min_value=i + 1, max_value=J))
        while ends[j] - ends[i] > n:
            j -= 1
    if kind != "base":
        return theta, words.BlockWord(c, [c + o for o in offsets[i:j]]), n, heights, seed
    # each offset o as the block o, which a translate with no {c, c + 1}
    # check passes through unchanged, where the base allows it
    base = draw(st.sampled_from([0, max(c - 1, 0)]))
    blocks = [next((b for b in (o, c + o) if b in (base, base + 1)), base)
              for o in offsets[i:j]]
    word = words.BlockWord(base, blocks)
    return theta, word, max(n, word.letter_count), heights, seed


@settings(max_examples=150, deadline=None)
@given(_sampling_cases())
def test_block_searches_match_the_letter_reference(case):
    # the sampling oracle and the witness search on block offsets, against
    # one whole letter stream per height: the same first occurrence, or none
    theta, word, n, heights, seed = case
    form = oracle._search_form(word)
    rep = oracle.sampling_cross_check(word, theta, n, heights, seed)
    assert rep.word == form[1]
    assert rep.found_at == ref.first_occurrence_letters(*form, theta,
                                                        ((s, n) for s in rep.heights))
    assert (_outcome(oracle._find_witness, word, form, theta)
            == _outcome(ref.find_witness_letters, *form, theta))


@st.composite
def _seam_cases(draw):
    """(theta, s, n): a slope with integer part 1 or 2, a quadratic
    irrational (exact or opaque) or a rational with denominator at most 7,
    whose one window plan has no swapped blocks; a height; and n letters, so
    few that the plan's q is small and needles run past it."""
    c = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["exact", "opaque", "rational"]))
    if kind == "rational":
        q = draw(st.integers(min_value=1, max_value=7))
        theta = ContinuedFraction.from_rational(
            Fraction(c * q + draw(st.integers(min_value=1, max_value=q)), q))
    else:
        theta = ContinuedFraction.periodic([c], draw(st.lists(st.integers(1, 4), min_size=1,
                                                              max_size=3)))
        if kind == "opaque":
            theta = ContinuedFraction(source=theta.coefficient)
    s = Fraction(draw(st.integers(min_value=0, max_value=996)), 997)
    return theta, s, draw(st.integers(min_value=8, max_value=1500))


@settings(max_examples=150, deadline=None)
@given(_seam_cases(), st.data())
def test_seam_search_matches_a_plain_find(case, data):
    # the seams cut a height's read-out into factors of its plan's periodic
    # word; a needle that word lacks is found at the seams exactly where a
    # plain find finds it, from block 0 or 1; and words through a seam, or
    # read off the period, are placed as the letter reference places them
    theta, s, n = case
    offs, seams, period = flat._leaf_offsets(theta, s, n, {})
    J = flat._letter_line(theta, s, n)[-1]
    assert offs == flat._window_blocks(*flat._line(theta, s, J), J)[0]
    assert seams == sorted(seams)
    cuts = sorted({-1, J, *(x for x in seams if x < J)})
    for a, b in zip(cuts, cuts[1:]):
        assert offs[a + 1:b] in oracle._cyclic(period, b - a - 1)

    q = len(period)
    start = data.draw(st.sampled_from([0, 1]), label="start")
    for a in range(J):
        # the shortest run from block a that the periodic word lacks, found
        # by bisection (its extensions lack it too), not by the seams
        lo, hi = a + 1, J
        while lo < hi:
            mid = (lo + hi) // 2
            if offs[a:mid] in oracle._cyclic(period, mid - a):
                lo = mid + 1
            else:
                hi = mid
        needle = offs[a:hi]
        if needle not in oracle._cyclic(period, hi - a):
            assert oracle._seam_find(offs, needle, start, seams) == offs.find(needle, start)

    m = data.draw(st.integers(min_value=1, max_value=min(J, 2 * q + 2)), label="m")
    if data.draw(st.booleans(), label="from the period"):
        at = data.draw(st.integers(min_value=0, max_value=q - 1))
        needle = oracle._cyclic(period, at + m)[at:at + m]
    else:
        x = data.draw(st.sampled_from(cuts[1:-1] or [0]), label="seam")
        at = min(max(x - data.draw(st.integers(min_value=0, max_value=m - 1)), 0), J - m)
        needle = bytearray(offs[at:at + m])
        if data.draw(st.booleans(), label="flip one byte"):
            needle[data.draw(st.integers(min_value=0, max_value=m - 1))] ^= 1
    if needle not in oracle._cyclic(period, m):
        assert oracle._seam_find(offs, needle, start, seams) == offs.find(needle, start)

    c = theta.floor_part()
    letters = "".join("b" * (c + o) + "a" for o in needle)
    runs = [len(run) for run in (letters + "b").split("b")[:-1]]
    for word in (letters, words.BlockWord(c, [c + o for o in needle]),
                 words.BlockWord(0, runs, "ab")):
        form = oracle._search_form(word)
        assert (oracle._first_occurrence(word, form, theta, [(s, n)])
                == ref.first_occurrence_letters(*form, theta, [(s, n)]))


@pytest.mark.parametrize("text", ["cf:[1;2]p", "cf:[2;1,3]p", "7/5", "opaque"])
def test_leaf_offsets_derive_one_line_per_denominator(text, monkeypatch):
    # over an exact slope, a search derives (E, F, d, C) and J once for each
    # denominator and length of its rational heights, and reads every height
    # as a fresh search does; heights in the slope's field, and every height
    # of an opaque slope, derive their own line
    theta = (ContinuedFraction(source=SQRT2.coefficient) if text == "opaque"
             else ContinuedFraction.from_text(text))
    val = theta.value()
    starts = [(Fraction(j, 2 ** 20 + 7), n) for n in (300, 5000) for j in (1, 77, 2 ** 19)]
    starts += [(Fraction(j, 9), 5000) for j in (1, 2, 3, 7)]  # 3/9 is 1/3
    if val is not None:
        unit = QuadNum(0, 1, 2) if text == "7/5" else val
        starts += [(Fraction(1, 3) + unit / 5, 5000), (Fraction(2, 3) - unit / 7, 5000)]
    want = [flat._leaf_offsets(theta, s, n, {}) for s, n in starts]
    lines = []
    letter_line = flat._letter_line
    monkeypatch.setattr(flat, "_letter_line", lambda *args: lines.append(args[1:])
                        or letter_line(*args))
    plans = {}
    assert [flat._leaf_offsets(theta, s, n, plans) for s, n in starts] == want
    if val is None:
        assert len(lines) == len(starts)
    else:
        # the first height of each (denominator, n), and each field height
        firsts = (starts[0], starts[3], starts[6], starts[8])
        assert lines == [(s, n) for s, n in starts if isinstance(s, QuadNum) or (s, n) in firsts]


# -- block-space verdicts ----------------------------------------------------------

def _outcome(decide, *args):
    """The certificate, or the type and text of the exception raised."""
    try:
        return decide(*args)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


@st.composite
def _slopes(draw):
    """Quadratic, rational and opaque slopes with integer part 0..3, 7, 254,
    255 or 300, the byte edges often; finite slopes end after one to three
    more coefficients, so that most words outrun their last level."""
    c = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 7, 254, 254, 255, 255, 300]))
    tail = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["quadratic", "rational", "finite", "opaque"]))
    if kind == "rational":
        return ContinuedFraction([c, *tail, *draw(st.lists(st.integers(1, 4), max_size=8))])
    if kind == "finite":
        return ContinuedFraction([c, *tail])
    quadratic = ContinuedFraction.periodic([c], tail)
    return quadratic if kind == "quadratic" else ContinuedFraction(source=quadratic.coefficient)


@st.composite
def _words(draw, theta):
    """Block words over bases c - 1 .. c + 1 in both orientations, 1 to 400
    blocks and at most 4000 letters: leaf-word slices (admissible), perhaps
    with one block flipped, or random blocks; and letter strings: 1 to 400
    letters of a leaf word, perhaps with one letter flipped, or runs of c to
    c + 2 b's."""
    c = theta.floor_part()
    n = draw(st.integers(min_value=1, max_value=400))
    s = Fraction(draw(st.integers(1, 996)), 997)
    skip = draw(st.integers(min_value=0, max_value=300))
    kind = draw(st.sampled_from(["slice", "random", "letters", "run"]))
    if kind == "run":
        return "b" * draw(st.integers(min_value=c, max_value=c + 2))
    if kind == "letters":
        letters = list(oracle.leaf_letter_stream(theta, s, skip + n)[skip:])
        j = draw(st.integers(min_value=-1, max_value=n - 1))  # -1: no flip
        if j >= 0:
            letters[j] = "ab"[letters[j] == "a"]
        return "".join(letters)
    n = min(n, max(1, 4000 // (c + 3)))  # a block holds at most c + 3 letters
    if kind == "slice":
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
    # verdicts on block needles against the letter haystacks: verdict,
    # levels, span and witness, or the same exception, including depth
    # exhaustion, slopes below 1 and block values beyond a byte, for every
    # word form
    word = data.draw(_words(theta))
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
    # integer part 300 or a block of 256 falls back to no letter path: the
    # block offsets decide it as the letter reference does
    wide = ContinuedFraction.from_text("cf:[300;2]p")
    narrow = ContinuedFraction.from_text("cf:[254;1,2]p")
    cases = [(wide, words.inadmissible_word(wide, 2)),
             (wide, ref.revert_flip(words.inadmissible_word(wide, 3))),
             (wide, "b" * 301),
             (narrow, words.BlockWord(255, (255, 256, 255)))]
    want = [ref.is_admissible_letters(word, theta) for theta, word in cases]
    assert [c.verdict for c in want] == ["inadmissible", "admissible", "admissible",
                                         "inadmissible"]
    ref.refuse_letters(monkeypatch)
    assert [oracle.is_admissible(word, theta) for theta, word in cases] == want


def test_torus_block_words_are_decided_on_their_bytes(monkeypatch):
    # segment and inadmissible words never reach a letter haystack: their
    # block offsets are searched in the standard-word block periods
    cases = [(theta, make(theta, k)) for theta in (SQRT2, GOLDEN,
                                                  ContinuedFraction.from_text("cf:[253;1,2]p"))
             for k in (2, 3, 4) for make in (words.inadmissible_word,
                                              lambda t, k: words.inadmissible_segment(t, k).word)]
    want = [ref.is_admissible_letters(word, theta) for theta, word in cases]
    assert {c.verdict for c in want} == {"inadmissible"}
    ref.refuse_letters(monkeypatch)
    assert [oracle.is_admissible(word, theta) for theta, word in cases] == want


def test_oracle_reads_no_letters(monkeypatch):
    # letter strings and "ab" words are decided and sampled on block offsets
    # too: with every letter path refused, verdicts and first occurrences
    # equal the letter reference, slopes below 1 included
    verdicts = [(SQRT2, "bbabba"), (SQRT2, "abbabab"), (GOLDEN, "bbab"),
                (GOLDEN, words.BlockWord(0, (0, 0, 1), "ab")),
                (GOLDEN, words.BlockWord(1, (2, 1, 2), "ab")),
                (ContinuedFraction.from_text("cf:[0;2,1]p"), "ab")]
    want = [_outcome(ref.is_admissible_letters, word, theta) for theta, word in verdicts]
    assert {cert.verdict if isinstance(cert, oracle.AdmissibilityCertificate) else cert[0]
            for cert in want} == {"admissible", "inadmissible", InvalidSlope}

    theta = ContinuedFraction.from_text("cf:[2;1,3]p")
    searches = [(word, seed) for word in ("bbabbbabbab", words.BlockWord(0, (1, 0, 1), "ab"))
                for seed in (None, 3)]
    found = []
    for word, seed in searches:
        heights = oracle.sampling_cross_check("a", theta, 20_000, 8, seed).heights
        found.append(ref.first_occurrence_letters(*oracle._search_form(word), theta,
                                                  ((s, 20_000) for s in heights)))
    assert all(found)

    ref.refuse_letters(monkeypatch)
    assert [_outcome(oracle.is_admissible, word, theta) for theta, word in verdicts] == want
    assert [oracle.sampling_cross_check(word, theta, 20_000, 8, seed).found_at
            for word, seed in searches] == found


def test_block_verdicts_build_no_letters(monkeypatch):
    # a "ba" block word is decided, witness search included, on its stored
    # blocks: with BlockWord.letters refused, every verdict, level, span and
    # witness is unchanged, and the certificate builds its letters on read
    wide = ContinuedFraction.from_text("cf:[300;2]p")
    opaque = ContinuedFraction(source=SQRT2.coefficient)
    cases = [(theta, word) for theta in (SQRT2, GOLDEN, opaque)
             for word in (words.inadmissible_word(theta, 2), words.inadmissible_word(theta, 5),
                          ref.revert_flip(words.inadmissible_word(theta, 4)),
                          words.BlockWord(theta.floor_part(),
                                          oracle.leaf_block_stream(theta, Fraction(2, 9), 40)))]
    cases += [(SQRT2, words.inadmissible_segment(SQRT2, 3).word),
              (wide, words.inadmissible_word(wide, 2)),
              (wide, ref.revert_flip(words.inadmissible_word(wide, 3)))]
    want = [oracle.is_admissible(word, theta) for theta, word in cases]
    assert {c.verdict for c in want} == {"admissible", "inadmissible"}

    def refuse(self):
        raise RuntimeError("letters built")

    monkeypatch.setattr(words.BlockWord, "letters", refuse)
    got = [oracle.is_admissible(word, theta) for theta, word in cases]
    assert [(c.verdict, c.levels, c.block_span, c.witness_height, c.witness_offset)
            for c in got] == [(c.verdict, c.levels, c.block_span, c.witness_height,
                               c.witness_offset) for c in want]
    monkeypatch.undo()
    assert got == want
    assert [c.word for c in got] == [word.letters() for _, word in cases]


@st.composite
def _cylinder_cases(draw):
    """(theta, slope, word): a quadratic theta with integer part 1..3 or 7,
    the slope it is decided at (theta or its opaque copy), and a "ba" block
    word of one of three kinds: random blocks over bases c - 1 .. c + 1, a
    factor of a leaf block stream (perhaps with one block flipped), or an
    ``inadmissible_word``."""
    c = draw(st.sampled_from([1, 1, 2, 3, 7]))
    pre = draw(st.lists(st.integers(min_value=1, max_value=4), max_size=2))
    per = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    theta = ContinuedFraction.periodic([c, *pre], per)
    slope = theta if draw(st.booleans()) else ContinuedFraction(source=theta.coefficient)
    kind = draw(st.sampled_from(["random", "factor", "factor", "inadmissible"]))
    if kind == "inadmissible":
        return theta, slope, words.inadmissible_word(theta, draw(st.integers(2, 6)))
    n = draw(st.integers(min_value=1, max_value=60))
    if kind == "random":
        base = draw(st.integers(min_value=c - 1, max_value=c + 1))
        blocks = draw(st.lists(st.sampled_from([base, base + 1]), min_size=n, max_size=n))
        return theta, slope, words.BlockWord(base, blocks)
    skip = draw(st.integers(min_value=0, max_value=300))
    blocks = oracle.leaf_block_stream(theta, Fraction(draw(st.integers(1, 996)), 997),
                                      skip + n)[skip:]
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        blocks[j] = 2 * c + 1 - blocks[j]
    return theta, slope, words.BlockWord(c, blocks)


@settings(max_examples=150, deadline=None)
@given(_cylinder_cases())
def test_block_verdicts_match_cylinder_intervals(case):
    # the oracle's convergent-level verdict against the O(k) cylinder
    # interval on theta's exact value, at quadratic slopes and their opaque
    # copies; rational slopes stay out, as ties there meet the half-open
    # convention
    theta, slope, word = case
    assert oracle.is_admissible(word, slope).is_admissible == ref.cylinder_admissible(
        word, theta.value())


def test_short_block_verdicts_match_cylinder_intervals():
    # every "ba" word of 1 to 6 blocks over {c, c + 1}, both verdicts met
    wilder = ContinuedFraction.from_text("cf:[2;1,3]p")
    for theta, slope in ((SQRT2, SQRT2), (GOLDEN, ContinuedFraction(source=GOLDEN.coefficient)),
                         (wilder, wilder)):
        c = theta.floor_part()
        verdicts = set()
        for n in range(1, 7):
            for blocks in product((c, c + 1), repeat=n):
                word = words.BlockWord(c, blocks)
                verdict = oracle.is_admissible(word, slope).is_admissible
                assert verdict == ref.cylinder_admissible(word, theta.value()), (theta, blocks)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def test_block_period_is_a_rotation_of_the_simple_word():
    # every reduced p/q with 2 <= q <= 60 and integer part 1..3, and integer
    # parts up to 254 at q <= 12
    slopes = [Fraction(p, q) for q in range(2, 61) for p in range(q + 1, 4 * q)]
    slopes += [Fraction(c * q + j, q) for c in (4, 7, 100, 254)
               for q in range(2, 13) for j in range(1, q)]
    for r in {r for r in slopes if r.denominator > 1}:
        theta = ContinuedFraction.from_rational(r)
        quotients = [theta.coefficient(i) for i in range(theta.length)]
        period = flat._block_values(next(flat._block_periods(quotients, theta.length - 1)),
                                    quotients[0])
        simple = words.simple_word(r, 1).blocks
        assert len(period) == len(simple) and period in simple * 2, r
