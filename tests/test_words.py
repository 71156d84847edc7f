import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from laminath import flat, words
from laminath.cf import ContinuedFraction, q_error
from laminath.errors import (CertificateViolation, InvalidSlope, NotBlockShaped,
                             ParityMismatch, PrecisionExhausted, SingularHit)
from laminath.exactnum import exact_floor
from laminath.ledger import ExoticStage, min_full_window

import reference as ref

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
    assert words.simple_word(Fraction(5, 3), 1).blocks == bytes((2, 2, 1))
    assert words.simple_word(Fraction(5, 3), 3).blocks == bytes((1, 2, 2))
    assert words.simple_word(Fraction(2, 1), 1).blocks == bytes((2,))
    assert words.simple_word(Fraction(7, 5), 5).blocks == bytes((1, 1, 2, 1, 2))


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
    assert any(ref.rotate(base, j).blocks == other.blocks for j in range(q))


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


def _check_against_schedule(r):
    q = r.denominator
    for l1 in range(1, q + 1):
        assert words.simple_word(r, l1).blocks == bytes(_schedule_word(r, l1))


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
    assert words.letters_to_blocks("baba").blocks == bytes((1, 1))
    with pytest.raises(NotBlockShaped):
        words.letters_to_blocks("aBa")
    with pytest.raises(NotBlockShaped):
        words.letters_to_blocks("bbab")  # ends mid-block
    # an entry that is not an integer is no block shape either
    for text in ("(", "(1,x)@ba", "()@ba"):
        with pytest.raises(NotBlockShaped):
            words.BlockWord.parse(text)
    flipped = words.letters_to_blocks("aab ab".replace(" ", ""))
    assert flipped.orientation == "ab" and flipped.blocks == bytes((2, 1))
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
    assert words.letters_to_blocks(w.letters()) == w and w.blocks == bytes(blocks)


# -- Algorithm 2 -----------------------------------------------------------------

def test_inadmissible_word_sqrt2():
    assert words.inadmissible_word(SQRT2, 2).blocks == bytes((1, 1, 2, 1, 1))
    assert words.inadmissible_word(SQRT2, 3).blocks == bytes((2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2))


def test_inadmissible_word_edges():
    for theta in (SQRT2, GOLDEN):
        for k in range(2, 8):
            w = words.inadmissible_word(theta, k)
            n = w.base
            edge = n if k % 2 == 0 else n + 1
            assert w.blocks[0] == edge and w.blocks[-1] == edge
            assert len(w.blocks) == theta.convergent(k).q
            # reverting the flip recovers a convergent word rotation
            rev = ref.revert_flip(w)
            cv = theta.convergent(k)
            base = words.simple_word(Fraction(cv.p, cv.q), 1)
            assert any(ref.rotate(base, j).blocks == rev.blocks
                       for j in range(len(base.blocks)))


def test_inadmissible_word_k_too_small():
    with pytest.raises(IndexError):
        words.inadmissible_word(SQRT2, 1)


# -- Algorithm 3 --------------------------------------------------------------------

def test_segment_sqrt2_k2():
    cert = words.inadmissible_segment(SQRT2, 2)
    assert cert.word.blocks == bytes((1, 1, 2, 1, 1, 2, 1, 2))
    assert cert.word.letter_count == 19
    assert cert.word.letter_count <= 2 * (7 + 5)
    # measure below 3|q theta - p| + 2/q
    assert cert.measure <= cert.bound
    # representative is consistent with the emitted word
    assert ref.path_crossing_word(cert.path) == cert.word.letters()


def test_segment_bounds_both_thetas():
    for theta in (SQRT2, GOLDEN):
        val = theta.value()
        for k in range(2, 9):
            cert = words.inadmissible_segment(theta, k)
            cv = cert.convergent
            assert cert.word.letter_count <= 2 * (cv.p + cv.q)
            assert cert.measure <= 3 * abs(q_error(val, cv)) + Fraction(2, cv.q)
            assert ref.path_crossing_word(cert.path) == cert.word.letters()


@st.composite
def _theta_levels(draw, q_top=3000):
    """A finite or eventually periodic theta > 1 and its levels k >= 2 with
    q_k <= q_top (at least one)."""
    c0 = draw(st.integers(1, 300))
    rest = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 40)), min_size=2,
                         max_size=8))
    if draw(st.booleans()):
        theta = ContinuedFraction([c0, *rest])
    else:
        # at most three period coefficients: exactnum.squarefree_decompose
        # finds the square-free part of a longer period's discriminant by
        # trial division, which can take minutes in theta.value()
        plen = draw(st.integers(1, min(3, len(rest))))
        theta = ContinuedFraction(preperiod=[c0, *rest[:-plen]], period=rest[-plen:])
    levels = []
    try:
        while theta.convergent(len(levels) + 2).q <= q_top:
            levels.append(len(levels) + 2)
    except PrecisionExhausted:
        pass
    assume(levels)
    return theta, levels


@settings(max_examples=40, deadline=None)
@given(_theta_levels(), st.data())
def test_segment_is_the_cutting_sequence_of_its_path(theta_levels, data):
    # reference: the path from height 1/(2q) (1 - 1/(2q) for odd k) along
    # slope p/q, moved by -1/q (+1/q) from x = q - 1 on, read by exact floors
    # at every integer abscissa up to the close-up after B blocks
    theta, levels = theta_levels
    k = data.draw(st.sampled_from(levels))
    cert = words.inadmissible_segment(theta, k)
    p, q = cert.convergent.p, cert.convergent.q
    sign = 1 if k % 2 == 0 else -1
    B = len(cert.word.blocks)
    assert B * p % q == sign % q and q <= B < 2 * q

    def height(x):
        h = Fraction(1, 2 * q) if sign > 0 else 1 - Fraction(1, 2 * q)
        return h + x * Fraction(p, q) - (Fraction(sign, q) if x >= q - 1 else 0)

    floors = [exact_floor(height(x)) for x in range(B + 1)]
    # the hop at x = q - 1 crosses no grid line
    assert exact_floor(height(q - 1) + Fraction(sign, q)) == floors[q - 1]
    assert list(cert.word.blocks) == [b - a for a, b in zip(floors, floors[1:])]
    assert [tuple(v) for v in cert.path.vertices] == [
        (0, height(0)), (q - 1, height(q - 1) + Fraction(sign, q)), (q - 1, height(q - 1)),
        (B, height(B))]
    assert words.inadmissible_word(theta, k).blocks == cert.word.blocks[:q]


def _reference_segment(theta, k, cert):
    """The segment's path, measure and bound by Fraction and QuadNum
    arithmetic, with the path validated by ``FlatPath.validate``."""
    theta_val, cv = theta.value(), cert.convergent
    q, r, B = cv.q, Fraction(cv.p, cv.q), len(cert.word.blocks)
    even = k % 2 == 0
    h0 = Fraction(1, 2 * q) if even else 1 - Fraction(1, 2 * q)
    v0 = flat.FlatPoint(Fraction(0), h0)
    v1 = flat.FlatPoint(Fraction(q - 1), h0 + (q - 1) * r)
    v2 = flat.FlatPoint(v1.x, v1.y + (-Fraction(1, q) if even else Fraction(1, q)))
    v3 = flat.FlatPoint(v2.x + B - (q - 1), v2.y + (B - (q - 1)) * r)
    path = flat.FlatPath([v0, v1, v2, v3], ["start", "leaf", "hop", "leaf"])
    return (path, flat.transverse_measure(path, theta_val),
            3 * abs(q_error(theta_val, cv)) + Fraction(2, q))


@settings(max_examples=60, deadline=None)
@given(_theta_levels(q_top=5000))
def test_integer_segment_matches_the_references(theta_levels):
    # the integer certificate against Fraction/QuadNum arithmetic and the
    # generic lattice check, at every level of both parities up to q_k = 5000:
    # the same values of the same types, and the same path
    theta, levels = theta_levels
    for k in levels:
        cert = words.inadmissible_segment(theta, k)
        path, measure, bound = _reference_segment(theta, k, cert)
        assert cert.path.to_json() == path.to_json()
        assert [tuple(map(type, v)) for v in cert.path.vertices] == [
            tuple(map(type, v)) for v in path.vertices]
        cert.path.validate()
        assert flat.transverse_measure(cert.path, theta.value()) == measure
        assert (cert.measure, type(cert.measure)) == (measure, type(measure))
        assert (cert.bound, type(cert.bound)) == (bound, type(bound))
    for parity in (0, 1):
        indices = [k for k in levels if k % 2 == parity]
        if indices:
            rep = words.exotic_representative(words.exotic_word(theta, indices))
            rep.validate()


def _planted(fault):
    """``_segment_heights`` with one fault planted in the numerators it
    returns: the hop stretched past the nearest grid line beyond its upper
    (even k) or lower (odd k) end, or the end moved off the close-up."""
    heights = words._segment_heights

    def planted(p, q, k, B):
        S, N1, N2, N3 = heights(p, q, k, B)
        if fault == "hop":
            two_q = 2 * q
            N1 = (N1 // two_q + 1) * two_q + 1 if N1 > N2 else N1 // two_q * two_q - 1
        else:
            N3 += 2
        return S, N1, N2, N3
    return planted


@pytest.mark.parametrize("fault, message", [("hop", "segment hop meets a grid line"),
                                            ("close-up", "does not close up")])
@pytest.mark.parametrize("theta", [SQRT2, GOLDEN], ids=["sqrt2", "golden"])
def test_integer_segment_check_catches_planted_faults(monkeypatch, theta, fault, message):
    # the word is read from S and N2 alone, which neither fault moves, so the
    # integer check is what refuses the path
    monkeypatch.setattr(words, "_segment_heights", _planted(fault))
    for k in range(2, 10):
        with pytest.raises(CertificateViolation, match=message):
            words.inadmissible_segment(theta, k)


def test_integer_segment_check_refuses_a_leaf_through_the_lattice():
    # every height moved up by 1/(2q): the numerators turn even and the first
    # leaf meets a lattice point, as the reference validation confirms
    cert = words.inadmissible_segment(SQRT2, 4)
    p, q, B = cert.convergent.p, cert.convergent.q, len(cert.word.blocks)
    moved = [n + 1 for n in words._segment_heights(p, q, 4, B)]
    with pytest.raises(CertificateViolation, match="segment leaf meets the lattice"):
        words._check_segment_heights(q, *moved)
    with pytest.raises(SingularHit):
        flat.FlatPath([flat.FlatPoint(v.x, v.y + Fraction(1, 2 * q))
                       for v in cert.path.vertices])


def test_integer_segment_checks_hold_under_python_O():
    # the checks are statements, not asserts, so -O keeps them: the planted
    # faults still raise (pytest.raises needs no assert)
    import os
    import subprocess
    import sys
    test = f"{__file__}::test_integer_segment_check_catches_planted_faults"
    run = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          test], env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                         capture_output=True, text=True)
    assert run.returncode == 0 and "4 passed" in run.stdout, run.stdout + run.stderr


def test_connector_check_catches_a_planted_lattice_start():
    # a stage whose representative starts on a grid line puts its connector's
    # end on the lattice, which the O(1) connector check refuses
    ew = words.exotic_word(SQRT2, (2, 4))
    st2 = ew.stages[1]
    cert = st2.certificate
    moved = flat.FlatPath([flat.FlatPoint(Fraction(0), Fraction(0))] + cert.path.vertices[1:],
                          cert.path.markers, validate=False)
    planted = words.SegmentCertificate(cert.k, cert.convergent, cert.word, moved, cert.measure,
                                       cert.bound)
    ew.stages[1] = ExoticStage(st2.level, planted, st2.connector, st2.partial_measure,
                               st2.partial_bound)
    with pytest.raises(SingularHit, match="connector"):
        words.exotic_representative(ew)


def test_path_words_reject_slopes_below_one():
    theta = ContinuedFraction.from_text("cf:[0;2]p")
    for make in (words.inadmissible_word, words.inadmissible_segment):
        with pytest.raises(InvalidSlope) as exc:
            make(theta, 2)
        assert str(exc.value) == "slope must be > 1, got 2/5"


def test_block_words_reject_negative_blocks():
    # a negative base read letters its letter count did not match
    for base, blocks in ((-1, (-1, 0)), (-2, (-2, -1)), (-1, (-1,))):
        with pytest.raises(ValueError):
            words.BlockWord(base, blocks)
    with pytest.raises(ValueError):
        words.BlockWord.parse("(-1,0)@ba")
    assert words.BlockWord(0, (0, 1, 0)).letters() == "abaa"


_BASES = (0, 1, 2, 3, 253, 254, 255, 300)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BASES), st.integers(min_value=0, max_value=39),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=60), st.sampled_from(["ba", "ab"]))
def test_kernel_and_tuple_block_words_agree(c, p, q, S, J, orientation):
    # blocks of the line (c + p/q) j + S/q off the window kernel, c up to 300,
    # against the same blocks given as a tuple of ints: one word either way
    p %= q
    offsets, c0 = flat._window_blocks(c * q + p, 0, S, 0, 2, q, J)
    assert c0 == c
    kernel_blocks = flat._block_values(offsets, c)
    values = tuple(c + o for o in offsets)
    base = min(values)
    kernel, plain = (words.BlockWord(base, kernel_blocks, orientation),
                     words.BlockWord(base, values, orientation))
    assert kernel == plain and hash(kernel) == hash(plain)
    assert type(kernel.blocks) is type(plain.blocks) is (bytes if base < 255 else tuple)
    assert list(kernel.blocks) == list(values) and len(kernel) == len(plain) == J
    text = kernel.serialize()
    assert text == plain.serialize() == "(" + ",".join(map(str, values)) + ")@" + orientation
    assert words.BlockWord.parse(text) == kernel
    run, mark = orientation
    letters = "".join(run * n + mark for n in values)
    assert kernel.letters() == plain.letters() == letters
    assert kernel.letter_count == plain.letter_count == len(letters)


@pytest.mark.parametrize("base", _BASES)
def test_block_words_refuse_blocks_off_the_base(base):
    # the same ValueError in the byte form and the wide one
    message = re.escape(f"blocks must lie in {{{base},{base + 1}}}")
    bad = [(base + 2,), (base, base + 1, base + 2), (256,), (-1,), (base, 1.5), (base, "x")]
    bad += [(base - 1, base)] if base else []
    for blocks in bad:
        if set(blocks) <= {base, base + 1}:
            continue
        with pytest.raises(ValueError, match=message):
            words.BlockWord(base, blocks)
    with pytest.raises(ValueError, match="must be nonempty"):
        words.BlockWord(base, b"")


def test_torus_words_keep_block_bytes():
    # segment words, inadmissible words, simple words and exotic words keep
    # their blocks as bytes below base 255, and the wide ones as tuples
    narrow = (SQRT2, GOLDEN, ContinuedFraction.periodic([7], [3, 1, 5]),
              ContinuedFraction.from_text("cf:[253;1,2]p"))
    wide = ContinuedFraction.from_text("cf:[300;2]p")
    for theta in (*narrow, wide):
        form = tuple if theta is wide else bytes
        for k in (2, 3, 4, 5):
            for word in (words.inadmissible_word(theta, k),
                         words.inadmissible_segment(theta, k).word):
                assert type(word.blocks) is form, (theta, k)
        ew = words.exotic_word(theta, [2, 4, 6])
        assert type(ew.blocks()) is form
        assert list(ew.blocks()) == [b for stage in ew.stages
                                     for b in stage.certificate.word.blocks]
    for r in (Fraction(7, 5), Fraction(2), Fraction(254 * 3 + 1, 3), Fraction(256 * 2 + 1, 2)):
        form = bytes if r < 255 else tuple
        assert type(words.simple_word(r, 1).blocks) is form, r


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
    with pytest.raises(InvalidSlope):
        words.cusp_exotic_word(lazy, (1, 1, 1))


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


def test_exotic_representative_measure_matches_ledger():
    val = SQRT2.value()
    for indices in ((2, 4), (2, 4, 6), (3, 5)):
        ew = words.exotic_word(SQRT2, indices)
        rep = words.exotic_representative(ew)
        assert flat.transverse_measure(rep, val) == ew.total_measure
        # and the crossing word of the whole path matches the emitted letters
        assert ref.path_crossing_word(rep) == ew.letters()


def test_min_full_segment_window():
    ew = words.exotic_word(SQRT2, (2, 4, 6))
    lengths = [len(st.certificate.word.blocks) for st in ew.stages]
    need = min_full_window(ew.stages)
    assert need == max(lengths[0], lengths[-1], lengths[0] + lengths[1],
                       lengths[1] + lengths[2])


# -- cusp construction -------------------------------------------------------------------

def test_cusp_word_first_stages():
    stages = words.cusp_exotic_word(SQRT2, (1, 1))
    assert stages[0].word.blocks == bytes((1, 2))
    assert stages[0].letters == "babba" + "BAba"
    letters = words.cusp_word_letters(stages)
    assert letters.startswith("babbaBAba")
    assert "A" in letters and "B" in letters
    assert all(x.swapcase() != y for x, y in zip(letters, letters[1:]))   # reduced


def test_cusp_measure_ledger_exact():
    stages = words.cusp_exotic_word(SQRT2, (1, 2, 1))
    val = SQRT2.value()
    total = Fraction(0)
    for st_, cv in zip(stages, SQRT2.convergents(3)[1:]):
        total = total + abs(q_error(val, cv))
        assert st_.partial_measure == total


def test_cusp_representative_measure():
    stages = words.cusp_exotic_word(SQRT2, (1, 1, 1))
    path = ref.cusp_representative(SQRT2, 3)
    val = SQRT2.value()
    assert flat.transverse_measure(path, val) == stages[-1].partial_measure


def test_cusp_loop_counts_positive():
    with pytest.raises(ValueError, match="loop counts must be positive"):
        words.cusp_exotic_word(SQRT2, (1, 0, 1))
