"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every quantitative assertion is exact field arithmetic unless a
criterion explicitly names a float comparison (the prescribed-growth targets,
whose tolerance is 1).
"""

import json
import math
from fractions import Fraction

from laminath import flat, ledger, oracle, tsurface as ts, words
from laminath.cf import ContinuedFraction, q_error
from laminath.exactnum import QuadNum, exact_floor

from reference import cutting_blocks, revert_flip, rotate, run_cli, sample_leaf_words

SQRT2 = ContinuedFraction.sqrt2()
GOLDEN = ContinuedFraction.golden()
THETAS = {"sqrt2": SQRT2, "golden": GOLDEN}


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# 1 ---------------------------------------------------------------------------

def test_criterion_01_convergent_inequality():
    ok = True
    for name, theta in THETAS.items():
        val = theta.value()
        cvs = theta.convergents(26)
        for k in range(26):
            err = abs(q_error(val, cvs[k]))
            ok &= err < Fraction(1, cvs[k + 1].q)
        # brute-force minimality for q_k <= 200 (k >= 1: with c_1 = 1 the
        # zeroth convergent shares its denominator with a strictly better
        # approximation, e.g. the golden ratio at q = 1)
        for cv in cvs[1:]:
            if cv.q > 200:
                break
            best = abs(q_error(val, cv))
            for q in range(1, cv.q + 1):
                p0 = exact_floor(val * q)
                for p in (p0, p0 + 1):
                    ok &= abs(q * val - p) >= best
    _report(1, ok, "convergent inequality exact in Q(sqrt2), Q(sqrt5), "
                   "k <= 25; minimality brute-forced for q_k <= 200")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_simple_word_vs_cutting_period():
    from math import gcd
    checked = 0
    ok = True
    for q in range(1, 60):
        for p in range(q + 1, 60 - q + 1):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            theta = ContinuedFraction.from_rational(r)
            period = cutting_blocks(Fraction(1, 2 * q), theta, q)
            base = words.simple_word(r, 1)
            rotations = {rotate(base, j) for j in range(q)}
            ok &= words.BlockWord(base.base, period) in rotations
            for l1 in range(1, q + 1):
                ok &= words.simple_word(r, l1) in rotations
                checked += 1
    _report(2, ok, f"simple words match cutting-sequence periods up to "
                   f"rotation for all coprime p > q, p + q <= 60 "
                   f"({checked} start choices), exact equality")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_sturmian_windows():
    q8 = SQRT2.convergent(8).q
    blocks = cutting_blocks(Fraction(1, 4), SQRT2, q8)
    ok = True
    for k in range(2, 9):
        cv = SQRT2.convergent(k)
        base = words.simple_word(Fraction(cv.p, cv.q), 1)
        rotations = {rotate(base, j) for j in range(cv.q)}
        ok &= words.BlockWord(base.base, blocks[:cv.q]) in rotations
    _report(3, ok, "first q_k blocks of the sqrt2 leaf from height 1/4 are "
                   "convergent-word rotations for 2 <= k <= 8, exact")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_inadmissibility():
    ok = True
    for name, theta in THETAS.items():
        streams = [s for _tau, s in _leaf_streams(theta)]
        for k in range(2, 11):
            bad = words.inadmissible_word(theta, k)
            cert = oracle.is_admissible(bad, theta, k_max=16)
            ok &= cert.verdict == "inadmissible"
            letters = bad.letters()
            anchored = letters[-1] + letters
            for s in streams:
                ok &= not s.startswith(letters) and anchored not in s
            good = revert_flip(bad)
            cert2 = oracle.is_admissible(good, theta, k_max=16)
            ok &= cert2.verdict == "admissible"
            ok &= cert2.witness_height is not None
            # witness re-check against an independently generated stream
            w_letters = good.letters()
            stream = oracle.leaf_letter_stream(theta, cert2.witness_height,
                                               cert2.witness_offset + len(w_letters))
            ok &= stream[cert2.witness_offset:] == w_letters
            if cert2.witness_offset > 0:
                ok &= stream[cert2.witness_offset - 1] == w_letters[-1]
    _report(4, ok, "flipped-cycle words rejected by the decision procedure "
                   "and by 100 x 1e5-letter sampling; revert flips accepted "
                   "with re-checked witnesses (sqrt2, golden; 2 <= k <= 10)")


_STREAM_CACHE = {}


def _leaf_streams(theta, num_letters=100_000, heights=100):
    key = (id(theta), num_letters, heights)
    if key not in _STREAM_CACHE:
        hs = [Fraction(j, heights + 1) for j in range(1, heights + 1)]
        _STREAM_CACHE[key] = [(s, oracle.leaf_letter_stream(theta, s, num_letters))
                              for s in hs]
    return _STREAM_CACHE[key]


# 5 ---------------------------------------------------------------------------

def fitted_segment_constant(theta, k_max=12):
    C = Fraction(0)
    for k in range(2, k_max + 1):
        cert = words.inadmissible_segment(theta, k)
        C = max(C, cert.measure * cert.convergent.q)
    return C


def test_criterion_05_segment_bounds():
    ok = True
    for name, theta in THETAS.items():
        val = theta.value()
        measures = {}
        for k in range(2, 13):
            cert = words.inadmissible_segment(theta, k)
            cv = cert.convergent
            ok &= cert.word.letter_count <= 2 * (cv.p + cv.q)
            ok &= cert.measure <= 3 * abs(q_error(val, cv)) + Fraction(2, cv.q)
            measures[k] = (cert.measure, cv.q)
        C = max(m * q for m, q in measures.values())
        ok &= all(m <= C / q for m, q in measures.values())
    _report(5, ok, "segment letter count <= 2(p_k + q_k) and exact measure "
                   "<= 3|q_k theta - p_k| + 2/q_k for k <= 12; single fitted "
                   "C with measure <= C/q_k")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_exotic_word():
    ok = True
    for name, theta in THETAS.items():
        C = fitted_segment_constant(theta)
        indices = (2, 4, 6, 8, 10, 12)
        ew = words.exotic_word(theta, indices)
        inv_q = sum(Fraction(1, theta.convergent(i).q) for i in indices)
        ok &= ew.total_measure <= 2 * C * inv_q
        # every window of 2 q_12 blocks contains a full segment, whose head
        # is the oracle-certified inadmissible cycle
        L = 2 * theta.convergent(12).q
        ok &= ledger.min_full_window(ew.stages) <= L
        for i in indices:
            head = words.inadmissible_word(theta, i)
            ok &= oracle.is_admissible(head, theta, k_max=16).verdict == "inadmissible"
            cert = ew.stages[indices.index(i)].certificate
            ok &= cert.word.blocks[:len(head.blocks)] == head.blocks
        # spot-check window coverage arithmetic directly
        lengths = [len(st.certificate.word.blocks) for st in ew.stages]
        starts = [0]
        for l in lengths:
            starts.append(starts[-1] + l)
        total = starts[-1]
        for x in (0, 1, lengths[0], total - L, (total - L) // 2):
            if 0 <= x <= total - L:
                ok &= any(starts[j] >= x and starts[j + 1] <= x + L
                          for j in range(len(lengths)))
        # distinct-tail comparison under the exact measure signature
        a = words.exotic_word(theta, (2, 6, 10))
        b = words.exotic_word(theta, (4, 8, 12))
        ok &= ledger.tail_measure_signature(a.stages) != ledger.tail_measure_signature(b.stages)
        thinned = words.exotic_word(theta, indices, thin=True)
        for j, st in enumerate(thinned.stages):
            tail = ledger.tail_measure_signature(thinned.stages, j + 1)
            ok &= st.certificate.measure > 3 * tail
    _report(6, ok, "exotic prefix ledger <= 2C sum 1/q_i exactly; every "
                   "2 q_12-block window contains a certified inadmissible "
                   "factor; disjoint-tail sequences have distinct exact "
                   "measure signatures")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_factor_complexity():
    stream = _leaf_streams(SQRT2)[0][1]
    ok = True
    for m in range(1, 41):
        count = oracle.factor_count(SQRT2, m)
        found = {stream[i:i + m] for i in range(len(stream) - m)}
        ok &= count == len(found) == m + 1
        ok &= count <= 4 * (m + 1) ** 2  # a fixed polynomial bound
    _report(7, ok, "factor_count(sqrt2, m) = m + 1 for m <= 40, matching "
                   "exhaustive enumeration from a 1e5-letter certified prefix")


# 8 ---------------------------------------------------------------------------

def test_criterion_08_return_map_equivalence():
    S = ts.preset_surface("sheared-torus")
    tr = ts.Transversal(S, 1)
    gamma = QuadNum(-1, 1, 2)
    ok = True
    for i in range(1, 10001):
        tau = Fraction(i, 10001)
        expect = tau + gamma
        if expect >= 1:
            expect = expect - 1
        got, _ = ts.first_return(tr, tau)
        ok &= got == expect
    _report(8, ok, "first return on the sheared torus equals rotation by "
                   "sqrt2 - 1 for 10^4 exact points, exact equality")


# 9 ---------------------------------------------------------------------------

def test_criterion_09_level_set_partition():
    ok = True
    for name, trans_pair in (("sheared-torus", 1), ("slit-tori", 5)):
        S = ts.preset_surface(name)
        tr = ts.Transversal(S, trans_pair)
        iet = tr.return_map()
        prev = None
        depth1_max = None
        for n in range(1, 13):
            part = ts.return_partition(S, tr, n)
            if n == 1:
                depth1_max = part.max_length
            if prev is not None:
                ok &= part.max_length <= prev
            prev = part.max_length
            for iv in part.intervals:
                third = iv.length / 3
                ok &= iet.orbit_word(iv.lo + third, n)[1] == iv.word
                ok &= iet.orbit_word(iv.hi - third, n)[1] == iv.word
            for left, right in zip(part.intervals, part.intervals[1:]):
                ok &= left.word != right.word
        deep = ts.return_partition(S, tr, 64)
        ok &= deep.max_length < depth1_max / 10
    _report(9, ok, "level sets constant per interval and distinct across "
                   "cuts for n <= 12; max interval non-increasing and below "
                   "a tenth of the depth-1 maximum by n = 64, both fixtures")


# 10 --------------------------------------------------------------------------

def test_criterion_10_general_inadmissible_loops():
    ok = True
    for name, trans_pair in (("sheared-torus", 1), ("slit-tori", 5)):
        S = ts.preset_surface(name)
        tr = ts.Transversal(S, trans_pair)
        certs = []
        for k in range(2, 9):
            cert = ts.build_inadmissible_loop(S, tr, k)
            certs.append(cert)
            # single constant per (surface, edge): 3 |e_y|
            ok &= cert.measure_constant == 3 * tr.height
            ok &= cert.measure < cert.measure_constant * Fraction(1, 2 ** k)
        for _tau, stream in sample_leaf_words(S, tr, 100_000, 100):
            for cert in certs:
                ok &= cert.word not in stream
                ok &= cert.factor not in stream
    _report(10, ok, "loop certificates at k = 2..8 on two fixtures have "
                    "measure < c/2^k for the single constant c = 3|e_y|; "
                    "words absent from 100 x 1e5-crossing leaf samples")


# 11 --------------------------------------------------------------------------

def test_criterion_11_flat_growth():
    ok = True
    rows = flat.linear_growth_probe(SQRT2, Fraction(1, 3), 16, 16)
    unit = rows[0].measure / rows[0].t
    for r1, r2 in zip(rows, rows[1:]):
        ok &= r2.measure - r1.measure == (r2.t - r1.t) * unit
    rows_v = flat.linear_growth_probe(SQRT2, "vertical", 16, 8)
    ok &= all(r.measure == r.t for r in rows_v)
    for f in (math.sqrt, math.log1p):
        _path, table = flat.prescribed_growth_path(SQRT2, f, 6)
        ok &= len(table) == 6
        for row in table:
            ok &= abs(float(row.measure) - row.target) <= 1
    _report(11, ok, "linear probes exactly proportional; prescribed-growth "
                    "paths satisfy sup |I - f| <= 1 at joints for sqrt t and "
                    "log(1 + t)")


# 12 --------------------------------------------------------------------------

def test_criterion_12_cli_determinism():
    battery = [
        ["--emit", "json", "convergents", "--theta", "cf:[1;2]p", "--k", "12"],
        ["--emit", "json", "exotic", "--theta", "cf:[1;2]p",
         "--indices", "2,4,6", "--prefix-blocks", "64"],
        ["--emit", "json", "--seed", "5", "admissible", "--theta", "cf:[1;1]p",
         "--word", "(1,1)@ba", "--sample-letters", "5000"],
        ["--emit", "csv", "growth", "--theta", "cf:[1;2]p", "--mode",
         "prescribed", "--f", "log", "--segments", "4"],
        ["--emit", "json", "ts", "loop", "--surface", "slit-tori", "--k", "4"],
        ["--emit", "json", "ts", "partition", "--surface", "sheared-torus",
         "--n", "6"],
        ["--emit", "json", "cusp-exotic", "--theta", "cf:[1;2]p",
         "--loops", "1,2,1"],
    ]
    ok = True
    for argv in battery:
        c1, out1, _ = run_cli(argv)
        c2, out2, _ = run_cli(argv)
        ok &= c1 == 0 and c2 == 0 and out1.encode() == out2.encode()
    _report(12, ok, "CLI artifacts byte-identical across repeated runs with "
                    "identical config and seed")
