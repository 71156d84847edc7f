"""Workload ``torus-exotic``: inadmissible segments and exotic words on the torus.

For each seeded quadratic slope theta > 1 and each same-parity index k with
q_k < Q_CAP, one operation verifies the convergents up to k, builds the
measured segment certificate, certifies its lattice clearance and asks the
admissibility oracle for a verdict on its word.  One more operation per slope
concatenates those segments into an exotic word and builds its piecewise
representative.  ``words``, ``flat`` and ``exactnum`` do nearly all the work.
"""

from __future__ import annotations

from fractions import Fraction

import gen
from harness import Op

NAME = "torus-exotic"
SETUP_UNITS = 5
CALIBRATE = True
MIN_PASSES = 3
TAIL_PCT = 92
CHILD_RSS = False


def inputs(seed: int) -> list:
    return gen.torus_inputs(seed)


def setup(inp: list, tracer, unit=None):
    """Parse every slope (``unit`` is ignored: the whole set-up is cheap)."""
    from laminath.cf import ContinuedFraction
    with tracer.span("cf.from_text"):
        return [(ContinuedFraction.from_text(s["theta"]), s) for s in inp]


def _segment_op(theta, k: int, q: int) -> Op:
    from laminath import flat, oracle, words

    def call(tr):
        with tr.span("cf.convergents"):
            cvs = theta.convergents(k)
        tr.count("cf.levels", k + 1)
        with tr.span("words.inadmissible_segment") as sid:
            cert = words.inadmissible_segment(theta, k)
        if tr.on:
            with tr.span("flat.validate", parent=sid):
                flat.FlatPath(cert.path.vertices, cert.path.markers)
            with tr.span("flat.transverse_measure", parent=sid):
                flat.transverse_measure(cert.path, theta.value())
            tr.count("words.segment_letters", cert.word.letter_count)
        with tr.span("flat.homotopy_clearance"):
            clearance = flat.homotopy_clearance(cert.start_height, theta, k)
        with tr.span("oracle.is_admissible"):
            verdict = oracle.is_admissible(cert.word, theta)
        return cvs, cert, clearance, verdict

    def check(res):
        cvs, cert, clearance, verdict = res
        cv = cert.convergent
        bad = []
        if cvs[-1].q != q or (cv.p, cv.q) != (cvs[-1].p, cvs[-1].q):
            bad.append(f"k={k}: convergent q_k={cvs[-1].q}, expected {q}")
        if flat.transverse_measure(cert.path, theta.value()) != cert.measure:
            bad.append(f"k={k}: path measure differs from the certificate")
        if not cert.measure <= cert.bound:
            bad.append(f"k={k}: measure exceeds bound")
        if not cert.word.letter_count <= 2 * (cv.p + cv.q):
            bad.append(f"k={k}: word longer than 2(p+q)")
        if verdict.verdict != "inadmissible":
            bad.append(f"k={k}: verdict {verdict.verdict}")
        if len(clearance.agreements) != cv.q - 1:
            bad.append(f"k={k}: clearance covers {len(clearance.agreements)} of {cv.q - 1}")
        return bad

    return Op("segment", call, lambda res: res[1].word.letter_count, check)


def _exotic_op(theta, ks: list) -> Op:
    from laminath import flat, words

    def call(tr):
        with tr.span("words.exotic_word"):
            ew = words.exotic_word(theta, ks)
        with tr.span("words.exotic_representative") as sid:
            rep = words.exotic_representative(ew)
        if tr.on:
            with tr.span("flat.validate", parent=sid):
                flat.FlatPath(rep.vertices, rep.markers)
        return ew, rep

    def check(res):
        ew, rep = res
        bad = []
        if ew.kept_indices != list(ks):
            bad.append(f"kept {ew.kept_indices} of {ks}")
        if flat.transverse_measure(rep, theta.value()) != ew.total_measure:
            bad.append("representative measure differs from the ledger")
        if any(not st.partial_measure <= st.partial_bound for st in ew.stages):
            bad.append("ledger exceeds its bound")
        return bad

    def letters(res):
        return sum(st.certificate.word.letter_count for st in res[0].stages)

    return Op("exotic", call, letters, check)


def ops(state) -> list:
    out = []
    for theta, s in state:
        for k, q in zip(s["indices"], s["q"]):
            out.append(_segment_op(theta, k, q))
        out.append(_exotic_op(theta, s["indices"]))
    return out


def operands(state, results) -> list:
    """Exact values from the workload's own certificates."""
    out = []
    for res in results:
        if isinstance(res, tuple) and len(res) == 4:
            cert = res[1]
            out += [cert.measure, cert.bound, cert.path.vertices[1].y,
                    Fraction(cert.convergent.p, cert.convergent.q)]
    return out
