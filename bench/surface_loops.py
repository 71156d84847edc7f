"""Workload ``surface-loops``: inadmissible loops on translation surfaces.

Both bundled fixtures are sheared by three seeded quadratic shears gamma in
(0, 1): ``sheared_torus_doc(gamma)`` (2 exchange intervals, transversal edge
1) and ``slit_tori_doc(gamma)`` (5 intervals, transversal edge 5).  One
operation is one ``build_inadmissible_loop`` at a level k in 2..5; one more
operation per surface runs ``synthesize_exotic`` over that surface's cached
certificates.

Loop cost and size depend strongly and irregularly on the shear, so shears
are drawn from a catalog profiled at the seed commit and a draw is kept only
when its loops add up to the same work as every other run's (``gen.py``).
"""

from __future__ import annotations

from fractions import Fraction

import gen
from harness import Op

NAME = "surface-loops"
SETUP_UNITS = 3
CALIBRATE = True
MIN_PASSES = 3
TAIL_PCT = gen.SURFACE_TAIL_PCT
CHILD_RSS = False

FIXTURES = (("sheared-torus", "sheared_torus_doc", 1),
            ("slit-tori", "slit_tori_doc", 5))


def inputs(seed: int) -> dict:
    return gen.surface_inputs(seed)


def _setup_surface(fixture, gamma_text: str, tr):
    from laminath import tsurface
    from laminath.cf import ContinuedFraction
    _name, doc_fn, edge = fixture
    gamma = ContinuedFraction.from_text(gamma_text).value()
    with tr.span("tsurface.load_surface"):
        surface = tsurface.load_surface(getattr(tsurface, doc_fn)(gamma))
    with tr.span("tsurface.Transversal"):
        trans = tsurface.Transversal(surface, edge)
    with tr.span("tsurface.return_map"):
        trans.return_map()
    with tr.span("tsurface.non_saddle_cut"):
        trans.non_saddle_cut()
    return surface, trans


def setup(inp: dict, tracer, unit=None):
    """Both fixtures for every shear, or for shear ``unit`` only (one set-up
    sample).  Returns the surfaces and an empty certificate cache."""
    shears = range(len(inp["shears"])) if unit is None else [unit % len(inp["shears"])]
    surfaces = {(f, i): _setup_surface(fixture, inp["shears"][i], tracer)
                for f, fixture in enumerate(FIXTURES) for i in shears}
    return {"inp": inp, "surfaces": surfaces, "certs": {key: {} for key in surfaces}}


def _loop_op(state: dict, f: int, i: int, k: int) -> Op:
    from laminath import tsurface
    surface, trans = state["surfaces"][(f, i)]
    depth_seen = []

    def call(tr):
        with tr.span("tsurface.build_inadmissible_loop"):
            cert = tsurface.build_inadmissible_loop(surface, trans, k)
        tr.count("tsurface.loop_depth", cert.depth)
        state["certs"][(f, i)][k] = cert
        return cert

    def check(cert):
        bad = []
        if not cert.measure < 3 * trans.height * Fraction(1, 2 ** k):
            bad.append(f"k={k}: measure not below 3|e_y|/2^k")
        if cert.factor not in cert.word:
            bad.append(f"k={k}: factor not in word")
        if not cert.max_gap < cert.gap_bound:
            bad.append(f"k={k}: max_gap not below gap_bound")
        if depth_seen and depth_seen[0] != cert.depth:
            bad.append(f"k={k}: depth {cert.depth} differs from {depth_seen[0]}")
        depth_seen.append(cert.depth)
        return bad

    return Op(f"loop.{FIXTURES[f][0]}", call, lambda c: len(c.word), check)


def _synth_op(state: dict, f: int, i: int, levels: list) -> Op:
    from laminath import tsurface
    surface, trans = state["surfaces"][(f, i)]

    def call(tr):
        with tr.span("tsurface.synthesize_exotic"):
            return tsurface.synthesize_exotic(surface, trans, levels,
                                              certificates=state["certs"][(f, i)])

    def check(stages):
        bad = []
        if [st.level for st in stages] != levels:
            bad.append(f"levels {[st.level for st in stages]} != {levels}")
        if any(not st.partial_measure <= st.partial_bound for st in stages):
            bad.append("ledger exceeds its bound")
        return bad

    return Op(f"synth.{FIXTURES[f][0]}", call,
              lambda stages: sum(len(st.certificate.word) for st in stages), check)


def ops(state: dict) -> list:
    levels = state["inp"]["levels"]
    loops = [_loop_op(state, f, i, k) for (f, i) in state["surfaces"] for k in levels]
    return loops + [_synth_op(state, f, i, levels) for (f, i) in state["surfaces"]]


def operands(state, results) -> list:
    out = []
    for res in results:
        if hasattr(res, "tau_Q"):
            out += [res.measure, res.tau_Q, res.tau_return, res.max_gap]
    return out
