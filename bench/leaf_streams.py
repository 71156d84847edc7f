"""Workload ``leaf-streams``: exact leaf words, streamed forward.

Per seeded slope theta > 1 and start height s, one pass runs: the numpy leaf
stream ``oracle.leaf_letter_stream``; an exact ``flat.cutting_sequence``
prefix; an admissibility verdict on a factor of that stream; and, for the
flipped (inadmissible) word at index 4, a verdict and a sampling cross-check.
Per seeded shear gamma it runs long ``ReturnMapIET.letter_stream`` orbits on
both fixtures and exact ``tsurface.first_return`` flows.

This is the IET kernel of ``surface-loops`` used differently: forward
streaming only, with no cut table.  It also holds both Sturmian kernels.
"""

from __future__ import annotations

from fractions import Fraction

import gen
from harness import Op

NAME = "leaf-streams"
SETUP_UNITS = 5
CALIBRATE = True
MIN_PASSES = 3
TAIL_PCT = 92
CHILD_RSS = False

FIXTURES = (("sheared-torus", "sheared_torus_doc", 1),
            ("slit-tori", "slit_tori_doc", 5))


def inputs(seed: int) -> dict:
    return gen.leaf_inputs(seed)


def setup(inp: dict, tracer, unit=None):
    """Parse slopes, build flipped words and load both fixtures per shear
    (``unit`` is ignored: the whole set-up is cheap)."""
    from laminath import tsurface, words
    from laminath.cf import ContinuedFraction
    slopes = []
    for s in inp["slopes"]:
        theta = ContinuedFraction.from_text(s["theta"])
        with tracer.span("words.inadmissible_word"):
            flips = {k: words.inadmissible_word(theta, k) for k in gen.FLIP_INDICES}
        slopes.append((theta, s, flips))
    shears = []
    for sh in inp["shears"]:
        gamma_cf = ContinuedFraction.from_text(sh["gamma"])
        built = []
        for _name, doc_fn, edge in FIXTURES:
            with tracer.span("tsurface.load_surface"):
                surface = tsurface.load_surface(
                    getattr(tsurface, doc_fn)(gamma_cf.value()))
            with tracer.span("tsurface.Transversal"):
                trans = tsurface.Transversal(surface, edge)
            with tracer.span("tsurface.return_map"):
                trans.return_map()
            built.append(trans)
        shears.append((gamma_cf, sh, built))
    return {"slopes": slopes, "shears": shears,
            "sampling_seed": inp["sampling_seed"]}


# -- references for the checks (untimed, independent code paths) ---------------------

def _reference_sheared(gamma_cf, tau: Fraction, trans) -> str:
    """The sheared torus returns by rotation: interval j = floor((j+1)g+t) -
    floor(jg+t), read off the oracle's block stream with theta = gamma."""
    from laminath import oracle
    iet = trans.return_map()
    words = [iv.word + iet.arrival_letter for iv in iet.intervals]
    blocks = oracle.leaf_block_stream(gamma_cf, tau, gen.IET_LETTERS)
    return "".join(words[b] for b in blocks)[:gen.IET_LETTERS]


def _reference_exact_steps(trans, tau, num_letters: int) -> str:
    """Leaf word by exact QuadNum interval lookups (ReturnMapIET.step)."""
    iet = trans.return_map()
    out = []
    total = 0
    while total < num_letters:
        tau, iv = iet.step(tau)
        out.append(iv.word + iet.arrival_letter)
        total += len(out[-1])
    return "".join(out)[:num_letters]


# -- operations ---------------------------------------------------------------------

def _stream_op(theta, s: Fraction, ref: dict) -> Op:
    from laminath import oracle

    def call(tr):
        with tr.span("oracle.leaf_letter_stream"):
            stream = oracle.leaf_letter_stream(theta, s, gen.STREAM_LETTERS)
        tr.count("oracle.stream_letters", len(stream))
        return stream

    def check(stream):
        ref.setdefault("stream", stream)
        bad = []
        if len(stream) != gen.STREAM_LETTERS or set(stream) - {"a", "b"}:
            bad.append("stream has the wrong length or alphabet")
        if stream != ref["stream"]:
            bad.append("stream differs between passes")
        return bad

    return Op("leaf_letter_stream", call, len, check)


def _cut_op(theta, s: Fraction, ref: dict) -> Op:
    from laminath import flat

    def call(tr):
        with tr.span("flat.cutting_sequence"):
            cut = flat.cutting_sequence(s, theta, gen.CUT_LETTERS)
        tr.count("flat.cut_letters", len(cut))
        return cut

    def check(cut):
        if "stream" in ref and ref["stream"].startswith(cut) and len(cut) == gen.CUT_LETTERS:
            return []
        return ["cutting_sequence is not a prefix of leaf_letter_stream"]

    return Op("cutting_sequence", call, len, check)


def _factor_op(theta, ref: dict, start: int, length: int) -> Op:
    from laminath import oracle

    def call(tr):
        word = ref["stream"][start:start + length]
        with tr.span("oracle.is_admissible"):
            return oracle.is_admissible(word, theta)

    def check(cert):
        return [] if cert.verdict == "admissible" else [
            f"stream factor at {start} judged {cert.verdict}"]

    return Op("factor_verdict", call, lambda c: len(c.word), check)


def _flip_op(theta, k: int, word) -> Op:
    from laminath import oracle

    def call(tr):
        with tr.span("cf.convergents"):
            cvs = theta.convergents(k)
        tr.count("cf.levels", k + 1)
        with tr.span("oracle.is_admissible"):
            return cvs, oracle.is_admissible(word, theta)

    def check(res):
        cvs, cert = res
        bad = []
        if len(word.blocks) != cvs[-1].q:
            bad.append(f"flipped word at k={k} has {len(word.blocks)} blocks, q_k={cvs[-1].q}")
        if cert.verdict != "inadmissible":
            bad.append(f"flipped word at k={k} judged {cert.verdict}")
        return bad

    return Op("flip_verdict", call, lambda res: len(res[1].word), check)


def _sampling_op(theta, k: int, word, seed: int) -> Op:
    from laminath import oracle

    def call(tr):
        with tr.span("oracle.sampling_cross_check"):
            rep = oracle.sampling_cross_check(word, theta, gen.SAMPLING_LETTERS,
                                              gen.SAMPLING_HEIGHTS, seed)
        tr.count("oracle.sampling_letters", gen.SAMPLING_LETTERS * len(rep.heights))
        return rep

    def check(rep):
        return [] if rep.absent else [f"flipped word at k={k} found at {rep.found_at}"]

    return Op("sampling_cross_check", call,
              lambda rep: rep.letters_per_height * len(rep.heights), check)


def _iet_stream_op(trans, tau: Fraction, fixture: str, reference: str) -> Op:
    def call(tr):
        iet = trans.return_map()
        with tr.span("tsurface.letter_stream"):
            stream = iet.letter_stream(tau, gen.IET_LETTERS)
        tr.count("tsurface.stream_letters", len(stream))
        return stream

    def check(stream):
        if len(stream) == gen.IET_LETTERS and stream.startswith(reference):
            return []
        return [f"{fixture} letter_stream differs from the exact reference"]

    return Op(f"iet_stream.{fixture}", call, len, check)


def _flow_op(trans, tau: Fraction, n: int, fixture: str, expect) -> Op:
    from laminath import tsurface

    def call(tr):
        with tr.span("tsurface.first_return"):
            res = tsurface.first_return(trans, tau, n)
        tr.count("tsurface.flow_steps", len(res[1]) + 1)
        return res

    def check(res):
        got_tau, got_word = res
        want_tau, want_word = expect
        bad = []
        if got_tau != want_tau:
            bad.append(f"{fixture} first_return lands at {got_tau}, not {want_tau}")
        if want_word is not None and got_word != want_word:
            bad.append(f"{fixture} first_return word differs from orbit_word")
        return bad

    return Op(f"first_return.{fixture}", call, lambda res: len(res[1]), check)


def ops(state) -> list:
    from laminath.exactnum import frac_part
    out = []
    for theta, s, flips in state["slopes"]:
        ref: dict = {}
        out.append(_stream_op(theta, s["s"], ref))
        out.append(_cut_op(theta, s["s"], ref))
        out += [_factor_op(theta, ref, a, n) for a, n in s["factors"]]
        for k, word in flips.items():
            out.append(_flip_op(theta, k, word))
            out.append(_sampling_op(theta, k, word, state["sampling_seed"] + k))
    for gamma_cf, sh, (sheared, slit) in state["shears"]:
        tau, tau_f = sh["tau"], sh["tau_flow"]
        out.append(_iet_stream_op(sheared, tau, "sheared-torus",
                                  _reference_sheared(gamma_cf, tau, sheared)))
        out.append(_iet_stream_op(slit, tau, "slit-tori",
                                  _reference_exact_steps(slit, tau, 4000)))
        n = gen.FLOW_RETURNS["sheared-torus"]
        out.append(_flow_op(sheared, tau_f, n, "sheared-torus",
                            (frac_part(tau_f + n * gamma_cf.value()), None)))
        n = gen.FLOW_RETURNS["slit-tori"]
        out.append(_flow_op(slit, tau_f, n, "slit-tori",
                            slit.return_map().orbit_word(tau_f, n)))
    return out


def operands(state, results) -> list:
    """Slopes, start heights, shears and edge parameters of this run."""
    out = []
    for theta, s, _flips in state["slopes"]:
        out += [theta.value(), s["s"]]
    for gamma_cf, sh, _fixtures in state["shears"]:
        out += [gamma_cf.value(), sh["tau"], sh["tau_flow"]]
    return out
