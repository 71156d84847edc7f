"""laminath command line: exact words, measures, and surface dynamics.

All exact values are serialized as strings ("7/5", "2-1*sqrt2"), never as
decimals; a float annotation is included where a magnitude is useful for
plotting.  Identical configuration and seed produce byte-identical output.

Exit codes: 0 success, 2 precondition or usage errors, 3 precision/depth/
budget exhaustion.  ``json`` is imported only where JSON is read or written.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from fractions import Fraction

from .errors import EXHAUSTION_ERRORS, LaminathError, MemoryExhausted
from .exactnum import format_exact, parse_exact


def _exact(parse, positive=False):
    """An option type reading ``parse(text)``: malformed text is reported as
    "--theta: cannot parse '1/0' (...)", a LaminathError keeps its code, and
    with ``positive`` a value <= 0 is "--t-max: must be > 0, got 0"."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r} ({exc})") from None
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    return convert


def _ints(low=None, many=False):
    """An option type reading an integer, or comma-separated integers as a
    tuple if ``many``, each at least ``low`` when it is given."""
    def convert(text: str):
        values = tuple(int(t) for t in text.split(",") if t.strip()) if many else (int(text),)
        for item in values:
            if low is not None and item < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {item}")
        return values if many else values[0]
    convert.__name__ = "int"  # a malformed entry reads "invalid int value: '2,x'"
    return convert


def _continued_fraction(text: str):
    """``ContinuedFraction.from_text``; ``cf`` is imported on the first call,
    so a surface subcommand loads no torus module."""
    from .cf import ContinuedFraction
    return ContinuedFraction.from_text(text)


def _direction(text: str) -> str:
    """``vertical`` or an exact slope, kept as text: the growth artifact echoes it."""
    if text != "vertical":
        _exact(parse_exact)(text)
    return text


def _word_doc(block_word, measure=None, **extra) -> dict:
    doc = {"alphabet": "abAB", "letters": block_word.letters(),
           "blocks": list(block_word.blocks), "base": block_word.base,
           "orientation": block_word.orientation, **extra}
    if measure is not None:
        doc.update(measure=format_exact(measure), measure_float=float(measure))
    return doc


def _surface_from(cfg: argparse.Namespace):
    """The surface --surface names: a preset or a JSON document."""
    from . import tsurface
    if cfg.surface in tsurface.SURFACE_PRESETS:
        return tsurface.preset_surface(cfg.surface)
    import json
    with open(cfg.surface) as fh:
        return tsurface.load_surface(json.load(fh))


# -- subcommand handlers ---------------------------------------------------------

def cmd_convergents(cfg: argparse.Namespace):
    cvs = cfg.theta.convergents(cfg.k)
    return {"theta": cfg.theta.to_text(),
            "convergents": [{"k": c.k, "p": c.p, "q": c.q} for c in cvs]}


def cmd_simple_word(cfg: argparse.Namespace):
    from . import words
    w = words.simple_word(cfg.slope, cfg.start)
    return _word_doc(w, slope=str(cfg.slope), start=cfg.start, serialized=w.serialize())


def cmd_inadmissible(cfg: argparse.Namespace):
    from . import words
    w = words.inadmissible_word(cfg.theta, cfg.k)
    return _word_doc(w, theta=cfg.theta.to_text(), k=cfg.k, serialized=w.serialize())


def cmd_segment(cfg: argparse.Namespace):
    from . import words
    cert = words.inadmissible_segment(cfg.theta, cfg.k)
    return _word_doc(cert.word, cert.measure, theta=cfg.theta.to_text(), k=cfg.k,
                     letter_count=cert.word.letter_count,
                     letter_bound=2 * (cert.convergent.p + cert.convergent.q),
                     bound=format_exact(cert.bound), path=cert.path.to_json())


def _ledger(stage) -> dict:
    """An exotic stage's exact measure ledger, on the torus or a surface."""
    return {key: format_exact(value) for key, value in (
        ("measure", stage.certificate.measure), ("connector", stage.connector),
        ("partial_measure", stage.partial_measure), ("partial_bound", stage.partial_bound))}


def cmd_exotic(cfg: argparse.Namespace):
    from . import words
    ew = words.exotic_word(cfg.theta, cfg.indices, thin=cfg.thin)
    stages = [{"index": st.level, "blocks": st.certificate.B, **_ledger(st)}
              for st in ew.stages]
    blocks = ew.blocks(cfg.prefix_blocks)
    letters = words.BlockWord(min(blocks), blocks).letters() if blocks else ""
    return {"alphabet": "abAB", "theta": cfg.theta.to_text(),
            "kept": ew.kept_indices, "skipped": ew.skipped_indices,
            "stages": stages, "blocks": list(blocks), "letters": letters,
            "measure": format_exact(ew.total_measure),
            "measure_float": float(ew.total_measure)}


def cmd_cusp_exotic(cfg: argparse.Namespace):
    from . import words
    stages = words.cusp_exotic_word(cfg.theta, cfg.loops)
    return {"alphabet": "abAB", "theta": cfg.theta.to_text(),
            "letters": words.cusp_word_letters(stages),
            "stages": [{"k": st.k, "word": st.word.serialize(),
                        "loops": st.loop_count,
                        "partial_measure": format_exact(st.partial_measure)}
                       for st in stages]}


def cmd_cut(cfg: argparse.Namespace):
    from . import flat
    letters = flat.cutting_sequence(cfg.s, cfg.theta, cfg.letters)
    return {"alphabet": "ab", "start": format_exact(cfg.s),
            "theta": cfg.theta.to_text(), "letters": letters}


def cmd_measure(cfg: argparse.Namespace):
    import json
    from . import flat
    with open(cfg.path) as fh:
        path = flat.FlatPath.from_json(json.load(fh))
    value = flat.transverse_measure(path, cfg.theta.value())
    return {"measure": format_exact(value), "measure_float": float(value),
            "normalized_float": flat.transverse_measure(path, cfg.theta.value(),
                                                        normalized=True)}


_SAMPLE_HEIGHTS = 100


def cmd_admissible(cfg: argparse.Namespace):
    from . import oracle, words
    query = words.BlockWord.parse(cfg.word) if cfg.word.startswith("(") else cfg.word
    if cfg.sample_letters:  # refuse a sample too short for the word before deciding it
        oracle.sampling_form(query, cfg.sample_letters, _SAMPLE_HEIGHTS)
    cert = oracle.is_admissible(query, cfg.theta, cfg.depth)
    doc = {"word": cert.word, "verdict": cert.verdict, "aligned": cert.aligned,
           "levels": list(cert.levels), "block_span": cert.block_span}
    if cert.witness_height is not None:
        doc["witness"] = {"height": str(cert.witness_height),
                          "offset": cert.witness_offset}
    if cfg.sample_letters:
        rep = oracle.sampling_cross_check(query, cfg.theta,
                                          num_letters=cfg.sample_letters,
                                          heights=_SAMPLE_HEIGHTS, seed=cfg.seed)
        doc["sampling"] = {"absent": rep.absent,
                           "letters_per_height": rep.letters_per_height,
                           "heights": len(rep.heights)}
    return doc


def cmd_factors(cfg: argparse.Namespace):
    from . import oracle
    if cfg.slope is not None:
        fs = oracle.rational_factors(cfg.slope, cfg.m)
        return {"slope": str(fs.slope), "length": fs.length,
                "count": len(fs.factors), "factors": sorted(fs.factors)}
    if cfg.theta is None:
        raise ValueError("the following arguments are required: --theta (or --slope)")
    count = oracle.factor_count(cfg.theta, cfg.m, cfg.depth)
    return {"theta": cfg.theta.to_text(), "length": cfg.m, "count": count}


def cmd_growth(cfg: argparse.Namespace):
    from . import flat
    if cfg.mode == "linear":
        direction = "vertical" if cfg.direction == "vertical" else parse_exact(cfg.direction)
        t_max = Fraction(16) if cfg.t_max is None else cfg.t_max
        rows = flat.linear_growth_probe(cfg.theta, direction, t_max, cfg.samples)
        table = [{"t": format_exact(r.t), "I": format_exact(r.measure)} for r in rows]
        doc = {"mode": "linear", "direction": cfg.direction}
    else:
        f = {"sqrt": math.sqrt, "log": math.log1p}[cfg.f_name]
        path, rows = flat.prescribed_growth_path(cfg.theta, f, cfg.segments, t_cap=cfg.t_max)
        table = [{"t": format_exact(r.t), "I": format_exact(r.measure),
                  "f": repr(r.target)} for r in rows]
        doc = {"mode": "prescribed", "f": cfg.f_name, "path": path.to_json()}
    csv = "t,I\n" + "".join(f"{r['t']},{r['I']}\n" for r in table)
    return {**doc, "table": table, "csv": csv}


def cmd_ts_validate(cfg: argparse.Namespace):
    S = _surface_from(cfg)
    return {"polygons": len(S.polygons),
            "edge_pairs": len(S.pairs),
            "boundary_edges": len(S.boundary_slots),
            "euler_characteristic": S.euler_characteristic,
            "genus": S.genus,
            "vertex_classes": len(S.vertex_classes),
            "horizontal_cylinder_decomposition":
                S.horizontal_is_cylinder_decomposition()}


def cmd_ts_return_map(cfg: argparse.Namespace):
    from . import tsurface
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    doc = {"edge": cfg.edge,
           "intervals": [{"lo": format_exact(iv.lo), "hi": format_exact(iv.hi),
                          "shift": format_exact(iv.shift),
                          "word": S.word_labels(iv.word)}
                         for iv in trans.return_map().intervals]}
    if cfg.tau is not None:
        t2, w = tsurface.first_return(trans, cfg.tau, cfg.n)
        doc["orbit"] = {"tau": format_exact(cfg.tau), "n": cfg.n,
                        "image": format_exact(t2), "word": S.word_labels(w)}
    return doc


def cmd_ts_partition(cfg: argparse.Namespace):
    from . import tsurface
    S = _surface_from(cfg)
    part = tsurface.return_partition(S, cfg.edge, cfg.n)
    return {"edge": cfg.edge, "depth": part.depth,
            "max_length": format_exact(part.max_length),
            "max_length_float": float(part.max_length),
            "intervals": [{"lo": format_exact(iv.lo), "hi": format_exact(iv.hi),
                           "word": S.word_labels(iv.word)}
                          for iv in part.intervals]}


def cmd_ts_loop(cfg: argparse.Namespace):
    from . import tsurface
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    cert = tsurface.build_inadmissible_loop(S, trans, cfg.k, return_budget=cfg.budget)
    # the loop's path: a leaf from Q to T^depth(Q), a hop to R, a leaf from R
    # back near Q and a hop home
    ends = [{"poly": p.poly, "x": format_exact(p.x), "y": format_exact(p.y)}
            for p in map(trans.point, (cert.tau_Q, cert.tau_return, cert.tau_R,
                                       cert.tau_close, cert.tau_Q))]
    return {"level": cert.level, "depth": cert.depth,
            "word": S.word_labels(cert.word),
            "factor": S.word_labels(cert.factor),
            "measure": format_exact(cert.measure),
            "measure_float": float(cert.measure),
            "measure_constant": format_exact(cert.measure_constant),
            "tau_P": format_exact(cert.tau_P), "tau_Q": format_exact(cert.tau_Q),
            "word_I": S.word_labels(cert.word_I),
            "word_I2": S.word_labels(cert.word_I2),
            "max_gap": format_exact(cert.max_gap),
            "gap_bound": format_exact(cert.gap_bound),
            "path": [list(event) for event in zip(("leaf", "hop") * 2, ends, ends[1:],
                                                  (cert.depth, 0, cert.closing_depth, 0))]}


def cmd_ts_exotic(cfg: argparse.Namespace):
    from . import tsurface
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    levels = cfg.levels if cfg.prefix is None else cfg.levels[:cfg.prefix]
    stages = tsurface.synthesize_exotic(S, trans, levels, thin=cfg.thin)
    return {"edge": cfg.edge,
            "stages": [{"level": st.level, "word": S.word_labels(st.certificate.word),
                        **_ledger(st)} for st in stages]}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError("--k: invalid int value: 'abc'")."""

    def error(self, message):
        raise ValueError(message.removeprefix("argument "))


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option and default; each subcommand's
    parser sets ``handler``, the function ``run`` calls with the namespace."""
    # --emit/--out/--seed are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", default=argparse.SUPPRESS,
                        help="text, json, csv, or a .json output path")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the artifact to a file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    top = _Parser(prog="laminath", description=__doc__)
    top.add_argument("--emit", default="text")
    top.add_argument("--out", default=None)
    top.add_argument("--seed", type=int, default=None)
    sub = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name, handler, subparsers=sub, parent=common, **options):
        p = subparsers.add_parser(name, parents=[parent])
        p.set_defaults(handler=handler)
        for arg, opts in options.items():
            p.add_argument(f"--{arg.replace('_', '-')}", **opts)

    theta = {"type": _exact(_continued_fraction), "required": True}
    exact, count = {"type": _exact(parse_exact)}, {"type": _ints(0)}
    add("convergents", cmd_convergents, theta=theta, k={**count, "default": 8})
    add("simple-word", cmd_simple_word, slope={"type": _exact(Fraction), "required": True},
        start={"type": int, "default": 1})
    add("inadmissible", cmd_inadmissible, theta=theta, k={"type": int, "default": 2})
    add("segment", cmd_segment, theta=theta, k={"type": int, "default": 2})
    add("exotic", cmd_exotic, theta=theta,
        indices={"type": _ints(0, many=True), "default": ()},
        prefix_blocks={**count, "default": None}, thin={"action": "store_true"})
    add("cusp-exotic", cmd_cusp_exotic, theta=theta,
        loops={"type": _ints(many=True), "default": (1, 1, 1)})
    add("cut", cmd_cut, theta=theta, start={**exact, "dest": "s", "required": True},
        letters={**count, "default": 64})
    add("measure", cmd_measure, theta=theta, path={"required": True})
    add("admissible", cmd_admissible, theta=theta, word={"required": True},
        depth={**count, "default": 24}, sample_letters={**count, "default": 0})
    add("factors", cmd_factors, theta={**theta, "required": False},
        slope={"type": _exact(Fraction)}, m={**count, "default": 3},
        depth={**count, "default": 24})
    add("growth", cmd_growth, theta=theta,
        mode={"choices": ["linear", "prescribed"], "default": "linear"},
        direction={"type": _direction, "default": "vertical"},
        f={"dest": "f_name", "choices": ["sqrt", "log"], "default": "sqrt"},
        t_max={"type": _exact(Fraction, positive=True)},
        samples={**count, "default": 8}, segments={**count, "default": 6})

    ts = sub.add_parser("ts")
    ts_sub = ts.add_subparsers(dest="ts_command", metavar="COMMAND", required=True)
    surface = argparse.ArgumentParser(add_help=False, parents=[common])
    surface.add_argument("--surface", required=True,
                         help="preset name (sheared-torus, slit-tori) or JSON file")

    def add_ts(name, handler, **options):
        add(name, handler, ts_sub, surface, **options)

    add_ts("validate", cmd_ts_validate)
    add_ts("return-map", cmd_ts_return_map, edge={"type": int, "default": 0},
           tau=exact, n={**count, "default": 1})
    add_ts("partition", cmd_ts_partition, edge={"type": int, "default": 0},
           n={**count, "default": 4})
    add_ts("loop", cmd_ts_loop, edge={"type": int, "default": 0},
           k={**count, "default": 3}, budget={"type": _ints(1)})
    add_ts("exotic", cmd_ts_exotic, edge={"type": int, "default": 0},
           levels={"type": _ints(0, many=True), "default": (1, 2, 3)},
           prefix=count, thin={"action": "store_true"})
    # usage errors name the subcommand slot COMMAND; --help lists its choices
    for subparsers in (sub, ts_sub):
        subparsers.help = "one of " + ", ".join(subparsers.choices)
    return top


def _render_text(doc, out):
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            out.write(f"{key}:\n")
            for row in value:
                cells = " ".join(f"{k}={row[k]}" for k in sorted(row))
                out.write(f"  {cells}\n")
        else:
            out.write(f"{key}: {value}\n")


def _fail(exc: Exception) -> int:
    """Write ``exc`` to stderr as one JSON line; returns the exit status."""
    import json
    code = exc.code if isinstance(exc, LaminathError) else "invalid-input"
    sys.stderr.write(json.dumps({"error": code, "detail": str(exc)}, sort_keys=True) + "\n")
    return 3 if isinstance(exc, EXHAUSTION_ERRORS) else 2


def run(config: argparse.Namespace) -> int:
    """Dispatch one parsed configuration; returns the process exit status."""
    try:
        doc = config.handler(config)
    except (LaminathError, ValueError, IndexError, KeyError, OSError) as exc:
        return _fail(exc)
    except MemoryError:
        return _fail(MemoryExhausted("out of memory; ask for a lower level or less output"))
    if config.emit == "csv" and "csv" in doc:
        text = doc["csv"]
    elif config.emit == "json":
        import json
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        _render_text({k: v for k, v in doc.items() if k != "csv"}, buf)
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def config_from_args(argv) -> argparse.Namespace:
    config = build_parser().parse_args(argv)
    if config.emit not in ("text", "json", "csv"):
        # "--emit cert.json" writes a JSON artifact to that path
        config.out, config.emit = config.emit, "json"
    return config


def main(argv=None) -> int:
    try:
        config = config_from_args(argv if argv is not None else sys.argv[1:])
    except (ValueError, LaminathError) as exc:  # a usage error or malformed value
        return _fail(exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
