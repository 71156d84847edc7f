"""laminath command line: exact words, measures, and surface dynamics.

All exact values are serialized as strings ("7/5", "2-1*sqrt2"), never as
decimals; a float annotation is included where a magnitude is useful for
plotting.  Identical configuration and seed produce byte-identical output.

Exit codes: 0 success, 2 precondition or usage errors, 3 precision/depth/
budget exhaustion.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import flat, oracle, tsurface, words
from .cf import ContinuedFraction
from .errors import EXHAUSTION_ERRORS, LaminathError
from .exactnum import format_exact, parse_exact


def _parse(flag: str, parse, text: str):
    """``parse(text)`` for option --flag; malformed text names the option."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--{flag}: cannot parse {text!r} ({exc})") from None


def _at_least(cfg: argparse.Namespace, name: str, low: int):
    """The integer option ``name`` (each entry of a list), unset or at least ``low``."""
    value = getattr(cfg, name)
    for item in value if isinstance(value, tuple) else (value,):
        if item is not None and item < low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {item}")
    return value


def _theta(cfg: argparse.Namespace) -> ContinuedFraction:
    if cfg.theta is None:  # only `factors` leaves --theta optional (for --slope)
        raise ValueError("the following arguments are required: --theta (or --slope)")
    return _parse("theta", ContinuedFraction.from_text, cfg.theta)


def _word_doc(block_word, measure=None, **extra) -> dict:
    doc = {"alphabet": "abAB", "letters": block_word.letters(),
           "blocks": list(block_word.blocks), "base": block_word.base,
           "orientation": block_word.orientation, **extra}
    if measure is not None:
        doc.update(measure=format_exact(measure), measure_float=float(measure))
    return doc


def _surface_from(cfg: argparse.Namespace) -> tsurface.TranslationSurface:
    if cfg.surface in tsurface.SURFACE_PRESETS:
        return tsurface.preset_surface(cfg.surface)
    with open(cfg.surface) as fh:
        return tsurface.load_surface(json.load(fh))


# -- subcommand handlers ---------------------------------------------------------

def cmd_convergents(cfg: argparse.Namespace):
    theta = _theta(cfg)
    cvs = theta.convergents(_at_least(cfg, "k", 0))
    return {"theta": theta.to_text(),
            "convergents": [{"k": c.k, "p": c.p, "q": c.q} for c in cvs]}


def cmd_simple_word(cfg: argparse.Namespace):
    r = _parse("slope", Fraction, cfg.slope)
    w = words.simple_word(r, cfg.start)
    return _word_doc(w, slope=str(r), start=cfg.start, serialized=w.serialize())


def cmd_inadmissible(cfg: argparse.Namespace):
    theta = _theta(cfg)
    w = words.inadmissible_word(theta, cfg.k)
    return _word_doc(w, theta=theta.to_text(), k=cfg.k, serialized=w.serialize())


def _tagged_path(path) -> dict:
    """The path's JSON, its field defaulting to $LAMINATH_FIELD."""
    doc = path.to_json()
    if doc.get("field") is None and os.environ.get("LAMINATH_FIELD"):
        doc["field"] = os.environ["LAMINATH_FIELD"]
    return doc


def cmd_segment(cfg: argparse.Namespace):
    theta = _theta(cfg)
    cert = words.inadmissible_segment(theta, cfg.k)
    return _word_doc(cert.word, cert.measure, theta=theta.to_text(), k=cfg.k,
                     letter_count=cert.word.letter_count,
                     letter_bound=2 * (cert.convergent.p + cert.convergent.q),
                     bound=format_exact(cert.bound), path=_tagged_path(cert.path))


def _ledger(stage) -> dict:
    """An exotic stage's exact measure ledger, on the torus or a surface."""
    return {key: format_exact(value) for key, value in (
        ("measure", stage.certificate.measure), ("connector", stage.connector),
        ("partial_measure", stage.partial_measure), ("partial_bound", stage.partial_bound))}


def cmd_exotic(cfg: argparse.Namespace):
    theta = _theta(cfg)
    prefix_blocks = _at_least(cfg, "prefix_blocks", 0)
    ew = words.exotic_word(theta, _at_least(cfg, "indices", 0), thin=cfg.thin)
    stages = [{"index": st.level, "blocks": len(st.certificate.word.blocks), **_ledger(st)}
              for st in ew.stages]
    blocks = ew.blocks()
    letters = ew.letters()
    if prefix_blocks is not None:
        blocks = blocks[:prefix_blocks]
        letters = words.BlockWord(min(blocks), blocks).letters() if blocks else ""
    return {"alphabet": "abAB", "theta": theta.to_text(),
            "kept": ew.kept_indices, "skipped": ew.skipped_indices,
            "stages": stages, "blocks": list(blocks), "letters": letters,
            "measure": format_exact(ew.total_measure),
            "measure_float": float(ew.total_measure)}


def cmd_cusp_exotic(cfg: argparse.Namespace):
    theta = _theta(cfg)
    stages = words.cusp_exotic_word(theta, cfg.loops)
    return {"alphabet": "abAB", "theta": theta.to_text(),
            "letters": words.cusp_word_letters(stages),
            "stages": [{"k": st.k, "word": st.word.serialize(),
                        "loops": st.loop_count,
                        "partial_measure": format_exact(st.partial_measure)}
                       for st in stages]}


def cmd_cut(cfg: argparse.Namespace):
    theta = _theta(cfg)
    s = _parse("start", parse_exact, cfg.s)
    letters = flat.cutting_sequence(s, theta, _at_least(cfg, "letters", 0))
    return {"alphabet": "ab", "start": format_exact(s),
            "theta": theta.to_text(), "letters": letters}


def cmd_measure(cfg: argparse.Namespace):
    theta = _theta(cfg)
    with open(cfg.path) as fh:
        path = flat.FlatPath.from_json(json.load(fh))
    value = flat.transverse_measure(path, theta.value())
    return {"measure": format_exact(value), "measure_float": float(value),
            "normalized_float": flat.transverse_measure(path, theta.value(),
                                                        normalized=True)}


def cmd_admissible(cfg: argparse.Namespace):
    theta = _theta(cfg)
    depth = _at_least(cfg, "depth", 0)
    sample_letters = _at_least(cfg, "sample_letters", 0)
    query = words.BlockWord.parse(cfg.word) if cfg.word.startswith("(") else cfg.word
    cert = oracle.is_admissible(query, theta, depth)
    doc = {"word": cert.word, "verdict": cert.verdict, "aligned": cert.aligned,
           "levels": list(cert.levels), "block_span": cert.block_span}
    if cert.witness_height is not None:
        doc["witness"] = {"height": str(cert.witness_height),
                          "offset": cert.witness_offset}
    if sample_letters:
        rep = oracle.sampling_cross_check(query, theta,
                                          num_letters=sample_letters,
                                          heights=100, seed=cfg.seed)
        doc["sampling"] = {"absent": rep.absent,
                           "letters_per_height": rep.letters_per_height,
                           "heights": len(rep.heights)}
    return doc


def cmd_factors(cfg: argparse.Namespace):
    _at_least(cfg, "m", 0)
    _at_least(cfg, "depth", 0)
    if cfg.slope:
        fs = oracle.rational_factors(_parse("slope", Fraction, cfg.slope), cfg.m)
        return {"slope": str(fs.slope), "length": fs.length,
                "count": len(fs.factors), "factors": sorted(fs.factors)}
    theta = _theta(cfg)
    count = oracle.factor_count(theta, cfg.m, cfg.depth)
    return {"theta": theta.to_text(), "length": cfg.m, "count": count}


def cmd_growth(cfg: argparse.Namespace):
    theta = _theta(cfg)
    t_max = _parse("t-max", Fraction, cfg.t_max)
    samples = _at_least(cfg, "samples", 0)
    segments = _at_least(cfg, "segments", 0)
    if cfg.mode == "linear":
        direction = ("vertical" if cfg.direction == "vertical"
                     else _parse("direction", parse_exact, cfg.direction))
        rows = flat.linear_growth_probe(theta, direction, t_max, samples)
        table = [{"t": format_exact(r.t), "I": format_exact(r.measure)} for r in rows]
        doc = {"mode": "linear", "direction": cfg.direction}
    else:
        f = {"sqrt": math.sqrt, "log": math.log1p}[cfg.f_name]
        path, rows = flat.prescribed_growth_path(theta, f, segments,
                                                 t_cap=t_max if t_max > 16 else None)
        table = [{"t": format_exact(r.t), "I": format_exact(r.measure),
                  "f": repr(r.target)} for r in rows]
        doc = {"mode": "prescribed", "f": cfg.f_name, "path": _tagged_path(path)}
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
    n = _at_least(cfg, "n", 0)
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    doc = {"edge": cfg.edge,
           "intervals": [{"lo": format_exact(iv.lo), "hi": format_exact(iv.hi),
                          "shift": format_exact(iv.shift),
                          "word": S.word_labels(iv.word)}
                         for iv in trans.return_map().intervals]}
    if cfg.tau is not None:
        tau = _parse("tau", parse_exact, cfg.tau)
        t2, w = tsurface.first_return(trans, tau, n)
        doc["orbit"] = {"tau": format_exact(tau), "n": n,
                        "image": format_exact(t2), "word": S.word_labels(w)}
    return doc


def cmd_ts_partition(cfg: argparse.Namespace):
    S = _surface_from(cfg)
    part = tsurface.return_partition(S, cfg.edge, _at_least(cfg, "n", 0))
    return {"edge": cfg.edge, "depth": part.depth,
            "max_length": format_exact(part.max_length),
            "max_length_float": float(part.max_length),
            "intervals": [{"lo": format_exact(iv.lo), "hi": format_exact(iv.hi),
                           "word": S.word_labels(iv.word)}
                          for iv in part.intervals]}


def cmd_ts_loop(cfg: argparse.Namespace):
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    cert = tsurface.build_inadmissible_loop(S, trans, _at_least(cfg, "k", 0),
                                            return_budget=_at_least(cfg, "budget", 1))
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
            "path": [[kind,
                      {"poly": p0.poly, "x": format_exact(p0.x), "y": format_exact(p0.y)},
                      {"poly": p1.poly, "x": format_exact(p1.x), "y": format_exact(p1.y)},
                      extra]
                     for kind, p0, p1, extra in cert.path_events]}


def cmd_ts_exotic(cfg: argparse.Namespace):
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    levels = _at_least(cfg, "levels", 0)
    if _at_least(cfg, "prefix", 0) is not None:
        levels = tuple(levels)[:cfg.prefix]
    stages = tsurface.synthesize_exotic(S, trans, levels, thin=cfg.thin)
    return {"edge": cfg.edge,
            "stages": [{"level": st.level, "word": S.word_labels(st.certificate.word),
                        **_ledger(st)} for st in stages]}


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip() != "")


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

    add("convergents", cmd_convergents, theta={"required": True},
        k={"type": int, "default": 8})
    add("simple-word", cmd_simple_word, slope={"required": True},
        start={"type": int, "default": 1})
    add("inadmissible", cmd_inadmissible, theta={"required": True},
        k={"type": int, "default": 2})
    add("segment", cmd_segment, theta={"required": True}, k={"type": int, "default": 2})
    add("exotic", cmd_exotic, theta={"required": True},
        indices={"type": _int_list, "default": ()},
        prefix_blocks={"type": int, "default": None},
        thin={"action": "store_true"})
    add("cusp-exotic", cmd_cusp_exotic, theta={"required": True},
        loops={"type": _int_list, "default": (1, 1, 1)})
    add("cut", cmd_cut, theta={"required": True}, start={"dest": "s", "required": True},
        letters={"type": int, "default": 64})
    add("measure", cmd_measure, theta={"required": True}, path={"required": True})
    add("admissible", cmd_admissible, theta={"required": True}, word={"required": True},
        depth={"type": int, "default": 24},
        sample_letters={"type": int, "default": 0})
    add("factors", cmd_factors, theta={"default": None}, slope={"default": None},
        m={"type": int, "default": 3}, depth={"type": int, "default": 24})
    add("growth", cmd_growth, theta={"required": True},
        mode={"choices": ["linear", "prescribed"], "default": "linear"},
        direction={"default": "vertical"},
        f={"dest": "f_name", "choices": ["sqrt", "log"], "default": "sqrt"},
        t_max={"default": "16"}, samples={"type": int, "default": 8},
        segments={"type": int, "default": 6})

    ts = sub.add_parser("ts")
    ts_sub = ts.add_subparsers(dest="ts_command", metavar="COMMAND", required=True)
    surface = argparse.ArgumentParser(add_help=False, parents=[common])
    surface.add_argument("--surface", required=True,
                         help="preset name (sheared-torus, slit-tori) or JSON file")

    def add_ts(name, handler, **options):
        add(name, handler, ts_sub, surface, **options)

    add_ts("validate", cmd_ts_validate)
    add_ts("return-map", cmd_ts_return_map, edge={"type": int, "default": 0},
           tau={"default": None}, n={"type": int, "default": 1})
    add_ts("partition", cmd_ts_partition, edge={"type": int, "default": 0},
           n={"type": int, "default": 4})
    add_ts("loop", cmd_ts_loop, edge={"type": int, "default": 0},
           k={"type": int, "default": 3},
           budget={"type": int, "default": None})
    add_ts("exotic", cmd_ts_exotic, edge={"type": int, "default": 0},
           levels={"type": _int_list, "default": (1, 2, 3)},
           prefix={"type": int, "default": None},
           thin={"action": "store_true"})
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
    code = exc.code if isinstance(exc, LaminathError) else "invalid-input"
    sys.stderr.write(json.dumps({"error": code, "detail": str(exc)}, sort_keys=True) + "\n")
    return 3 if isinstance(exc, EXHAUSTION_ERRORS) else 2


def run(config: argparse.Namespace) -> int:
    """Dispatch one parsed configuration; returns the process exit status."""
    try:
        doc = config.handler(config)
    except (LaminathError, ValueError, IndexError, KeyError, OSError) as exc:
        return _fail(exc)
    if config.emit == "csv" and "csv" in doc:
        text = doc["csv"]
    elif config.emit == "json":
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
    except ValueError as exc:  # a usage error
        return _fail(exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
