"""laminath command line: exact words, measures, and surface dynamics.

All exact values are serialized as strings ("7/5", "2-1*sqrt2"), never as
decimals; a float annotation is included where a magnitude is useful for
plotting.  Identical configuration and seed produce byte-identical output.

Exit codes: 0 success, 2 precondition or usage errors, 3 precision/depth/
budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import flat, oracle, tsurface, words
from .cf import ContinuedFraction
from .errors import EXHAUSTION_ERRORS, LaminathError
from .exactnum import format_exact, parse_exact


@dataclass
class RunConfig:
    """One resolved invocation: subcommand plus every knob it can turn."""

    subcommand: str
    theta: Optional[str] = None
    slope: Optional[str] = None
    start: int = 1
    k: int = 2
    depth: int = 24
    word: Optional[str] = None
    indices: tuple = ()
    levels: tuple = ()
    loops: tuple = ()
    prefix_blocks: Optional[int] = None
    prefix: Optional[int] = None
    thin: bool = False
    m: int = 1
    s: Optional[str] = None
    letters: int = 64
    path: Optional[str] = None
    mode: str = "linear"
    direction: str = "vertical"
    f_name: str = "sqrt"
    t_max: str = "16"
    samples: int = 8
    segments: int = 6
    surface: Optional[str] = None
    edge: int = 0
    tau: Optional[str] = None
    n: int = 1
    budget: int = 200000
    emit: str = "text"
    out: Optional[str] = None
    seed: Optional[int] = None
    sample_letters: int = 0
    field_default: Optional[str] = field(
        default_factory=lambda: os.environ.get("LAMINATH_FIELD"))

    def require(self, name):
        v = getattr(self, name)
        if v is None:
            raise LaminathError(f"missing required option --{name}")
        return v


def _parse(flag: str, parse, text: str):
    """``parse(text)`` for option --flag; malformed text names the option."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--{flag}: cannot parse {text!r} ({exc})") from None


def _at_least(cfg: RunConfig, name: str, low: int):
    """The integer option ``name`` (each entry of a list), unset or at least ``low``."""
    value = getattr(cfg, name)
    for item in value if isinstance(value, tuple) else (value,):
        if item is not None and item < low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {item}")
    return value


def _theta(cfg: RunConfig) -> ContinuedFraction:
    return _parse("theta", ContinuedFraction.from_text, cfg.require("theta"))


def _word_doc(block_word=None, letters=None, measure=None, extra=None) -> dict:
    doc = {"alphabet": "abAB"}
    if block_word is not None:
        doc["letters"] = block_word.letters()
        doc["blocks"] = list(block_word.blocks)
        doc["base"] = block_word.base
        doc["orientation"] = block_word.orientation
    if letters is not None:
        doc["letters"] = letters
    if measure is not None:
        doc["measure"] = format_exact(measure)
        doc["measure_float"] = float(measure)
    if extra:
        doc.update(extra)
    return doc


def _surface_from(cfg: RunConfig) -> tsurface.TranslationSurface:
    name = cfg.require("surface")
    if name in tsurface.SURFACE_PRESETS:
        return tsurface.preset_surface(name)
    with open(name) as fh:
        return tsurface.load_surface(json.load(fh))


# -- subcommand handlers ---------------------------------------------------------

def cmd_convergents(cfg: RunConfig):
    theta = _theta(cfg)
    cvs = theta.convergents(_at_least(cfg, "k", 0))
    return {"theta": theta.to_text(),
            "convergents": [{"k": c.k, "p": c.p, "q": c.q} for c in cvs]}


def cmd_simple_word(cfg: RunConfig):
    r = _parse("slope", Fraction, cfg.require("slope"))
    w = words.simple_word(r, cfg.start)
    return _word_doc(w, extra={"slope": str(r), "start": cfg.start,
                               "serialized": w.serialize()})


def cmd_inadmissible(cfg: RunConfig):
    theta = _theta(cfg)
    w = words.inadmissible_word(theta, cfg.k)
    return _word_doc(w, extra={"theta": theta.to_text(), "k": cfg.k,
                               "serialized": w.serialize()})


def _tagged_path(path, cfg: RunConfig) -> dict:
    doc = path.to_json()
    if doc.get("field") is None and cfg.field_default:
        doc["field"] = cfg.field_default
    return doc


def cmd_segment(cfg: RunConfig):
    theta = _theta(cfg)
    cert = words.inadmissible_segment(theta, cfg.k)
    return _word_doc(cert.word, measure=cert.measure, extra={
        "theta": theta.to_text(), "k": cfg.k,
        "letter_count": cert.word.letter_count,
        "letter_bound": 2 * (cert.convergent.p + cert.convergent.q),
        "bound": format_exact(cert.bound),
        "path": _tagged_path(cert.path, cfg),
    })


def cmd_exotic(cfg: RunConfig):
    theta = _theta(cfg)
    prefix_blocks = _at_least(cfg, "prefix_blocks", 0)
    ew = words.exotic_word(theta, _at_least(cfg, "indices", 0), thin=cfg.thin)
    stages = []
    for st in ew.stages:
        stages.append({
            "index": st.index,
            "blocks": len(st.certificate.word.blocks),
            "measure": format_exact(st.certificate.measure),
            "connector": format_exact(st.connector),
            "partial_measure": format_exact(st.partial_measure),
            "partial_bound": format_exact(st.partial_bound),
        })
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


def cmd_cusp_exotic(cfg: RunConfig):
    theta = _theta(cfg)
    stages = words.cusp_exotic_word(theta, cfg.loops)
    return {"alphabet": "abAB", "theta": theta.to_text(),
            "letters": words.cusp_word_letters(stages),
            "stages": [{"k": st.k, "word": st.word.serialize(),
                        "loops": st.loop_count,
                        "partial_measure": format_exact(st.partial_measure)}
                       for st in stages]}


def cmd_cut(cfg: RunConfig):
    theta = _theta(cfg)
    s = _parse("start", parse_exact, cfg.require("s"))
    letters = flat.cutting_sequence(s, theta, _at_least(cfg, "letters", 0))
    return {"alphabet": "ab", "start": format_exact(s),
            "theta": theta.to_text(), "letters": letters}


def cmd_measure(cfg: RunConfig):
    theta = _theta(cfg)
    with open(cfg.require("path")) as fh:
        path = flat.FlatPath.from_json(json.load(fh))
    value = flat.transverse_measure(path, theta.value())
    return {"measure": format_exact(value), "measure_float": float(value),
            "normalized_float": flat.transverse_measure(path, theta.value(),
                                                        normalized=True)}


def cmd_admissible(cfg: RunConfig):
    theta = _theta(cfg)
    depth = _at_least(cfg, "depth", 0)
    sample_letters = _at_least(cfg, "sample_letters", 0)
    raw = cfg.require("word")
    query = words.BlockWord.parse(raw) if raw.startswith("(") else raw
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


def cmd_factors(cfg: RunConfig):
    _at_least(cfg, "m", 0)
    _at_least(cfg, "depth", 0)
    if cfg.slope:
        fs = oracle.rational_factors(_parse("slope", Fraction, cfg.slope), cfg.m)
        return {"slope": str(fs.slope), "length": fs.length,
                "count": len(fs.factors), "factors": sorted(fs.factors)}
    theta = _theta(cfg)
    count = oracle.factor_count(theta, cfg.m, cfg.depth)
    return {"theta": theta.to_text(), "length": cfg.m, "count": count}


def cmd_growth(cfg: RunConfig):
    theta = _theta(cfg)
    t_max = _parse("t-max", Fraction, cfg.t_max)
    samples = _at_least(cfg, "samples", 0)
    segments = _at_least(cfg, "segments", 0)
    if cfg.mode == "linear":
        direction = ("vertical" if cfg.direction == "vertical"
                     else _parse("direction", parse_exact, cfg.direction))
        rows = flat.linear_growth_probe(theta, direction, t_max, samples)
        table = [{"t": format_exact(r.t), "I": format_exact(r.measure)} for r in rows]
        csv = "t,I\n" + "\n".join(f"{r['t']},{r['I']}" for r in table) + "\n"
        return {"mode": "linear", "direction": cfg.direction,
                "table": table, "csv": csv}
    import math as _math
    fns = {"sqrt": lambda t: _math.sqrt(t),
           "log": lambda t: _math.log1p(t)}
    f = fns[cfg.f_name]
    path, rows = flat.prescribed_growth_path(theta, f, segments,
                                             t_cap=t_max if t_max > 16 else None)
    table = [{"t": format_exact(r.t), "I": format_exact(r.measure),
              "f": repr(r.target)} for r in rows]
    csv = "t,I\n" + "\n".join(f"{r['t']},{r['I']}" for r in table) + "\n"
    return {"mode": "prescribed", "f": cfg.f_name, "table": table, "csv": csv,
            "path": _tagged_path(path, cfg)}


def cmd_ts_validate(cfg: RunConfig):
    S = _surface_from(cfg)
    return {"polygons": len(S.polygons),
            "edge_pairs": len(S.pairs),
            "boundary_edges": len(S.boundary_slots),
            "euler_characteristic": S.euler_characteristic,
            "genus": S.genus,
            "vertex_classes": len(S.vertex_classes),
            "horizontal_cylinder_decomposition":
                S.horizontal_is_cylinder_decomposition()}


def cmd_ts_return_map(cfg: RunConfig):
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


def cmd_ts_partition(cfg: RunConfig):
    S = _surface_from(cfg)
    part = tsurface.return_partition(S, cfg.edge, _at_least(cfg, "n", 0))
    return {"edge": cfg.edge, "depth": part.depth,
            "max_length": format_exact(part.max_length),
            "max_length_float": float(part.max_length),
            "intervals": [{"lo": format_exact(iv.lo), "hi": format_exact(iv.hi),
                           "word": S.word_labels(iv.word)}
                          for iv in part.intervals]}


def cmd_ts_loop(cfg: RunConfig):
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


def cmd_ts_exotic(cfg: RunConfig):
    S = _surface_from(cfg)
    trans = tsurface.Transversal(S, cfg.edge)
    levels = _at_least(cfg, "levels", 0)
    if _at_least(cfg, "prefix", 0) is not None:
        levels = tuple(levels)[:cfg.prefix]
    stages = tsurface.synthesize_exotic(S, trans, levels, thin=cfg.thin)
    out = []
    for st in stages:
        out.append({"level": st.level,
                    "word": S.word_labels(st.certificate.word),
                    "measure": format_exact(st.certificate.measure),
                    "connector": format_exact(st.connector),
                    "partial_measure": format_exact(st.partial_measure),
                    "partial_bound": format_exact(st.partial_bound)})
    return {"edge": cfg.edge, "stages": out}


HANDLERS = {
    "convergents": cmd_convergents,
    "simple-word": cmd_simple_word,
    "inadmissible": cmd_inadmissible,
    "segment": cmd_segment,
    "exotic": cmd_exotic,
    "cusp-exotic": cmd_cusp_exotic,
    "cut": cmd_cut,
    "measure": cmd_measure,
    "admissible": cmd_admissible,
    "factors": cmd_factors,
    "growth": cmd_growth,
    "ts:validate": cmd_ts_validate,
    "ts:return-map": cmd_ts_return_map,
    "ts:partition": cmd_ts_partition,
    "ts:loop": cmd_ts_loop,
    "ts:exotic": cmd_ts_exotic,
}


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    # --emit/--out/--seed are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", default=argparse.SUPPRESS,
                        help="text, json, csv, or a .json output path")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the artifact to a file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    top = argparse.ArgumentParser(prog="laminath", description=__doc__)
    top.add_argument("--emit", default="text")
    top.add_argument("--out", default=None)
    top.add_argument("--seed", type=int, default=None)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common])
        for arg, opts in kwargs.items():
            p.add_argument(f"--{arg.replace('_', '-')}", **opts)
        return p

    add("convergents", theta={"required": True}, k={"type": int, "default": 8})
    add("simple-word", slope={"required": True},
        start={"type": int, "default": 1})
    add("inadmissible", theta={"required": True}, k={"type": int, "default": 2})
    add("segment", theta={"required": True}, k={"type": int, "default": 2})
    add("exotic", theta={"required": True},
        indices={"type": _int_list, "default": ()},
        prefix_blocks={"type": int, "default": None},
        thin={"action": "store_true"})
    add("cusp-exotic", theta={"required": True},
        loops={"type": _int_list, "default": (1, 1, 1)})
    add("cut", theta={"required": True}, start={"dest": "s", "required": True},
        letters={"type": int, "default": 64})
    add("measure", theta={"required": True}, path={"required": True})
    add("admissible", theta={"required": True}, word={"required": True},
        depth={"type": int, "default": 24},
        sample_letters={"type": int, "default": 0})
    add("factors", theta={"default": None}, slope={"default": None},
        m={"type": int, "default": 3}, depth={"type": int, "default": 24})
    add("growth", theta={"required": True},
        mode={"choices": ["linear", "prescribed"], "default": "linear"},
        direction={"default": "vertical"},
        f={"dest": "f_name", "choices": ["sqrt", "log"], "default": "sqrt"},
        t_max={"default": "16"}, samples={"type": int, "default": 8},
        segments={"type": int, "default": 6})

    ts = sub.add_parser("ts")
    ts_sub = ts.add_subparsers(dest="ts_command", required=True)

    def add_ts(name, **kwargs):
        p = ts_sub.add_parser(name, parents=[common])
        p.add_argument("--surface", required=True,
                       help="preset name (sheared-torus, slit-tori) or JSON file")
        for arg, opts in kwargs.items():
            p.add_argument(f"--{arg.replace('_', '-')}", **opts)
        return p

    add_ts("validate")
    add_ts("return-map", edge={"type": int, "default": 0},
           tau={"default": None}, n={"type": int, "default": 1})
    add_ts("partition", edge={"type": int, "default": 0},
           n={"type": int, "default": 4})
    add_ts("loop", edge={"type": int, "default": 0},
           k={"type": int, "default": 3},
           budget={"type": int, "default": 200000})
    add_ts("exotic", edge={"type": int, "default": 0},
           levels={"type": _int_list, "default": (1, 2, 3)},
           prefix={"type": int, "default": None},
           thin={"action": "store_true"})
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


def run(config: RunConfig) -> int:
    """Dispatch one configuration; returns the process exit status."""
    handler = HANDLERS[config.subcommand]
    try:
        doc = handler(config)
    except (LaminathError, ValueError, IndexError, KeyError, OSError) as exc:
        code = exc.code if isinstance(exc, LaminathError) else "invalid-input"
        sys.stderr.write(json.dumps({"error": code, "detail": str(exc)},
                                    sort_keys=True) + "\n")
        return 3 if isinstance(exc, EXHAUSTION_ERRORS) else 2
    if config.emit == "csv" and "csv" in doc:
        text = doc["csv"]
    elif config.emit == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        import io
        buf = io.StringIO()
        _render_text({k: v for k, v in doc.items() if k != "csv"}, buf)
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def config_from_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    command = ns.command
    if command == "ts":
        command = f"ts:{ns.ts_command}"
    cfg = RunConfig(subcommand=command)
    for key, value in vars(ns).items():
        if key in ("command", "ts_command") or value is None:
            continue
        if hasattr(cfg, key):
            setattr(cfg, key, value)
    if cfg.emit not in ("text", "json", "csv"):
        # "--emit cert.json" writes a JSON artifact to that path
        cfg.out = cfg.emit
        cfg.emit = "json"
    return cfg


def main(argv=None) -> int:
    return run(config_from_args(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
