"""Per-layer metrics, derived from the spans and counters of a traced run.

Layers are the package's modules.  Busy and self times are per timed pass
(seconds of one pass of the op set), counts are per pass, and rates divide a
count by the busy time of the spans that produced it.  Span times are clock
values, not scaled to the reference speed; set-up busy time is per run.
Every workload reports every metric; a layer a workload does not use reads 0.
"""

from __future__ import annotations

import statistics
import time

# name -> unit; the list BENCHMARK.json's per_layer mirrors
LAYER_METRICS = {
    "exactnum.cmp_per_s": "1/s",
    "exactnum.floor_per_s": "1/s",
    "exactnum.format_per_s": "1/s",
    "cf.levels_verified": "count",
    "cf.busy_s": "s",
    "cf.levels_per_s": "1/s",
    "words.segments": "count",
    "words.segment_self_s": "s",
    "words.segment_letters_per_s": "symbols/s",
    "words.exotic_busy_s": "s",
    "flat.validate_busy_s": "s",
    "flat.measure_busy_s": "s",
    "flat.clearance_busy_s": "s",
    "flat.cut_letters_per_s": "symbols/s",
    "oracle.verdicts": "count",
    "oracle.verdict_ms": "ms",
    "oracle.stream_letters_per_s": "symbols/s",
    "oracle.sampling_letters_per_s": "symbols/s",
    "tsurface.setup_busy_s": "s",
    "tsurface.loops": "count",
    "tsurface.loop_busy_s": "s",
    "tsurface.loop_depth_sum": "count",
    "tsurface.depth_per_s": "1/s",
    "tsurface.stream_letters_per_s": "symbols/s",
    "tsurface.flow_steps_per_s": "1/s",
    "tsurface.partition_busy_s": "s",
    "cli.invocations": "count",
    "cli.nonzero_exits": "count",
    "cli.import_s": "s",
    "cli.run_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.ops_per_s": "ops/s",
    "trace.overhead_ratio": "ratio",
}

SETUP_SPANS = ("tsurface.load_surface", "tsurface.Transversal",
               "tsurface.return_map", "tsurface.non_saddle_cut")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def derive(tr, passes: int) -> dict:
    """Layer metrics from one traced phase of ``passes`` passes."""
    n = max(1, passes)
    busy, calls, counts = tr.busy, tr.calls, tr.counts
    cf_busy = busy("cf.convergents")
    seg_busy = busy("words.inadmissible_segment")
    loop_busy = busy("tsurface.build_inadmissible_loop")
    verdicts = calls("oracle.is_admissible")
    return {
        "cf.levels_verified": counts["cf.levels"] / n,
        "cf.busy_s": cf_busy / n,
        "cf.levels_per_s": _rate(counts["cf.levels"], cf_busy),
        "words.segments": calls("words.inadmissible_segment") / n,
        "words.segment_self_s": tr.self_time("words.inadmissible_segment") / n,
        "words.segment_letters_per_s": _rate(counts["words.segment_letters"], seg_busy),
        "words.exotic_busy_s": (busy("words.exotic_word")
                                + busy("words.exotic_representative")) / n,
        "flat.validate_busy_s": busy("flat.validate") / n,
        "flat.measure_busy_s": busy("flat.transverse_measure") / n,
        "flat.clearance_busy_s": busy("flat.homotopy_clearance") / n,
        "flat.cut_letters_per_s": _rate(counts["flat.cut_letters"],
                                        busy("flat.cutting_sequence")),
        "oracle.verdicts": verdicts / n,
        "oracle.verdict_ms": _rate(busy("oracle.is_admissible") * 1e3, verdicts),
        "oracle.stream_letters_per_s": _rate(counts["oracle.stream_letters"],
                                             busy("oracle.leaf_letter_stream")),
        "oracle.sampling_letters_per_s": _rate(counts["oracle.sampling_letters"],
                                               busy("oracle.sampling_cross_check")),
        "tsurface.setup_busy_s": sum(busy(name) for name in SETUP_SPANS),
        "tsurface.loops": calls("tsurface.build_inadmissible_loop") / n,
        "tsurface.loop_busy_s": loop_busy / n,
        "tsurface.loop_depth_sum": counts["tsurface.loop_depth"] / n,
        "tsurface.depth_per_s": _rate(counts["tsurface.loop_depth"], loop_busy),
        "tsurface.stream_letters_per_s": _rate(counts["tsurface.stream_letters"],
                                               busy("tsurface.letter_stream")),
        "tsurface.flow_steps_per_s": _rate(counts["tsurface.flow_steps"],
                                           busy("tsurface.first_return")),
        "tsurface.partition_busy_s": busy("tsurface.return_partition") / n,
        "cli.invocations": counts["cli.invocations"] / n,
        "cli.nonzero_exits": counts["cli.nonzero_exits"] / n,
        "cli.output_bytes": counts["cli.output_bytes"] / n,
    }


def cli_timings(inproc: dict) -> dict:
    """Median in-process ``cli.run`` time and median start-up share
    (subprocess wall minus in-process run) over the examples."""
    runs = [dt for rows in inproc.values() for _wall, dt, _text in rows]
    startups = [wall - dt for rows in inproc.values() for wall, dt, _text in rows]
    if not runs:
        return {"cli.run_ms": 0.0, "cli.startup_ms": 0.0}
    return {"cli.run_ms": statistics.median(runs) * 1e3,
            "cli.startup_ms": statistics.median(startups) * 1e3}


def _same_field(a, b) -> bool:
    da, db = getattr(a, "d", None), getattr(b, "d", None)
    return da is None or db is None or da == db


def exactnum_probe(values: list, seconds: float = 0.3) -> dict:
    """Comparisons, floors and exact formatting per second, cycling over
    operands harvested from the workload's own results."""
    from laminath.exactnum import exact_floor, format_exact
    values = [v for v in values if v is not None]
    pairs = [(a, b) for a, b in zip(values, values[1:]) if _same_field(a, b)]
    out = {}
    kernels = (("exactnum.cmp_per_s", pairs, lambda ab: ab[0] < ab[1]),
               ("exactnum.floor_per_s", values, exact_floor),
               ("exactnum.format_per_s", values, format_exact))
    for name, items, fn in kernels:
        if not items:
            out[name] = 0.0
            continue
        done = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for item in items:
                fn(item)
            done += len(items)
        out[name] = done / (time.perf_counter() - t0)
    return out
