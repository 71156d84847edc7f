"""laminath benchmark: seeded workloads against the public API of src/laminath.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is torus-exotic, surface-loops, leaf-streams, cli-readme or all.  Run
from the root of a checkout; the package is imported from ``src``.  One
process, one caller, operations back to back; numpy and BLAS are pinned to
one thread.

``--trace 0`` prints the end-to-end metrics (set-up time, throughput in
operations and certified symbols, median and tail latency, peak memory and
the failure ratio).  ``--trace 1`` spends half the seconds untraced and half
with spans around every public-layer call, prints the per-layer metrics and
the tracing overhead, and writes the spans to ``.bench_run/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Every output is checked
exactly; a failed check or an exception counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import harness
import layers
from harness import NULL, Tally, Tracer, execute, run_passes
from workloads import ALL, BY_NAME

# the end-to-end metrics of BENCHMARK.json; fail_ratio is printed but left
# out of the JSON metrics because it reads 0 on a healthy run (attempted and
# failed carry it exactly)
E2E_METRICS = ("setup_s", "ops_per_s", "letters_per_s", "op_p50_ms",
               "op_tail_ms", "peak_rss_mb")


def _calibrate(wl, state, tally: Tally) -> tuple[list, list]:
    """The op set, and the results of its calibration pass (if it has one)."""
    op_set = wl.ops(state)
    results = []
    if wl.CALIBRATE:
        results = [execute(op, NULL, tally).result for op in op_set]
    return op_set, results


def run_untraced(wl, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    inp = wl.inputs(seed)
    setup_s = statistics.median(harness.setup_samples(wl.NAME, seed, wl.SETUP_UNITS))
    state = wl.setup(inp, NULL)
    tally = Tally()
    try:
        op_set, _ = _calibrate(wl, state, tally)
        timing = run_passes(op_set, NULL, tally, seconds, wl.MIN_PASSES)
    finally:
        if hasattr(wl, "close"):
            wl.close(state)
    metrics = harness.end_to_end(timing, tally, setup_s, wl.TAIL_PCT,
                                 harness.peak_rss_mb(children=wl.CHILD_RSS))
    info = {"passes": len(timing.passes), "ops_per_pass": timing.ops_per_pass,
            "samples": len(timing.samples), "tail": f"p{wl.TAIL_PCT}",
            "clock_ops_per_s": timing.ops_per_pass / timing.pass_seconds(scaled=False),
            "speed": timing.pass_seconds(scaled=False) / timing.pass_seconds()}
    return tally, metrics, info


def run_traced(wl, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    inp = wl.inputs(seed)
    tracer = Tracer()
    state = wl.setup(inp, tracer)
    tally = Tally()
    try:
        op_set, results = _calibrate(wl, state, tally)
        # without a calibration pass, the exactnum probe's operands come from
        # the first untraced pass
        keep = [] if wl.CALIBRATE else results
        plain = run_passes(op_set, NULL, tally, seconds / 2, 1, keep)
        traced = run_passes(op_set, tracer, tally, seconds / 2, 1)
        metrics = {name: 0.0 for name in layers.LAYER_METRICS}
        metrics.update(layers.derive(tracer, len(traced.passes)))
        if hasattr(wl, "layer_extras"):
            metrics.update(wl.layer_extras(state, seed))
        metrics.update(layers.exactnum_probe(wl.operands(state, results)))
    finally:
        if hasattr(wl, "close"):
            wl.close(state)
    plain_rate = plain.ops_per_pass / plain.pass_seconds()
    traced_rate = traced.ops_per_pass / traced.pass_seconds()
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = traced_rate / plain_rate
    tracer.dump(os.path.join(harness.SCRATCH, f"spans-{wl.NAME}-seed{seed}.json"))
    out = {name: (value, layers.LAYER_METRICS[name]) for name, value in metrics.items()}
    info = {"untraced_passes": len(plain.passes),
            "traced_passes": len(traced.passes),
            "spans": len(tracer.spans), "untraced_ops_per_s": plain_rate}
    return tally, out, info


def _print_block(name: str, seed: int, tally: Tally, metrics: dict, info: dict):
    print(f"[{name}] seed={seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(f"  attempted={tally.attempted} failed={tally.failed}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(BY_NAME) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "laminath", "__init__.py")):
        print(f"bench: no laminath package under {harness.SRC}", file=sys.stderr)
        return 2
    os.environ.update(harness.THREAD_ENV)  # before anything imports numpy
    sys.path.insert(0, harness.SRC)

    chosen = ALL if args.workload == "all" else (BY_NAME[args.workload],)
    runner = run_traced if args.trace else run_untraced
    total = Tally()
    final: dict = {}
    for wl in chosen:
        tally, metrics, info = runner(wl, args.seed, args.seconds)
        _print_block(wl.NAME, args.seed, tally, metrics, info)
        total.attempted += tally.attempted
        total.failed += tally.failed
        names = E2E_METRICS if not args.trace else metrics
        prefix = "" if len(chosen) == 1 else wl.NAME + "/"
        for key in names:
            value, unit = metrics[key]
            final[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
