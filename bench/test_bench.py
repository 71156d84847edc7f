"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Seeded generators are deterministic and keep the work of a run in its band;
a smoke-sized run of every workload (calibration pass plus one timed pass)
passes all of its checks; BENCHMARK.json names exactly the metrics the
runner prints.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3, 17)


@pytest.mark.parametrize("wl", workloads.ALL, ids=lambda wl: wl.NAME)
def test_same_seed_same_inputs(wl):
    assert wl.inputs(5) == wl.inputs(5)
    assert wl.inputs(5) != wl.inputs(6)


def test_torus_work_band():
    for seed in SEEDS:
        slopes = gen.torus_inputs(seed)
        assert len(slopes) == gen.TORUS_SLOPES
        bases = sorted(int(s["theta"][4:].split(";")[0]) for s in slopes)
        assert bases == sorted(gen.C0_CYCLE[i % len(gen.C0_CYCLE)]
                               for i in range(gen.TORUS_SLOPES))
        for s in slopes:
            assert len(s["indices"]) == gen.SEGMENTS_PER_SLOPE
            assert len({k % 2 for k in s["indices"]}) == 1
            assert gen.Q_TOP_BAND[0] <= s["q"][-1] <= gen.Q_TOP_BAND[1]
            assert gen.Q_MID_BAND[0] <= s["q"][-2] <= gen.Q_MID_BAND[1]
            assert all(q < gen.Q_CAP for q in s["q"])


def test_surface_draws_stay_in_band():
    targets = gen._shear_catalog()["targets"]
    rows = {row["gamma"]: row for row in gen._shear_catalog()["shears"]}
    for seed in SEEDS:
        shears = gen.surface_inputs(seed)["shears"]
        assert len(set(shears)) == gen.SURFACE_SHEARS
        feats = gen.shear_draw_features([rows[g] for g in shears])
        for key, value in feats.items():
            assert abs(value / targets[key] - 1) < 0.07


def test_denominators_match_library():
    from laminath.cf import ContinuedFraction
    for s in gen.torus_inputs(3):
        theta = ContinuedFraction.from_text(s["theta"])
        for k, q in zip(s["indices"], s["q"]):
            assert theta.convergent(k).q == q


def test_benchmark_json_names_the_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_METRICS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == [wl.NAME for wl in workloads.ALL]


@pytest.mark.parametrize("wl", workloads.ALL, ids=lambda wl: wl.NAME)
def test_smoke_run_passes_all_checks(wl):
    state = wl.setup(wl.inputs(2), harness.NULL)
    tally = harness.Tally()
    try:
        op_set, _ = run._calibrate(wl, state, tally)
        timing = harness.run_passes(op_set, harness.NULL, tally, 0, 1)
    finally:
        if hasattr(wl, "close"):
            wl.close(state)
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= len(op_set) > 0
    # the fixed tail percentile leaves at least ten operations beyond it
    assert len(op_set) * wl.MIN_PASSES * (100 - wl.TAIL_PCT) / 100 >= 10
    assert timing.letters_per_pass > 0
    if wl.NAME == "surface-loops":
        surfaces = gen.SURFACE_SHEARS * len(wl.FIXTURES)
        assert len(op_set) == surfaces * (len(gen.LOOP_LEVELS) + 1)
