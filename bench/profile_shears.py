"""Profile random shears for the ``surface-loops`` catalog.

    PYTHONPATH=src python3 bench/profile_shears.py [COUNT]

Draws COUNT distinct random quadratic shears gamma in (0, 1) (seeded, so the
catalog is reproducible), sets up both fixtures, builds every loop at
``gen.LOOP_LEVELS`` three times, and writes ``bench/shears.json``: per shear
and fixture the return depth, word length and median latency of each loop
(scaled by the reference kernel like every benchmark latency), plus the
target figures the seeded draws of ``gen.surface_inputs`` are balanced
against.  Run it only to rebuild the catalog; it takes seconds per shear.
"""

import json
import os
import random
import statistics
import sys
import time

import gen
import harness

CATALOG = os.path.join(harness.BENCH, "shears.json")
REPEATS = 3


def profile(gamma_text: str) -> dict:
    from laminath import tsurface
    from laminath.cf import ContinuedFraction
    gamma = ContinuedFraction.from_text(gamma_text).value()
    row = {"gamma": gamma_text}
    for name, doc_fn, edge in (("sheared-torus", tsurface.sheared_torus_doc, 1),
                               ("slit-tori", tsurface.slit_tori_doc, 5)):
        surface = tsurface.load_surface(doc_fn(gamma))
        trans = tsurface.Transversal(surface, edge)
        trans.non_saddle_cut()
        depth, letters, cost = [], [], []
        for k in gen.LOOP_LEVELS:
            scaled = []
            for _ in range(REPEATS):
                before = harness.reference_seconds()
                t0 = time.perf_counter()
                cert = tsurface.build_inadmissible_loop(surface, trans, k)
                dt = time.perf_counter() - t0
                after = harness.reference_seconds()
                scaled.append(dt * 2 * harness.REF_NOMINAL_S / (before + after))
            depth.append(cert.depth)
            letters.append(len(cert.word))
            cost.append(round(statistics.median(scaled), 5))
        row[name] = {"depth": depth, "letters": letters, "cost": cost}
    return row


def main(argv) -> int:
    from laminath.cf import ContinuedFraction
    count = int(argv[0]) if argv else 48
    rng = random.Random("shear-catalog")
    seen, rows = set(), []
    while len(rows) < count:
        text = gen.quadratic_cf(rng, 0)[0]
        value = ContinuedFraction.from_text(text).value()
        if value in seen:
            continue
        seen.add(value)
        rows.append(profile(text))
        print(len(rows), text, flush=True)
    write_catalog(rows)
    return 0


def write_catalog(rows: list):
    with open(CATALOG, "w") as fh:
        json.dump({"targets": gen.shear_targets(rows), "shears": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, harness.SRC)
    sys.exit(main(sys.argv[1:]))
