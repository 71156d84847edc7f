#!/usr/bin/env python3
"""Build finite-measure non-asymptotic words on the torus and on a genus-2
surface, printing the exact measure ledgers.

Torus side: concatenated inadmissible segments for sqrt2 over even indices,
with and without domination thinning, plus the cusp-loop variant.  Surface
side: level-k inadmissible loops on the slit-tori fixture glued along the
transversal edge.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from laminath import tsurface as ts, words
from laminath.cf import ContinuedFraction
from laminath.exactnum import format_exact
from laminath.ledger import min_full_window


def torus_demo():
    theta = ContinuedFraction.sqrt2()
    print("== torus: concatenated inadmissible segments (theta = sqrt2) ==")
    ew = words.exotic_word(theta, (2, 4, 6, 8, 10, 12))
    for st in ew.stages:
        print(f"  w_{st.level}: {len(st.certificate.word.blocks):6d} blocks  "
              f"measure {float(st.certificate.measure):.8f}  "
              f"running {float(st.partial_measure):.8f}")
    print(f"  total exact: {format_exact(ew.total_measure)}")
    print(f"  window guaranteeing a full segment: "
          f"{min_full_window(ew.stages)} blocks")

    thinned = words.exotic_word(theta, (2, 4, 6, 8, 10, 12), thin=True)
    print(f"  thinned kept={thinned.kept_indices} skipped={thinned.skipped_indices}")

    print("== torus: cusp-loop word ==")
    for st in words.cusp_exotic_word(theta, (1, 1, 1, 1)):
        print(f"  stage {st.k}: {st.word.serialize()} + loops^{st.loop_count}  "
              f"ledger {format_exact(st.partial_measure)}")


def surface_demo():
    print("== genus 2: slit-tori loops ==")
    S = ts.preset_surface("slit-tori")
    tr = ts.Transversal(S, 5)
    cache = {}
    stages = ts.synthesize_exotic(S, tr, [2, 3, 4, 5, 6], certificates=cache)
    for st in stages:
        c = st.certificate
        print(f"  A_{st.level}: depth n={c.depth:5d} word {len(c.word):6d} "
              f"letters  measure {float(c.measure):.8f} "
              f"(< {float(c.measure_constant) / 2 ** st.level:.8f})  "
              f"running {float(st.partial_measure):.8f}")
    print(f"  ledger bound: {format_exact(stages[-1].partial_bound)}")
    print(f"  window guaranteeing a full loop: {min_full_window(stages)} letters")


def main():
    torus_demo()
    surface_demo()


if __name__ == "__main__":
    main()
