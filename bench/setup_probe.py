"""One set-up sample in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED UNIT

Generates the workload's inputs (benchmark code, not timed), then times
``import laminath`` plus the workload's set-up of input unit UNIT, with the
reference kernel timed just before and just after, and prints the three
times in seconds.  Run with
``PYTHONPATH=src`` from the checkout root.
"""

import sys
import time

import workloads


def main(argv) -> int:
    name, seed, unit = argv[0], int(argv[1]), int(argv[2])
    wl = workloads.BY_NAME[name]
    inp = wl.inputs(seed)
    from harness import NULL, reference_seconds
    reference_seconds()
    before = reference_seconds()
    t0 = time.perf_counter()
    import laminath  # noqa: F401  (timed: a fresh interpreter's import)
    state = wl.setup(inp, NULL, unit)
    dt = time.perf_counter() - t0
    after = reference_seconds()
    if hasattr(wl, "close"):
        wl.close(state)
    print(dt, before, after)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
