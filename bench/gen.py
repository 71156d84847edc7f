"""Seeded input generators for the benchmark workloads.

Pure Python with no laminath import: the library only ever sees what these
functions return (continued-fraction texts, rationals, sizes).  The same
workload and seed always give the same inputs; every generator draws from a
``random.Random`` seeded with ``"<workload>:<seed>"``.

Where the cost of an operation depends on a property of its input that the
seed varies, the generator keeps the total work of a run in a fixed band, so
that runs with different seeds measure the same amount of work:

- ``torus-exotic``: a fixed number of slopes and segments per run, the two
  largest q_k of every slope in fixed bands, block bases in fixed shares;
- ``surface-loops``: shears come from a profiled catalog, and a draw is kept
  only when its loops' latency, size and latency ranks match the targets;
- ``leaf-streams``: block bases and shear leading coefficients in fixed
  shares, fixed sizes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import statistics
from fractions import Fraction

# torus-exotic: TORUS_SLOPES slopes per run (block bases cycle through
# C0_CYCLE), each with exactly SEGMENTS_PER_SLOPE same-parity indices below
# the cap and its two largest q_k in fixed bands
Q_CAP = 4096
TORUS_SLOPES = 9
C0_CYCLE = (1, 2, 3)
SEGMENTS_PER_SLOPE = 4
Q_TOP_BAND = (2000, 2700)
Q_MID_BAND = (340, 420)

# surface-loops: SURFACE_SHEARS shears per run, drawn from the profiled
# catalog in shears.json (built by profile_shears.py at the seed commit),
# every loop at LOOP_LEVELS on both fixtures.  A draw is kept only when its
# total loop latency and letters, and the loop latencies at the ranks the
# median and the tail of a run fall on, all lie within SHEAR_BAND (log ratio)
# of the catalog's targets (medians over random draws).
SURFACE_SHEARS = 3
LOOP_LEVELS = (2, 3, 4, 5)
SURFACE_FIXTURES = ("sheared-torus", "slit-tori")
SURFACE_TAIL_PCT = 88
SHEAR_BAND = 0.06
SHEAR_CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shears.json")

# leaf-streams: sizes of one pass; slopes take the block bases C0_CYCLE twice
# and shears the leading coefficients SHEAR_LEADS, in seeded order
LEAF_SLOPES = 6
SHEAR_LEADS = (1, 1, 2, 2)
STREAM_LETTERS = 100_000
CUT_LETTERS = 1_000
FACTORS_PER_SLOPE = 1
FACTOR_LETTERS = 112
FLIP_INDICES = (4,)
SAMPLING_LETTERS = 20_000
SAMPLING_HEIGHTS = 8
IET_LETTERS = 150_000
FLOW_RETURNS = {"sheared-torus": 100, "slit-tori": 50}

# start heights and edge parameters share one large prime denominator, so no
# orbit of the benchmark can land exactly on a cut or a lattice point
HEIGHT_DENOMINATOR = 1_000_003


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def quadratic_cf(rng: random.Random, c0: int, lead: tuple = (), coeff_max: int = 3,
                 pre_max: int = 2, per_max: int = 3) -> tuple[str, list[int], int]:
    """A random eventually periodic continued fraction [c0; lead..., pre..., (per)].

    Returns ``(text, coefficients, period_length)`` where the text is the
    form ``ContinuedFraction.from_text`` parses and the last
    ``period_length`` coefficients repeat forever.
    """
    pre = [rng.randint(1, coeff_max) for _ in range(rng.randint(0, pre_max))]
    per = [rng.randint(1, coeff_max) for _ in range(rng.randint(1, per_max))]
    cs = [c0, *lead] + pre + per
    body = f"{cs[0]};" + ",".join(map(str, cs[1:]))
    suffix = "p" if len(per) == 1 else f"periodic({len(per)})"
    return f"cf:[{body}]{suffix}", cs, len(per)


def coefficient(cs: list[int], period: int, i: int) -> int:
    head = len(cs) - period
    return cs[i] if i < head else cs[head + (i - head) % period]


def denominators(cs: list[int], period: int, k_max: int) -> list[int]:
    """Convergent denominators q_0 .. q_{k_max} by q_k = c_k q_{k-1} + q_{k-2}."""
    qs = []
    q, qp = 0, 1
    for k in range(k_max + 1):
        q, qp = coefficient(cs, period, k) * q + qp, q
        qs.append(q)
    return qs


def height(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, HEIGHT_DENOMINATOR), HEIGHT_DENOMINATOR)


def torus_inputs(seed: int) -> list[dict]:
    """Slopes theta > 1 with their same-parity segment indices.

    Each slope contributes every index k >= 2 of one parity with q_k < Q_CAP.
    A drawn slope is kept only when it is new to the run, gives
    SEGMENTS_PER_SLOPE indices, and its largest and second-largest q_k fall
    in Q_TOP_BAND and Q_MID_BAND; otherwise it is redrawn.  The block bases
    c0 of a run are C0_CYCLE repeated, in seeded order.
    """
    rng = rng_for("torus-exotic", seed)
    bases = [C0_CYCLE[i % len(C0_CYCLE)] for i in range(TORUS_SLOPES)]
    rng.shuffle(bases)
    slopes: list[dict] = []
    seen = set()
    for c0 in bases:
        while True:
            text, cs, period = quadratic_cf(rng, c0)
            start = rng.choice((2, 3))
            qs = denominators(cs, period, 40)
            ks = [k for k in range(start, 40, 2) if qs[k] < Q_CAP]
            value = tuple(coefficient(cs, period, i) for i in range(40))
            if len(ks) != SEGMENTS_PER_SLOPE or value in seen:
                continue
            mid, top = qs[ks[-2]], qs[ks[-1]]
            if (Q_TOP_BAND[0] <= top <= Q_TOP_BAND[1]
                    and Q_MID_BAND[0] <= mid <= Q_MID_BAND[1]):
                seen.add(value)
                break
        slopes.append({"theta": text, "indices": ks, "q": [qs[k] for k in ks]})
    return slopes


@functools.lru_cache(maxsize=1)
def _shear_catalog() -> dict:
    with open(SHEAR_CATALOG) as fh:
        return json.load(fh)


def shear_draw_features(rows: list) -> dict:
    """Figures of one draw of catalog shears: total loop latency and letters,
    and the latencies at the median and tail ranks of one pass (whose
    ``synthesize_exotic`` operations, one per surface, cost next to nothing;
    with every operation repeated the same number of times, the tail
    percentile of a run falls on the same operation)."""
    loops = sorted(c for row in rows for f in SURFACE_FIXTURES for c in row[f]["cost"])
    letters = sum(n for row in rows for f in SURFACE_FIXTURES for n in row[f]["letters"])
    ops = [0.0] * (len(rows) * len(SURFACE_FIXTURES)) + loops
    tail = ops[math.ceil(SURFACE_TAIL_PCT / 100 * len(ops)) - 1]
    return {"cost": sum(loops), "letters": letters,
            "p50": statistics.median(ops), "tail": tail}


def shear_targets(rows: list, draws: int = 20_000) -> dict:
    """Median figures over random draws from the catalog rows."""
    rng = random.Random("shear-targets")
    feats = [shear_draw_features(rng.sample(rows, SURFACE_SHEARS)) for _ in range(draws)]
    return {key: statistics.median(f[key] for f in feats) for key in feats[0]}


def surface_inputs(seed: int) -> dict:
    """Shears gamma in (0, 1) drawn from the catalog within the band."""
    catalog = _shear_catalog()
    targets = catalog["targets"]
    rng = rng_for("surface-loops", seed)
    for _ in range(100_000):
        draw = rng.sample(catalog["shears"], SURFACE_SHEARS)
        feats = shear_draw_features(draw)
        if all(abs(math.log(feats[k] / targets[k])) <= SHEAR_BAND for k in targets):
            return {"shears": [row["gamma"] for row in draw],
                    "levels": list(LOOP_LEVELS)}
    raise RuntimeError("no draw of catalog shears falls in the band")


def leaf_inputs(seed: int) -> dict:
    """Slopes, start heights, stream factors, shears and edge parameters."""
    rng = rng_for("leaf-streams", seed)
    bases = [C0_CYCLE[i % len(C0_CYCLE)] for i in range(LEAF_SLOPES)]
    rng.shuffle(bases)
    slopes = []
    for c0 in bases:
        text = quadratic_cf(rng, c0)[0]
        starts = [rng.randrange(0, STREAM_LETTERS - FACTOR_LETTERS)
                  for _ in range(FACTORS_PER_SLOPE)]
        slopes.append({"theta": text, "s": height(rng),
                       "factors": [(a, FACTOR_LETTERS) for a in starts]})
    leads = list(SHEAR_LEADS)
    rng.shuffle(leads)
    shears = [{"gamma": quadratic_cf(rng, 0, (c1,))[0],
               "tau": height(rng), "tau_flow": height(rng)} for c1 in leads]
    return {"slopes": slopes, "shears": shears,
            "sampling_seed": rng.randrange(1 << 30)}


def cli_order(seed: int, count: int) -> list[int]:
    """The order in which one sweep runs the README examples."""
    order = list(range(count))
    rng_for("cli-readme", seed).shuffle(order)
    return order
