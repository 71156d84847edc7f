"""Timing, checking and tracing machinery shared by the workloads.

A workload is a fixed list of operations (``Op``).  One pass runs every
operation once, back to back, with a single caller (a closed loop).  Each
operation is timed alone; its exactness checks run after the timer stops, so
they cost wall time but never show in a latency.  An operation fails when it
raises, or when any of its checks fails.

The first pass is the calibration pass: it checks every output once more
than needed and lets lazy set-up finish; its timings are discarded (a
workload whose every operation starts a fresh process skips it).  Timed
passes then repeat the op set until the run's seconds are used up, and every
operation is checked again on every pass.  Latencies are scaled to a nominal
machine speed by a reference kernel timed around each operation (below).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".bench_run")

# one thread for numpy and any BLAS it loads, in this process and children
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


# -- machine speed ------------------------------------------------------------------

# On a shared machine the speed of the CPU a run gets swings with the load of
# other tenants: on the 2-vCPU machine the baseline was recorded on (Intel
# Xeon at 2.1 GHz, Python 3.11.7), a fixed pure-Python kernel ran up to 2x
# slower for 10-second stretches.  Every latency is therefore scaled by
# REF_NOMINAL_S / (mean time of the reference kernel run just before and just
# after it), so timings read as on that machine when quiet.  The clock values
# stay in the runner's printed output.
REF_TERMS = 2000
REF_NOMINAL_S = 0.004


def reference_seconds() -> float:
    """Time of a fixed exact-arithmetic kernel: a 2000-term rational sum."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


# -- tracing ------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent, op id) kept in memory, plus counters.

    ``span`` nests under the innermost open span unless a parent id is given;
    re-run children (a library call repeated alone to split a composite call)
    name the composite span as their parent, so the composite's self time is
    its duration minus theirs.
    """

    on = True

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        sid = len(self.spans)
        self.spans.append(None)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self._op)

    def op(self, kind: str):
        self._op += 1
        return self.span("op." + kind)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    # -- derived figures --------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the spans that name them parent."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(s[2] - s[1] for s in self.spans if s[3] in ids)
        return self.busy(name) - children

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    on = False
    _null = contextlib.nullcontext()

    def span(self, name, parent=None):
        return self._null

    def op(self, kind):
        return self._null

    def count(self, name, n=1):
        pass


NULL = NullTracer()


# -- operations and passes -------------------------------------------------------------

@dataclass
class Op:
    """One operation: ``call(tracer)`` is timed; ``letters`` and ``check``
    inspect its result afterwards.  ``check`` returns the failed checks."""

    kind: str
    call: Callable[[Any], Any]
    letters: Callable[[Any], int]
    check: Callable[[Any], list]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, op: Op, why: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.kind}: {why}")


@dataclass
class Outcome:
    seconds: float
    letters: int
    result: Any = None


def execute(op: Op, tracer, tally: Tally) -> Outcome:
    """Run, time and check one operation; count it against the tally."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        with tracer.op(op.kind):
            result = op.call(tracer)
    except Exception as exc:  # a failing operation is counted, not fatal
        dt = time.perf_counter() - t0
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return Outcome(dt, 0)
    dt = time.perf_counter() - t0
    try:
        problems = op.check(result)
        letters = op.letters(result)
    except Exception as exc:  # a check that cannot run is a failed check
        problems, letters = [f"check raised {type(exc).__name__}: {exc}"], 0
    if problems:
        tally.fail(op, "; ".join(problems))
    return Outcome(dt, letters, result)


@dataclass
class Timing:
    """Latencies of the timed passes: ``passes[i][j]`` is op j in pass i,
    scaled to the nominal reference speed; ``raw`` holds the clock values."""

    ops_per_pass: int = 0
    letters_per_pass: int = 0
    passes: list = field(default_factory=list)
    raw: list = field(default_factory=list)

    @property
    def samples(self) -> list:
        return [dt for latencies in self.passes for dt in latencies]

    def pass_seconds(self, scaled: bool = True) -> float:
        """One pass of the op set: the sum of each operation's median latency."""
        rows = self.passes if scaled else self.raw
        return sum(statistics.median(column) for column in zip(*rows))


def run_passes(ops: list, tracer, tally: Tally, seconds: float,
               min_passes: int = 3, keep: Optional[list] = None) -> Timing:
    """Repeat the op set until ``seconds`` of wall time have passed (and at
    least ``min_passes`` passes ran).  The reference kernel runs between
    operations and scales their latencies.  ``keep`` collects the first
    pass's results."""
    timing = Timing(ops_per_pass=len(ops))
    start = time.perf_counter()
    while (len(timing.passes) < min_passes
           or time.perf_counter() - start < seconds):
        raw, refs = [], [reference_seconds()]
        letters = 0
        for op in ops:
            out = execute(op, tracer, tally)
            refs.append(reference_seconds())
            raw.append(out.seconds)
            letters += out.letters
            if keep is not None and not timing.passes:
                keep.append(out.result)
        # each operation is scaled by the reference timed before and after it
        timing.passes.append([dt * 2 * REF_NOMINAL_S / (before + after)
                              for dt, before, after in zip(raw, refs, refs[1:])])
        timing.raw.append(raw)
        timing.letters_per_pass = letters
    return timing


# -- statistics -------------------------------------------------------------------------

def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(timing: Timing, tally: Tally, setup_s: float, tail_pct: int,
               rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, at nominal reference speed.

    Throughputs divide one pass's operations and symbols by the pass time
    (the sum of each operation's median latency over the timed passes); the
    latency percentiles are taken over every timed operation."""
    pass_s = timing.pass_seconds()
    samples = timing.samples
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (timing.ops_per_pass / pass_s, "ops/s"),
        "letters_per_s": (timing.letters_per_pass / pass_s, "symbols/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (percentile(samples, tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_ratio": (tally.failed / max(1, tally.attempted), "ratio"),
    }


# -- set-up in fresh interpreters ----------------------------------------------------------

def setup_samples(workload: str, seed: int, units: int) -> list:
    """Seconds of fresh-interpreter ``import laminath`` plus the set-up of
    input unit j, for j = 0 .. units-1, one child process each, one at a
    time, each scaled by the reference kernel timed in the child around it."""
    probe = os.path.join(BENCH, "setup_probe.py")
    out = []
    for j in range(units):
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(j)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        out.append(seconds * 2 * REF_NOMINAL_S / (before + after))
    return out
