"""Workload ``cli-readme``: every CLI example of README.md in a fresh interpreter.

One operation runs one example as ``python -m laminath.cli ...`` in its own
process, with the working directory in a scratch directory that holds the
``measure --path`` input, so ``--emit cert.json`` lands there.  Its stdout and
written file must match the golden digests in ``cli_golden.json``, captured
at the seed commit; a mismatch or a nonzero exit fails the operation.  The
seed only shuffles the order of one sweep.

Regenerate the goldens (only when an output change is intended) with
``python3 bench/cli_readme.py --capture``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
from harness import BENCH, ROOT, SCRATCH, Op, child_env

NAME = "cli-readme"
SETUP_UNITS = 5
CALIBRATE = False
MIN_PASSES = 3
TAIL_PCT = 80
CHILD_RSS = True

GOLDEN = os.path.join(BENCH, "cli_golden.json")
PATH_INPUT = os.path.join(BENCH, "path.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def examples() -> list:
    with open(GOLDEN) as fh:
        return json.load(fh)["examples"]


def inputs(seed: int) -> dict:
    ex = examples()
    return {"examples": [ex[i] for i in gen.cli_order(seed, len(ex))]}


class Workdir:
    """Scratch working directory inside the checkout, removed by close()."""

    def __init__(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="cli-", dir=SCRATCH)
        shutil.copy(PATH_INPUT, os.path.join(self.path, "path.json"))

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def setup(inp: dict, tracer, unit=None):
    """Import the CLI and prepare the working directory."""
    import laminath.cli  # noqa: F401  (the import is part of set-up)
    return {"examples": inp["examples"], "workdir": Workdir(), "inproc": {}}


def _read_artifact(workdir: str, name):
    if name is None:
        return b""
    target = os.path.join(workdir, name)
    with open(target, "rb") as fh:
        data = fh.read()
    os.remove(target)
    return data


def _inproc(argv: list, workdir: str) -> tuple:
    """Run ``cli.main`` in this process; (exit code, stdout, seconds)."""
    from laminath import cli
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            dt = time.perf_counter() - t0
    finally:
        os.chdir(here)
    return code, out.getvalue(), dt


def _example_op(ex: dict, state: dict) -> Op:
    workdir = state["workdir"].path

    def call(tr):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "laminath.cli"] + ex["argv"],
                              cwd=workdir, env=child_env(), capture_output=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        artifact = _read_artifact(workdir, ex["file"]) if proc.returncode == 0 else b""
        if tr.on:
            with tr.span("cli.run"):
                code, text, dt = _inproc(ex["argv"], workdir)
            if code == 0:
                _read_artifact(workdir, ex["file"])
            if ex["argv"][:2] == ["ts", "partition"]:
                _rerun_partition(ex["argv"], tr)
            state["inproc"].setdefault(ex["line"], []).append((wall, dt, text))
            tr.count("cli.invocations")
            tr.count("cli.nonzero_exits", proc.returncode != 0)
            tr.count("cli.output_bytes", len(proc.stdout) + len(artifact))
        return proc.returncode, proc.stdout, artifact

    def check(res):
        code, stdout, artifact = res
        if code != 0:
            return [f"exit {code}: {ex['line']}"]
        bad = []
        if _sha(stdout) != ex["stdout_sha256"]:
            bad.append(f"stdout differs from golden: {ex['line']}")
        if ex["file"] is not None and _sha(artifact) != ex["file_sha256"]:
            bad.append(f"{ex['file']} differs from golden: {ex['line']}")
        return bad

    return Op("cli", call, lambda res: len(res[1]) + len(res[2]), check)


def _rerun_partition(argv: list, tr):
    """The library call behind ``ts partition``, alone, for its busy time."""
    from laminath import tsurface
    opts = dict(zip(argv[2::2], argv[3::2]))
    surface = tsurface.preset_surface(opts["--surface"])
    with tr.span("tsurface.return_partition"):
        tsurface.return_partition(surface, int(opts["--edge"]), int(opts["--n"]))


def ops(state) -> list:
    return [_example_op(ex, state) for ex in state["examples"]]


def operands(state, results) -> list:
    """Exact values printed by the examples (JSON strings that parse exactly)."""
    from laminath.exactnum import parse_exact
    out = []
    for res in results:
        try:
            doc = json.loads(res[1])
        except ValueError:
            continue
        stack = [doc]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack += list(node.values())
            elif isinstance(node, list):
                stack += node
            elif isinstance(node, str) and ("/" in node or "sqrt" in node):
                try:
                    out.append(parse_exact(node))
                except ValueError:
                    pass
    return out


def layer_extras(state, seed: int) -> dict:
    """``cli`` timings of a traced run: in-process run, start-up, import."""
    import harness
    import layers
    out = layers.cli_timings(state["inproc"])
    out["cli.import_s"] = statistics.median(
        harness.setup_samples(NAME, seed, SETUP_UNITS))
    return out


def close(state):
    state["workdir"].close()


# -- golden capture -----------------------------------------------------------------------

def _readme_examples() -> list:
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("laminath ")]


def capture():
    """Run every README example once and record its digests."""
    workdir = Workdir()
    try:
        rows = []
        for line in _readme_examples():
            argv = shlex.split(line)[1:]
            emit = argv[argv.index("--emit") + 1] if "--emit" in argv else None
            name = emit if emit not in (None, "text", "json", "csv") else None
            proc = subprocess.run([sys.executable, "-m", "laminath.cli"] + argv,
                                  cwd=workdir.path, env=child_env(),
                                  capture_output=True, check=True, timeout=120)
            artifact = _read_artifact(workdir.path, name)
            rows.append({"line": line, "argv": argv, "file": name,
                         "stdout_sha256": _sha(proc.stdout),
                         "stdout_bytes": len(proc.stdout),
                         "file_sha256": _sha(artifact) if name else None,
                         "file_bytes": len(artifact)})
    finally:
        workdir.close()
    with open(GOLDEN, "w") as fh:
        json.dump({"examples": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 bench/cli_readme.py --capture")
    capture()
