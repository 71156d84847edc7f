"""Smoke runs of the README's scripts: each exits 0 and ends on its last
report line."""

import os
import pathlib
import shutil
import subprocess
import sys

import laminath

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
SRC = pathlib.Path(laminath.__file__).resolve().parents[1]


def _run(script: pathlib.Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_exotic_demo_runs():
    assert _run(SCRIPTS / "exotic_demo.py")[-1] == "  window guaranteeing a full loop: 6190 letters"


def test_growth_experiment_runs(tmp_path):
    # the script writes its CSVs beside itself, so it runs from a copy
    script = shutil.copy(SCRIPTS / "growth_experiment.py", tmp_path)
    last = _run(pathlib.Path(script))[-1]
    assert last.startswith("prescribed [log1p]: 8 joints, sup|I - f| = ")
    assert last.endswith(" (<= 1) -> growth_prescribed_log1p.csv")
    assert (tmp_path / "growth_prescribed_log1p.csv").read_text().startswith("t,I,f,gap")
