"""Smoke tests: demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["casimir_force_scan.py", "dielectric_models.py",
                                  "optical_data_tour.py", "residual_analysis.py",
                                  "yukawa_constraints.py"])
def test_demo_runs(name):
    run_demo(name)


def test_make_gold_synthetic_reproduces_bundled_file(tmp_path):
    out = tmp_path / "gold_synthetic.csv"
    run_demo("make_gold_synthetic.py", str(out))
    bundled = ROOT / "src" / "aucasimir" / "data" / "gold_synthetic.csv"
    assert out.read_bytes() == bundled.read_bytes()
