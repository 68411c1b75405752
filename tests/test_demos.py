"""Smoke tests: demos and the README's Python blocks run to completion
against the package in src/."""

import contextlib
import io
import os
import re
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


# every demo but the data generator, which has its own test below
@pytest.mark.parametrize("name", [
    path.name for path in sorted((ROOT / "demos").glob("*.py"))
    if path.name != "make_gold_synthetic.py"])
def test_demo_runs(name):
    run_demo(name)


def test_make_gold_synthetic_reproduces_bundled_file(tmp_path):
    out = tmp_path / "gold_synthetic.csv"
    run_demo("make_gold_synthetic.py", str(out))
    bundled = ROOT / "src" / "aucasimir" / "data" / "gold_synthetic.csv"
    assert out.read_bytes() == bundled.read_bytes()


def test_readme_python_blocks_run_in_order():
    # the quick start is four blocks, each building on the one before
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
