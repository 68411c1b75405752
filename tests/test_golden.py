"""The CLI's stdout, byte for byte, against committed golden files.

Each command runs on committed inputs only: the bundled sample config and
experiment, and the Drude copy of the config in perfbench/.  A change that
alters output on purpose regenerates the files and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from aucasimir.cli import main
from aucasimir.config import package_data_dir

GOLDEN = Path(__file__).parent / "golden"
SAMPLE = str(package_data_dir() / "sample_config.ini")
DRUDE = str(Path(__file__).parents[1] / "perfbench" / "drude_config.ini")
EXPERIMENT = "experiment_sample.csv"

#: golden file name -> argv
COMMANDS = {
    "force_sample_both_60_200_15": [
        "force", "--config", SAMPLE, "--mode", "both", "--a-range", "60", "200", "15"],
    "force_sample_63": ["force", "--config", SAMPLE, "--a", "63"],
    "force_sample_both_60_200_5_json": [
        "force", "--config", SAMPLE, "--mode", "both", "--a-range", "60", "200", "5",
        "--output", "json"],
    "force_drude_both_60_200_281": [
        "force", "--config", DRUDE, "--mode", "both", "--a-range", "60", "200", "281"],
    "force_drude_zero_T_60_2000_30": [
        "force", "--config", DRUDE, "--mode", "zero_T", "--a-range", "60", "2000", "30"],
    "residuals_sample": ["residuals", "--config", SAMPLE, "--experiment", EXPERIMENT],
    "residuals_drude": ["residuals", "--config", DRUDE, "--experiment", EXPERIMENT],
    "epsilon_sample": ["epsilon", "--config", SAMPLE, "--zeta-range", "1e13", "1e18", "41"],
    "epsilon_drude": ["epsilon", "--config", DRUDE, "--zeta-range", "1e13", "1e18", "41"],
    "yukawa_limit": ["yukawa-limit"],
}


def stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


@pytest.mark.filterwarnings("ignore:sphere_radius / separation < 100")
@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden_file(name):
    assert stdout_of(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_bytes(stdout_of(argv))
        print(f"wrote {GOLDEN / name}.out", file=sys.stderr)
