"""The CLI's stdout, byte for byte, against committed golden files.

Each command runs on committed inputs only: the bundled sample config and
experiment, and the Drude copy of the config in perfbench/.  A change that
alters output on purpose regenerates the files and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes differ and prints, per file,
"unchanged" or "N of M lines changed".
"""

import contextlib
import io
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
    "fit_drude_sample": [
        "fit-drude", "--config", SAMPLE, "--range", "1.52e14", "6e14", "--output", "csv"],
    "fit_drude_sample_fixed_omega_p": [
        "fit-drude", "--config", SAMPLE, "--range", "3e14", "1.5e15",
        "--fixed-omega-p", "1.38e16", "--output", "csv"],
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
        path = GOLDEN / f"{name}.out"
        new = stdout_of(argv)
        old = path.read_bytes() if path.exists() else b""
        if new == old:
            print(f"{path.name}: unchanged")
            continue
        path.write_bytes(new)
        old_lines, new_lines = old.splitlines(), new.splitlines()
        changed = sum(a != b for a, b in zip(old_lines, new_lines)) + abs(
            len(new_lines) - len(old_lines))
        print(f"{path.name}: {changed} of {len(new_lines)} lines changed")
