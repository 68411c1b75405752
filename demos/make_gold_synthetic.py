"""Regenerate the bundled synthetic optical dataset.

The handbook tables for gold are copyrighted, so the repository ships a
synthetic stand-in with a similar shape: a Drude free-electron part that
dominates below ~1e15 rad/s and two Lorentz oscillators mimicking the
interband absorption above the curve minimum.  Parameters are documented
here and in the file header; rerunning this script reproduces the file
byte for byte.

Run:  python demos/make_gold_synthetic.py [OUT]   (default: the bundled file)
"""

import sys
from pathlib import Path

from aucasimir import DrudeParameters, generate_synthetic_dataset
from aucasimir.optical import OMEGA0_DEFAULT

DRUDE = DrudeParameters(omega_p=1.38e16, omega_tau=5.38e13)
OSCILLATORS = (
    (1.2, 4.0e15, 2.0e15),   # (strength, center, width) [.., rad/s, rad/s]
    (1.1, 6.5e15, 3.5e15),
)
OMEGA_RANGE = (OMEGA0_DEFAULT, 1e18)
POINTS_PER_DECADE = 30

HEADER = """\
# unit=rad_s source=synthetic-au
# Synthetic gold-like eps''(omega): Drude(omega_p=1.38e16, omega_tau=5.38e13)
# plus Lorentz oscillators (S=1.2, w0=4.0e15, g=2.0e15) and
# (S=1.1, w0=6.5e15, g=3.5e15); 30 points per decade over
# [1.5193e14, 1e18] rad/s.  Regenerate with demos/make_gold_synthetic.py.
"""


BUNDLED = Path(__file__).resolve().parents[1] / "src/aucasimir/data/gold_synthetic.csv"


def main(out: Path = BUNDLED) -> None:
    ds = generate_synthetic_dataset(DRUDE, OSCILLATORS, OMEGA_RANGE,
                                    POINTS_PER_DECADE, source_label="synthetic-au")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [HEADER]
    lines += [f"{w:.9e},{e:.9e}" for w, e in zip(ds.omega, ds.eps2)]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({ds.omega.size} samples)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
