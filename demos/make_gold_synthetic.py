"""Regenerate the bundled synthetic optical dataset.

The handbook tables for gold are copyrighted, so the repository ships a
synthetic stand-in with a similar shape: a Drude free-electron part that
dominates below ~1e15 rad/s and two Lorentz oscillators mimicking the
interband absorption above the curve minimum.  Parameters are documented
here and in the file header; rerunning this script reproduces the file
byte for byte.

Run:  python demos/make_gold_synthetic.py [OUT]   (default: the bundled file)
"""

import math
import sys
from pathlib import Path

import numpy as np

from aucasimir.optical import OMEGA0_DEFAULT, drude_eps2

DRUDE = (1.38e16, 5.38e13)   # (omega_p, omega_tau) [rad/s]
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


def lorentz_eps2(strength, center, width, omega):
    """Absorptive part of a Lorentz oscillator."""
    return strength * center**2 * width * omega / (
        (center**2 - omega * omega)**2 + (width * omega)**2)


def main(out: Path = BUNDLED) -> None:
    # Drude plus the oscillators, sampled log-uniformly, both ends exact
    lo, hi = OMEGA_RANGE
    n_nodes = round(POINTS_PER_DECADE * math.log10(hi / lo)) + 1
    omega = np.exp(np.linspace(math.log(lo), math.log(hi), n_nodes))
    omega[0], omega[-1] = lo, hi  # exp(log(.)) can drift by an ulp
    eps2 = drude_eps2(*DRUDE, omega)
    for oscillator in OSCILLATORS:
        eps2 = eps2 + lorentz_eps2(*oscillator, omega)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [HEADER]
    lines += [f"{w:.9e},{e:.9e}" for w, e in zip(omega, eps2)]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({omega.size} samples)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
