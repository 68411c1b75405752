"""Node counts of the package's fixed rules, read from the rule functions:

  * the eps(i zeta) dispersion rule's nodes per spectral region, for the
    bundled config and for Drude data at 2 points per decade;
  * the zero-T frequency rule's nodes per separation, default and
    tightened;
  * the p-integral kernel's rows and elements per p-rule band, near, far,
    top and tail (by np.digitize on y = zeta a / c at `_Y_EDGES`, as
    `_p_integral` bands its rows) for `force --mode both --a-range 60 200
    8` on the Drude config.

Like tests/source_lines.py it counts the package Python imports:

    PYTHONPATH=src python tests/node_census.py
"""

from pathlib import Path

import numpy as np

from aucasimir import DielectricModel, DrudeParameters
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.constants import c
from aucasimir.dielectric import _rule
from aucasimir.lifshitz import (_P_ORDER, _Y_EDGES, _matsubara_rule, _p_rule,
                                _zero_T_rule)
from aucasimir.optical import OMEGA0_DEFAULT

from conftest import ROW2, drude_dataset

DRUDE_CONFIG = Path(__file__).parents[1] / "perfbench" / "drude_config.ini"
#: the kernel census's scan, `force --mode both --a-range` on DRUDE_CONFIG
KERNEL_SCAN_NM = (60, 200, 8)
#: the p-rule bands, in the order of `_p_rule`'s band numbers
BANDS = ("near", "far", "top", "tail")


def dispersion_census() -> None:
    row2 = DrudeParameters(*ROW2)
    models = {
        "bundled sample_config.ini":
            load_run_config(package_data_dir() / "sample_config.ini").build_evaluator(),
        "Drude data, 2 per decade":
            DielectricModel(row2, drude_dataset(row2, (OMEGA0_DEFAULT, 1e18), 2)),
    }
    print("dispersion rule: nodes per region")
    print(f"  {'model':<28}{'below omega1':>14}{'above omega1':>14}{'tail':>8}{'total':>8}")
    for name, model in models.items():
        omega_sq, _, columns = _rule(model)
        sizes = [omega_sq[cols].size for cols in columns]
        print(f"  {name:<28}{sizes[0]:>14}{sizes[1]:>14}{sizes[2]:>8}{sum(sizes):>8}")


def zero_T_census() -> None:
    print("zero-T rule: nodes per separation")
    print(f"  {'a':<8}{'default':>10}{'tightened':>11}")
    for label, a in (("20 nm", 20e-9), ("60 nm", 60e-9), ("200 nm", 200e-9), ("2 um", 2e-6)):
        counts = [int(_zero_T_rule(1.0, np.array([a]), tightened)[2][0])
                  for tightened in (False, True)]
        print(f"  {label:<8}{counts[0]:>10}{counts[1]:>11}")


def kernel_census() -> None:
    cfg = load_run_config(DRUDE_CONFIG)
    a = np.unique(np.linspace(*KERNEL_SCAN_NM) * 1e-9)
    print("p-integral kernel, force --mode both --a-range "
          f"{' '.join(map(str, KERNEL_SCAN_NM))} (Drude config)")
    print(f"  {'T':<8}{'band':<6}{'nodes':>6}{'rows':>8}{'elements':>10}")
    for temperature in (cfg.temperature, 0.0):
        zeta, _, counts, _ = (
            _matsubara_rule(temperature, cfg.sphere_radius, a) if temperature > 0
            else _zero_T_rule(cfg.sphere_radius, a, False))
        y = np.concatenate([zeta[:n] * x / c for x, n in zip(a, counts)])
        rows = np.bincount(np.digitize(y, _Y_EDGES), minlength=len(BANDS))
        for band, name in enumerate(BANDS):
            nodes = _p_rule(_P_ORDER, band)[0].size
            print(f"  {temperature:<8g}{name:<6}{nodes:>6}{rows[band]:>8}"
                  f"{rows[band] * nodes:>10}")


def main() -> None:
    dispersion_census()
    zero_T_census()
    kernel_census()


if __name__ == "__main__":
    main()
