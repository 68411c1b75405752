"""Independent forces of the tabulated path at 63 nm, for tests only.

Feeds the adaptive QUADPACK Kramers-Kronig transform (`kk_oracle`) as
chi = eps - 1 into the k-space Lifshitz oracle (`lifshitz_oracle`), on the
model of the bundled `sample_config.ini`.  Neither the library's fixed
eps rule nor its p-kernel takes part, so the printed finite-T force (n=0
term in the ideal-conductor limit) and zero-T force are an anchor for the
whole chain from tabulated eps'' to force.
`test_lifshitz_oracle.py::test_tabulated_path_matches_independent_anchor`
pins them.  Each of the 1,395 frequencies is one QUADPACK transform, so a
run takes about 2.5 minutes on a 2-CPU x86-64 machine; run it from the
repository root, with the test extras installed:

    PYTHONPATH=src python tests/tabulated_anchor.py
"""

from __future__ import annotations

import numpy as np

from aucasimir.config import load_run_config, package_data_dir

import lifshitz_oracle
from kk_oracle import kk_epsilon

SEPARATION = 63e-9


def anchor() -> lifshitz_oracle.Forces:
    cfg = load_run_config(package_data_dir() / "sample_config.ini")
    _, _, model = cfg.build_evaluator()

    def chi(zeta):
        parts = [kk_epsilon(model, float(z)) for z in np.ravel(zeta)]
        return np.array([p.eps1 + p.eps2_part + p.eps3_part for p in parts])

    return lifshitz_oracle.forces(cfg.sphere_radius, SEPARATION,
                                  cfg.temperature, chi)


if __name__ == "__main__":
    forces = anchor()
    print(f"finite_T_pN = {forces.n0 + forces.matsubara!r}")
    print(f"zero_T_pN = {forces.zero_T!r}")
