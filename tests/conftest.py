import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import aucasimir
from aucasimir import DrudeParameters, OpticalDataset, force_scan
from aucasimir.optical import OMEGA0_DEFAULT, drude_eps2

SPHERE_RADIUS = 95.65e-6

# Drude parameter sets used throughout: the three rows of the resistivity
# table plus the single-crystal values used for the thermal-correction
# anchors.
ROW1 = (1.38e16, 5.38e13)
ROW2 = (1.37e16, 4.06e13)
ROW3 = (1.28e16, 3.29e13)
SINGLE_CRYSTAL = (1.37e16, 3.7e13)


def pytest_report_header(config):
    """The tree under test: pyproject.toml's pythonpath puts this checkout's
    src/ ahead of PYTHONPATH, so another tree is tested only from inside it."""
    return [f"aucasimir: {Path(aucasimir.__file__).parent}",
            f"numpy: {np.__version__}"]


#: Drude metals around gold, for property tests
drude_rows = st.builds(DrudeParameters,
                       st.floats(0.8e16, 1.8e16),
                       st.floats(1e13, 2e14))


def drude_dataset(drude, omega_range, points_per_decade=20):
    """Exact Drude eps'' of `drude` sampled log-uniformly over omega_range,
    both ends exact."""
    lo, hi = omega_range
    n_nodes = round(points_per_decade * math.log10(hi / lo)) + 1
    omega = np.exp(np.linspace(math.log(lo), math.log(hi), n_nodes))
    omega[0], omega[-1] = lo, hi  # exp(log(.)) can drift by an ulp
    return OpticalDataset(omega, drude_eps2(drude.omega_p, drude.omega_tau, omega))


@pytest.fixture(scope="session")
def row1():
    return DrudeParameters(*ROW1)


@pytest.fixture(scope="session")
def row2():
    return DrudeParameters(*ROW2)


@pytest.fixture(scope="session")
def row3():
    return DrudeParameters(*ROW3)


@pytest.fixture(scope="session")
def single_crystal():
    return DrudeParameters(*SINGLE_CRYSTAL)


@pytest.fixture(scope="session")
def pure_drude_dataset(row2):
    """Exact Drude eps'' sampled densely over a wide range."""
    return drude_dataset(row2, (OMEGA0_DEFAULT, 1e18), points_per_decade=30)


@pytest.fixture(scope="session")
def ideal_eps():
    """eps -> infinity stand-in; large enough that 1/sqrt(eps) < 1e-9."""
    return lambda zeta: 1e18


@pytest.fixture(scope="session")
def finite_forces(single_crystal):
    """Finite-T ForceResults on a separation grid, keyed by nm."""
    grid = (60, 100, 150, 200)
    scan = force_scan(SPHERE_RADIUS, [a_nm * 1e-9 for a_nm in grid], 300.0,
                      single_crystal.epsilon)
    return dict(zip(grid, scan))


@pytest.fixture(scope="session")
def zero_forces(single_crystal):
    """Zero-T forces on a separation grid, keyed by nm."""
    grid = (60, 100, 200)
    scan = force_scan(SPHERE_RADIUS, [a_nm * 1e-9 for a_nm in grid], 0.0,
                      single_crystal.epsilon)
    return {a_nm: r.total for a_nm, r in zip(grid, scan)}
