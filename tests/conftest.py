import pytest
from hypothesis import strategies as st

from aucasimir import DrudeParameters, force_scan, generate_synthetic_dataset
from aucasimir.optical import OMEGA0_DEFAULT

SPHERE_RADIUS = 95.65e-6

# Drude parameter sets used throughout: the three rows of the resistivity
# table plus the single-crystal values used for the thermal-correction
# anchors.
ROW1 = (1.38e16, 5.38e13)
ROW2 = (1.37e16, 4.06e13)
ROW3 = (1.28e16, 3.29e13)
SINGLE_CRYSTAL = (1.37e16, 3.7e13)

#: Drude metals around gold, for property tests
drude_rows = st.builds(DrudeParameters,
                       st.floats(0.8e16, 1.8e16),
                       st.floats(1e13, 2e14))


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
    return generate_synthetic_dataset(row2, omega_range=(OMEGA0_DEFAULT, 1e18),
                                      points_per_decade=30)


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
