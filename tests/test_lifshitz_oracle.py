"""Checks of the test-only Lifshitz oracle, and of the library against it.

The oracle (`lifshitz_oracle`) is the reference for acceptance anchor C3b,
so its own pieces are checked here against closed forms and mpmath.
"""

import math

import pytest
from scipy.constants import Boltzmann, c, hbar
from scipy.special import zeta as riemann_zeta

from aucasimir import (DrudeParameters, Geometry, ThermalState,
                       force_finite_T, force_zero_T)

import lifshitz_oracle
from conftest import ROW1, SINGLE_CRYSTAL, SPHERE_RADIUS

A60 = 60e-9


def test_static_term_matches_zeta3():
    # I_0 = -2 int x ln(1 - e^{-2x}) dx = zeta(3) / 2
    assert lifshitz_oracle.static_ideal_integral() == pytest.approx(
        riemann_zeta(3) / 2, rel=1e-14)


@pytest.mark.parametrize("n", [1, 10, 100])
def test_k_integral_matches_mpmath(n):
    mp = pytest.importorskip("mpmath")
    omega_p, omega_tau = SINGLE_CRYSTAL
    y = 2 * math.pi * n * Boltzmann * 300.0 * A60 / (hbar * c)
    chi = lifshitz_oracle.drude_chi(omega_p, omega_tau)(y * c / A60)
    value = lifshitz_oracle.k_integral([y], [chi])[0]

    with mp.workdps(25):
        ym = mp.mpf(y)
        zeta = ym * c / A60
        eps = 1 + mp.mpf(omega_p)**2 / (zeta * (zeta + omega_tau))

        def integrand(x):
            w = mp.sqrt(x * x + ym * ym)
            w_m = mp.sqrt(x * x + eps * ym * ym)
            r_te = (w - w_m) / (w + w_m)
            r_tm = (eps * w - w_m) / (eps * w + w_m)
            damping = mp.exp(-2 * w)
            return -x * (mp.log(1 - r_te**2 * damping)
                         + mp.log(1 - r_tm**2 * damping))

        reference = mp.quad(integrand, [0, ym, 1, 4, 16, mp.inf])
    assert value == pytest.approx(float(reference), rel=1e-13)


def test_library_decomposition_matches_oracle(finite_forces, zero_forces):
    oracle = lifshitz_oracle.forces(SPHERE_RADIUS, A60, 300.0,
                                    lifshitz_oracle.drude_chi(*SINGLE_CRYSTAL))
    library = finite_forces[60]
    assert library.n0_term == pytest.approx(oracle.n0, rel=1e-12)
    assert library.sum_terms == pytest.approx(oracle.matsubara, rel=1e-10)
    assert zero_forces[60] == pytest.approx(oracle.zero_T, rel=1e-9)


@pytest.mark.parametrize("row", [SINGLE_CRYSTAL, ROW1], ids=["single", "row1"])
@pytest.mark.parametrize("temperature", [77.0, 300.0])
@pytest.mark.parametrize("a_nm", [60, 100, 200])
def test_library_forces_match_oracle(row, temperature, a_nm):
    # the zero-T rule agrees with the k-space integral to ~1e-11 relative
    a = a_nm * 1e-9
    oracle = lifshitz_oracle.forces(SPHERE_RADIUS, a, temperature,
                                    lifshitz_oracle.drude_chi(*row))
    g = Geometry(SPHERE_RADIUS, a)
    eps = DrudeParameters(*row).epsilon
    finite = force_finite_T(g, ThermalState(temperature), eps)
    assert finite.total == pytest.approx(oracle.n0 + oracle.matsubara, rel=1e-10)
    assert force_zero_T(g, eps) == pytest.approx(oracle.zero_T, rel=1e-10)
