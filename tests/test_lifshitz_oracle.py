"""Checks of the test-only Lifshitz oracle, and of the library against it.

The oracle (`lifshitz_oracle`) is the reference for acceptance anchor C3b,
so its own pieces are checked here against closed forms and mpmath.
"""

import math

import numpy as np
import pytest
from scipy.constants import Boltzmann, c, hbar
from scipy.special import zeta as riemann_zeta

from aucasimir import DrudeParameters, force_scan, ideal_force, lifshitz
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.lifshitz import (_P_ORDER, _PER_DECADE, _Y_FAR, _Y_MAX, _Y_TAIL,
                                _Y_TOP, _matsubara_rule, _p_integral, _zero_T_rule)

import lifshitz_oracle
from conftest import ROW1, SINGLE_CRYSTAL, SPHERE_RADIUS, TAIL_RTOL

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
    assert value == pytest.approx(float(reference), rel=1e-13, abs=0)


def p_integral_mpmath(eps, y):
    """-int_1^inf dp p ln[(1 - g_te)(1 - g_tm)] by mpmath quadrature, with
    the textbook round-trip factors at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        e, ym = mp.mpf(eps), mp.mpf(y)

        def integrand(p):
            s = mp.sqrt(e - 1 + p * p)
            damping = mp.exp(-2 * p * ym)
            g_te = ((p - s) / (p + s))**2 * damping
            g_tm = ((e * p - s) / (e * p + s))**2 * damping
            return -p * (mp.log1p(-g_te) + mp.log1p(-g_tm))

        # quad stops on an absolute error, so the integrand is scaled to 1
        # at p = 1 (it is below 1e-30 there at y = 20, eps = 1 + 1e-6)
        scale = integrand(mp.mpf(1))
        return float(scale * mp.quad(lambda p: integrand(p) / scale,
                                     [1, 1 + 1 / ym, 1 + 4 / ym, 1 + 16 / ym,
                                      1 + 64 / ym, mp.inf]))


@pytest.mark.parametrize("eps", [1 + 1e-6, 1.5, 1e3, 1e8])
@pytest.mark.parametrize("y", [0.01, 0.1, np.nextafter(_Y_FAR, 0.0)])
def test_near_p_rule_matches_mpmath(y, eps):
    # rows below y = zeta a / c = _Y_FAR take the near rule, four panels of
    # `_P_ORDER` nodes in v = u^(1/4)
    value = _p_integral(np.array([eps]), np.array([y]), _P_ORDER)[0]
    assert value == pytest.approx(p_integral_mpmath(eps, y), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [1 + 1e-6, 1.5, 1e3, 1e8])
@pytest.mark.parametrize("y", [_Y_FAR, np.nextafter(_Y_TOP, 0.0), _Y_TOP,
                               np.nextafter(_Y_TAIL, 0.0), _Y_TAIL, _Y_MAX,
                               20.0, _Y_MAX * 10 ** 0.25,
                               _Y_MAX * 10 ** (1 / _PER_DECADE)])
def test_far_p_rule_matches_mpmath(y, eps):
    # rows from y = zeta a / c = _Y_FAR on take the one-panel far rule, from
    # _Y_TOP on the top rule and from _Y_TAIL on the tail rule, held to
    # TAIL_RTOL; the Matsubara sum stops at _Y_MAX, the zero-T integral's
    # nodes stay below its last edge, a panel above that (0.8 decades,
    # y = 94.6; 10^0.25 is a y inside that panel)
    value = _p_integral(np.array([eps]), np.array([y]), _P_ORDER)[0]
    assert value == pytest.approx(p_integral_mpmath(eps, y),
                                  rel=1e-14 if y < _Y_TAIL else TAIL_RTOL, abs=0)


def test_library_decomposition_matches_oracle(finite_forces, zero_forces):
    oracle = lifshitz_oracle.forces(SPHERE_RADIUS, A60, 300.0,
                                    lifshitz_oracle.drude_chi(*SINGLE_CRYSTAL))
    library = finite_forces[60]
    assert library.n0_term == pytest.approx(oracle.n0, rel=1e-12)
    assert library.sum_terms == pytest.approx(oracle.matsubara, rel=1e-10)
    assert zero_forces[60] == pytest.approx(oracle.zero_T, rel=1e-9)


ORACLE_ROWS = {"single": SINGLE_CRYSTAL, "row1": ROW1, "slow_tau": (1.37e16, 1e13)}
#: 20 nm-2 um, the separations of the tail rule's force bound
TAIL_BOUND_SEPARATIONS = np.geomspace(20e-9, 2e-6, 401)
#: every row, temperature and separation, but 10 K at 20 nm (1.3 s of
#: oracle each) for the slow_tau row only, which has the worst gaps
ORACLE_CASES = [pytest.param(row, temperature, a_nm,
                             id=f"{a_nm}-{temperature}-{name}")
                for a_nm in (20, 60, 100, 200)
                for temperature in (10.0, 77.0, 300.0)
                for name, row in ORACLE_ROWS.items()
                if (a_nm, temperature) != (20, 10.0) or name == "slow_tau"]


@pytest.mark.parametrize("row, temperature, a_nm", ORACLE_CASES)
def test_library_forces_match_oracle(row, temperature, a_nm):
    # measured gaps at 20-200 nm and 10-300 K: finite T 1.0e-13 relative at
    # worst (slow_tau, 10 K, 20 nm); zero T 6.4e-12 for the first two rows
    # and 3.8e-11 for omega_tau = 1e13 rad/s at 200 nm
    a = a_nm * 1e-9
    oracle = lifshitz_oracle.forces(SPHERE_RADIUS, a, temperature,
                                    lifshitz_oracle.drude_chi(*row))
    finite, zero = (force_scan(SPHERE_RADIUS, [a], t,
                               DrudeParameters(*row).epsilon)[0]
                    for t in (temperature, 0.0))
    assert finite.total == pytest.approx(oracle.n0 + oracle.matsubara, rel=1e-10)
    assert zero.total == pytest.approx(oracle.zero_T, rel=1e-10)


@pytest.mark.filterwarnings("ignore:sphere_radius / separation < 100")
def test_zero_T_beyond_200_nm_matches_oracle():
    # the default rule's first panel [0, zeta_min] holds the transverse-
    # electric feature near omega_tau c^2 / (omega_p a)^2 out here: measured
    # gaps 9.4e-10, 9.7e-9 and 7.9e-8 at 500 nm, 1 um and 2 um, and
    # 1.6e-13 to 2.7e-11 with the tightened rule
    row = (1.37e16, 1e13)
    bounds = {500: 1e-9, 1000: 1e-8, 2000: 1e-7}
    separations = [a_nm * 1e-9 for a_nm in bounds]
    default, tightened = (force_scan(SPHERE_RADIUS, separations, 0.0,
                                     DrudeParameters(*row).epsilon,
                                     tightened=tight) for tight in (False, True))
    for a, bound, coarse, fine in zip(separations, bounds.values(), default,
                                      tightened):
        oracle = lifshitz_oracle.forces(SPHERE_RADIUS, a, 300.0,
                                        lifshitz_oracle.drude_chi(*row)).zero_T
        assert coarse.total == pytest.approx(oracle, rel=bound, abs=0)
        assert fine.total == pytest.approx(oracle, rel=3e-11, abs=0)


def perfect_conductor_p_integral(y):
    """-2 int_1^inf dp p ln(1 - exp(-2 p y)), the p-integral at eps -> inf,
    as its series sum_k (2 / k) e^(-k Y) (1 / (k Y) + 1 / (k Y)^2), Y = 2 y,
    to k = 4: good to e^(-4 Y) relative, below 1e-27 at y >= 8."""
    k = np.arange(1, 5)[:, None]
    kY = 2.0 * k * y
    return (2.0 / k * np.exp(-kY) * (1.0 / kY + 1.0 / kY**2)).sum(axis=0)


@pytest.mark.filterwarnings("ignore:sphere_radius / separation < 100")
@pytest.mark.parametrize("temperature", [0.0, 10.0, 77.0, 300.0])
def test_tail_rule_moves_no_force(temperature, monkeypatch):
    # each row at y >= _Y_TAIL is within TAIL_RTOL of its p-integral
    # (test_far_p_rule_matches_mpmath) and at most the perfect-conductor
    # one, so the tail rule moves a force by at most TAIL_RTOL times the
    # perfect-conductor terms of those rows: at 20 nm-2 um they sum to at
    # most 2.9e-6 of ideal_force (300 K, 1.95 um), against 1.2e-4 were
    # _Y_TAIL 6
    zeta, weights, counts, prefactor = (
        _matsubara_rule(temperature, SPHERE_RADIUS, TAIL_BOUND_SEPARATIONS)
        if temperature > 0 else _zero_T_rule(SPHERE_RADIUS, TAIL_BOUND_SEPARATIONS, False))
    for a, n in zip(TAIL_BOUND_SEPARATIONS, counts):
        y = zeta[:n] * a / c
        tail = y >= _Y_TAIL
        terms = (prefactor * weights[:n][tail] * zeta[:n][tail] ** 2
                 * perfect_conductor_p_integral(y[tail]))
        assert TAIL_RTOL * terms.sum() <= 1e-15 * ideal_force(SPHERE_RADIUS, a)
    # and every force is within 1e-15 of the one with the top rule on every
    # row from _Y_TOP on
    separations = TAIL_BOUND_SEPARATIONS[::10]
    tabulated = load_run_config(package_data_dir() / "sample_config.ini").build_evaluator()
    for eps in [DrudeParameters(*row).epsilon for row in ORACLE_ROWS.values()] + [
            tabulated.epsilon]:
        default = force_scan(SPHERE_RADIUS, separations, temperature, eps)
        with monkeypatch.context() as patch:
            patch.setattr(lifshitz, "_Y_EDGES", (_Y_FAR, _Y_TOP, math.inf))
            top = force_scan(SPHERE_RADIUS, separations, temperature, eps)
        for tail_rule, top_rule in zip(default, top):
            assert tail_rule.total == pytest.approx(top_rule.total, rel=1e-15, abs=0)


def test_tabulated_path_matches_independent_anchor():
    # `tabulated_anchor.py` (QUADPACK Kramers-Kronig eps fed to the k-space
    # oracle, about 2.5 minutes) printed these for the bundled config at 63 nm
    finite_anchor, zero_anchor = 446.4266477652371, 435.0460975108947
    cfg = load_run_config(package_data_dir() / "sample_config.ini")
    eps = cfg.build_evaluator().epsilon
    (finite,) = force_scan(cfg.sphere_radius, [63e-9], cfg.temperature, eps,
                           cfg.prescription)
    (zero,) = force_scan(cfg.sphere_radius, [63e-9], 0.0, eps)
    assert finite.total == pytest.approx(finite_anchor, rel=1e-10)
    assert zero.total == pytest.approx(zero_anchor, rel=1e-10)
