"""The tabulated path against the closed form of the model that generated
its table.

A Drude + Lorentz eps''(omega) has eps(i zeta) in closed form,

    1 + omega_p^2 / (zeta (zeta + omega_tau)) + sum S w0^2 / (w0^2 + zeta^2 + g zeta),

so a table sampled from one measures the whole tabulated path: the Drude
segment below omega0, the dispersion rule, the log-log interpolant of the
table and the power-law tail.  The rule's own error is at rounding (its
bound is 2.3e-18), so what these tests measure is the interpolant's.  The
bundled table is such a sample (demos/make_gold_synthetic.py, 30 samples
per decade); seeded spectra at 10, 30 and 100 samples per decade are
written in the same file format and read back with `load_dataset`.  Every
bound is the measured worst case, rounded up in its last digit.
"""

import math

import numpy as np
import pytest

from aucasimir import DrudeParameters, force_scan, load_dataset
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.optical import drude_eps2

#: the generator of the bundled table: (omega_p, omega_tau) and each
#: oscillator's (strength, center, width), as in demos/make_gold_synthetic.py
BUNDLED_DRUDE = (1.38e16, 5.38e13)
BUNDLED_OSCILLATORS = ((1.2, 4.0e15, 2.0e15), (1.1, 6.5e15, 3.5e15))
ZETAS = np.geomspace(1e11, 1e18, 4001)
SEPARATIONS_NM = (63, 100, 200)
#: relative shortfall of the bundled table's force below the closed form's,
#: per separation in nm and temperature in K (measured 4.419e-5, 4.535e-5,
#: 2.4301e-5, 2.499e-5, 7.660e-6 and 7.909e-6)
BUNDLED_FORCE_LOW = {(63, 300.0): 4.42e-5, (63, 0.0): 4.54e-5,
                     (100, 300.0): 2.44e-5, (100, 0.0): 2.50e-5,
                     (200, 300.0): 7.66e-6, (200, 0.0): 7.91e-6}
#: samples per decade -> the worst relative deviation over SEEDS of
#: eps(i zeta) on ZETAS and of F at SEPARATIONS_NM, 300 K and 0 K (measured
#: 6.113e-3/1.301e-3, 6.971e-4/1.465e-4 and 6.407e-5/1.378e-5, each worst
#: for F at 63 nm and 0 K)
SEEDED_BOUNDS = {10: (6.12e-3, 1.31e-3), 30: (6.98e-4, 1.47e-4), 100: (6.41e-5, 1.38e-5)}
SEEDS = range(12)


@pytest.fixture(scope="module")
def config():
    return load_run_config(package_data_dir() / "sample_config.ini")


@pytest.fixture(scope="module")
def bundled(config):
    return config.build_evaluator()


def closed_form(drude, oscillators):
    """eps(i zeta) of a Drude + Lorentz eps''(omega)."""
    omega_p, omega_tau = drude

    def eps(zeta):
        zeta = np.asarray(zeta, dtype=float)
        total = 1.0 + omega_p**2 / (zeta * (zeta + omega_tau))
        for strength, center, width in oscillators:
            total = total + strength * center**2 / (center**2 + zeta * zeta + width * zeta)
        return total
    return eps


def lorentz_eps2(strength, center, width, omega):
    return strength * center**2 * width * omega / (
        (center**2 - omega * omega)**2 + (width * omega)**2)


def forces(config, eps):
    """{(a in nm, T in K): F} at SEPARATIONS_NM, 300 K and 0 K."""
    separations = [a_nm * 1e-9 for a_nm in SEPARATIONS_NM]
    return {(a_nm, t): result.total
            for t in (300.0, 0.0)
            for a_nm, result in zip(SEPARATIONS_NM,
                                    force_scan(config.sphere_radius, separations, t, eps))}


def seeded_model(bundled, tmp_path, seed, per_decade):
    """(model, closed form) of a seeded Drude + two-Lorentz spectrum,
    sampled log-uniformly with a seeded offset from the bundled omega0 to
    1e18 rad/s (both ends exact), written as the demo writes the bundled
    table and loaded with `load_dataset`."""
    rng = np.random.default_rng(seed)
    drude = (rng.uniform(0.8e16, 1.8e16), rng.uniform(1e13, 2e14))
    oscillators = [(rng.uniform(0.5, 2.0), center, rng.uniform(0.3, 1.0) * center)
                   for center in np.exp(rng.uniform(math.log(2e15), math.log(1e16), 2))]
    lo, hi = bundled.omega0, 1e18
    steps = np.arange(math.ceil(per_decade * math.log10(hi / lo)) + 1)
    inner = lo * 10.0**((steps + rng.uniform()) / per_decade)
    omega = np.concatenate(([lo], inner[inner < hi], [hi]))
    eps2 = drude_eps2(*drude, omega)
    for oscillator in oscillators:
        eps2 = eps2 + lorentz_eps2(*oscillator, omega)
    path = tmp_path / f"seed{seed}_{per_decade}.csv"
    path.write_text("# unit=rad_s\n" + "".join(f"{w:.9e},{e:.9e}\n"
                                               for w, e in zip(omega, eps2)))
    model = bundled._replace(drude=DrudeParameters(*drude), dataset=load_dataset(path))
    return model, closed_form(drude, oscillators)


def test_bundled_table_is_below_its_generator(config, bundled):
    assert bundled.drude == DrudeParameters(*BUNDLED_DRUDE)
    exact = closed_form(BUNDLED_DRUDE, BUNDLED_OSCILLATORS)
    low = 1.0 - bundled.epsilon(ZETAS) / exact(ZETAS)
    # below at every zeta, by at most 2.994e-4 (at 9.2e15 rad/s)
    assert (low > 0).all()
    assert low.max() <= 3.0e-4
    assert ZETAS[low.argmax()] == pytest.approx(9.22e15, rel=1e-3)
    tabulated, reference = forces(config, bundled.epsilon), forces(config, exact)
    for key, bound in BUNDLED_FORCE_LOW.items():
        assert 0 < 1.0 - tabulated[key] / reference[key] <= bound, key


@pytest.mark.parametrize("per_decade", SEEDED_BOUNDS)
def test_seeded_spectra_within_the_interpolant_bound(config, bundled, tmp_path,
                                                     per_decade):
    eps_bound, force_bound = SEEDED_BOUNDS[per_decade]
    for seed in SEEDS:
        model, exact = seeded_model(bundled, tmp_path, seed, per_decade)
        deviation = np.abs(model.epsilon(ZETAS) / exact(ZETAS) - 1.0)
        assert deviation.max() <= eps_bound, seed
        tabulated, reference = forces(config, model.epsilon), forces(config, exact)
        for key in tabulated:
            assert abs(tabulated[key] / reference[key] - 1.0) <= force_bound, (seed, key)
