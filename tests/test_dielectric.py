import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c, epsilon_0
from scipy.optimize import least_squares
from scipy.special import hyp2f1

from aucasimir import (ConvergenceError, DielectricModel, DomainError,
                       DrudeParameters, EpsilonDecomposition, epsilon1_analytic,
                       fit_drude, load_dataset, resistivity)
from aucasimir import dielectric, lifshitz
from aucasimir._quadrature import gauss_legendre, log_rule, log_sizing
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.dielectric import _BLOCK, _rule
from aucasimir.optical import OMEGA0_DEFAULT, drude_eps2

from conftest import drude_dataset, drude_rows
from kk_oracle import kk_epsilon


class TestDrudeImagAxis:
    def test_hand_value(self, row1):
        assert row1.epsilon(2.379e15) == pytest.approx(33.90465, rel=1e-5)

    def test_above_one_and_decreasing(self, row1):
        grid = np.logspace(11, 18, 30)
        values = [row1.epsilon(z) for z in grid]
        assert all(v > 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_high_frequency_limit(self, row1):
        assert row1.epsilon(1e22) == pytest.approx(1.0, abs=1e-9)

    def test_static_limit_resistivity(self, row1):
        # zeta (eps - 1) eps0 rho -> 1 as zeta -> 0
        rho_si = resistivity(row1) / 1e8
        zeta = 1e10
        product = zeta * (row1.epsilon(zeta) - 1.0) * epsilon_0 * rho_si
        assert product == pytest.approx(1.0, rel=1e-3)

    def test_zero_rejected(self, row1):
        with pytest.raises(ValueError):
            row1.epsilon(0.0)


class TestResistivity:
    @pytest.mark.parametrize("params,expected", [
        ((1.38e16, 5.38e13), 3.19),
        ((1.37e16, 4.06e13), 2.44),
        ((1.28e16, 3.29e13), 2.27),
    ])
    def test_table_rows(self, params, expected):
        assert resistivity(DrudeParameters(*params)) == pytest.approx(expected, rel=1e-2)


def eps1_mpmath(p, omega0, zeta=None, rel_offset=None, dps=50):
    """High-precision reference for the analytic low-frequency part.

    Either an absolute zeta or a relative offset from omega_tau; offsets
    are applied at working precision so arbitrarily small ones survive.
    """
    with mp.workdps(dps):
        wp, wt = mp.mpf(p.omega_p), mp.mpf(p.omega_tau)
        w0 = mp.mpf(omega0)
        z = wt * (1 + mp.mpf(rel_offset)) if zeta is None else mp.mpf(zeta)
        bracket = mp.atan(w0 / wt) - (wt / z) * mp.atan(w0 / z)
        return float(2 / mp.pi * wp**2 / (z**2 - wt**2) * bracket)


class TestEpsilon1Analytic:
    def test_anchor_value(self, row1):
        zeta = c / (2 * 63e-9)
        eps1 = epsilon1_analytic(row1, OMEGA0_DEFAULT, zeta)
        assert eps1 == pytest.approx(26.6, abs=0.5)
        # frozen regression of the exact formula value
        assert eps1 == pytest.approx(26.334, rel=1e-3)

    def test_zero_interval(self, row1):
        assert epsilon1_analytic(row1, 0.0, 1e15) == 0.0

    @pytest.mark.parametrize("zeta", [1e14, 1e15, 2.4e15])
    def test_wide_interval_recovers_drude(self, row1, zeta):
        eps1 = epsilon1_analytic(row1, 1e25, zeta)
        assert eps1 == pytest.approx(row1.epsilon(zeta) - 1.0, rel=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 1e-7, -1e-7, 1e-5, -1e-5,
                                        5e-5, 9.99e-5, -9.99e-5, 1.0001e-4,
                                        -1.0001e-4, 2e-4, 1e-3])
    def test_removable_singularity(self, row1, offset):
        # the closed form near zeta = omega_tau against a 50-digit evaluation
        zeta = row1.omega_tau * (1.0 + offset)
        if offset == 0.0:
            reference = eps1_mpmath(row1, OMEGA0_DEFAULT, rel_offset="1e-30")
        else:
            reference = eps1_mpmath(row1, OMEGA0_DEFAULT, zeta)
        assert epsilon1_analytic(row1, OMEGA0_DEFAULT, zeta) == pytest.approx(
            reference, rel=1e-14)

    def test_closed_form_to_the_float_limit(self, bundled_model, row2):
        # 2,001 zeta up to 1e290 and three where omega_tau zeta and
        # omega0 (zeta - omega_tau) would overflow, as an array and one by
        # one, with no RuntimeWarning (an error here): the 50-digit value
        # below 2^512, and from there on, where zeta (zeta + omega_tau)
        # overflows, 0
        zetas = np.concatenate((np.geomspace(1e-10, 1e290, 2001), [1e294, 1e300, 1.7e308]))
        for args in ((bundled_model.drude, bundled_model.omega0), (row2, OMEGA0_DEFAULT)):
            eps1 = epsilon1_analytic(*args, zetas)
            assert np.array_equal(eps1, [epsilon1_analytic(*args, float(z)) for z in zetas])
            low = zetas < 2.0**512
            np.testing.assert_allclose(
                eps1[low], [eps1_mpmath(*args, z, dps=30) for z in zetas[low]], rtol=1e-14)
            assert eps1[~low].max() == 0.0 and eps1_mpmath(*args, 2.0**512) < 1e-276

    def test_invalid_zeta(self, row1):
        with pytest.raises(ValueError):
            epsilon1_analytic(row1, OMEGA0_DEFAULT, -1.0)
        # omega0 is checked after zeta
        with pytest.raises(ValueError, match="zeta must be positive"):
            epsilon1_analytic(row1, -1.0, -1.0)
        for omega0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="omega0 must be non-negative"):
                epsilon1_analytic(row1, omega0, 1e15)


class TestFitDrude:
    def test_recovers_exact_parameters(self, pure_drude_dataset, row2):
        fit = fit_drude(pure_drude_dataset, (2e14, 2e15))
        assert fit.parameters.omega_p == pytest.approx(row2.omega_p, rel=1e-6)
        assert fit.parameters.omega_tau == pytest.approx(row2.omega_tau, rel=1e-6)
        assert fit.rms_log_residual < 1e-9

    def test_fixed_omega_p_compensates(self, pure_drude_dataset):
        fit = fit_drude(pure_drude_dataset, (2e14, 2e15), omega_p_fixed=1.38e16)
        assert fit.parameters.omega_p == 1.38e16
        # omega_tau shifts to track omega_p^2 omega_tau, curve still close
        assert fit.rms_log_residual < 0.05

    def test_too_few_points(self, row2):
        ds = drude_dataset(row2, (1e14, 1e16), points_per_decade=1)
        with pytest.raises(ValueError, match="3 samples"):
            fit_drude(ds, (9e14, 2e15))

    def test_range_outside_coverage(self, pure_drude_dataset):
        with pytest.raises(ValueError, match="coverage"):
            fit_drude(pure_drude_dataset, (1e12, 1e13))

    @pytest.mark.parametrize("fit_range, omega_p_fixed, message", [
        ((2e15, 2e14), None, "0 < lo < hi"),
        ((2e14, 2e14), None, "0 < lo < hi"),
        ((-2e14, 2e15), None, "0 < lo < hi"),
        ((2e14, 2e15), 0.0, "omega_p_fixed"),
        ((2e14, 2e15), -1.38e16, "omega_p_fixed"),
        ((2e14, 2e15), math.inf, "omega_p_fixed"),
        ((2e14, 2e15), math.nan, "omega_p_fixed"),
    ])
    def test_bad_range_or_fixed_omega_p(self, pure_drude_dataset, fit_range,
                                        omega_p_fixed, message):
        with pytest.raises(ValueError, match=message):
            fit_drude(pure_drude_dataset, fit_range, omega_p_fixed)

    def test_knee_below_the_grid_has_no_minimum(self):
        # omega_tau far below the range leaves only omega_p^2 omega_tau
        # determined: phi(ln omega_tau) falls towards the grid's lower edge
        ds = drude_dataset(DrudeParameters(1.37e16, 1e9), (1e14, 1e16),
                           points_per_decade=10)
        with pytest.raises(ConvergenceError, match="no minimum"):
            fit_drude(ds, (2e14, 2e15))


#: fit ranges on the bundled data, from the Drude region into the wing of
#: the first interband (Lorentz) line
BUNDLED_FIT_RANGES = [(1.52e14, 1e15), (1.6e14, 6e14), (2e14, 2e15), (3e14, 3e15)]
FIXED_OMEGA_P = [None, 1.38e16]


@pytest.fixture(scope="module")
def bundled_dataset():
    return load_dataset(package_data_dir() / "gold_synthetic.csv")


def fit_samples(ds, fit_range):
    lo, hi = fit_range
    mask = (ds.omega >= lo) & (ds.omega <= hi)
    return ds.omega[mask], np.log(ds.eps2[mask])


def least_squares_fit(ds, fit_range, omega_p_fixed):
    """(omega_p, omega_tau, rms) by scipy's Levenberg-Marquardt on
    (ln omega_p, ln omega_tau), the fit as the library did it before it
    went numpy-only."""
    w, ln_data = fit_samples(ds, fit_range)
    if omega_p_fixed is None:
        def residuals(x):
            return np.log(drude_eps2(math.exp(x[0]), math.exp(x[1]), w)) - ln_data
        x0 = [math.log(1e16), math.log(5e13)]
    else:
        def residuals(x):
            return np.log(drude_eps2(omega_p_fixed, math.exp(x[0]), w)) - ln_data
        x0 = [math.log(5e13)]
    result = least_squares(residuals, x0, method="lm", xtol=1e-15, ftol=1e-15,
                           gtol=1e-15, max_nfev=500)
    assert result.success
    omega_p = omega_p_fixed if omega_p_fixed is not None else math.exp(result.x[0])
    return omega_p, math.exp(result.x[-1]), float(np.sqrt(np.mean(result.fun**2)))


def stationary_point(ds, fit_range, omega_p_fixed, start):
    """(omega_p, omega_tau) where the gradient of the sum of squares in
    (ln omega_p, ln omega_tau) vanishes, by mpmath's root finder at 40
    digits from `start`."""
    w, ln_data = fit_samples(ds, fit_range)
    with mp.workdps(40):
        w = [mp.mpf(float(x)) for x in w]
        ln_data = [mp.mpf(float(x)) for x in ln_data]

        def residuals_and_slopes(u, s):
            t2 = mp.exp(2 * s)
            r = [2 * u + s - mp.log(x) - mp.log(x * x + t2) - d
                 for x, d in zip(w, ln_data)]
            return r, [(x * x - t2) / (x * x + t2) for x in w]

        if omega_p_fixed is None:
            u, s = mp.findroot(
                lambda u, s: (mp.fsum(residuals_and_slopes(u, s)[0]),
                              mp.fdot(*residuals_and_slopes(u, s))),
                (mp.log(start[0]), mp.log(start[1])))
        else:
            u = mp.log(omega_p_fixed)
            s = mp.findroot(lambda s: mp.fdot(*residuals_and_slopes(u, s)),
                            mp.log(start[1]))
        return float(mp.exp(u)), float(mp.exp(s))


@pytest.mark.parametrize("omega_p_fixed", FIXED_OMEGA_P, ids=["free", "fixed"])
@pytest.mark.parametrize("fit_range", BUNDLED_FIT_RANGES, ids=str)
class TestFitDrudeOracles:
    def test_matches_least_squares(self, bundled_dataset, fit_range, omega_p_fixed):
        # LM stops on ftol = 1e-15, a relative decrease of the sum of
        # squares; at rms residuals up to 0.4 that leaves its parameters up
        # to ~6e-8 short of the minimum (the 40-digit oracle below), so the
        # parameters are compared at 1e-7 and the rms, flat at the minimum,
        # at 1e-12
        fit = fit_drude(bundled_dataset, fit_range, omega_p_fixed)
        omega_p, omega_tau, rms = least_squares_fit(bundled_dataset, fit_range,
                                                    omega_p_fixed)
        assert fit.parameters.omega_p == pytest.approx(omega_p, rel=1e-7)
        assert fit.parameters.omega_tau == pytest.approx(omega_tau, rel=1e-7)
        assert fit.rms_log_residual == pytest.approx(rms, abs=1e-12)
        if omega_p_fixed is not None:
            assert fit.parameters.omega_p == omega_p_fixed   # as given, no log/exp

    def test_matches_40_digit_stationary_point(self, bundled_dataset, fit_range,
                                               omega_p_fixed):
        # 1e-11 is the double-precision floor here: rounding in the ~1e2
        # sized log terms moves phi' by ~1e-14 against curvatures down to 0.1
        fit = fit_drude(bundled_dataset, fit_range, omega_p_fixed)
        p = fit.parameters
        omega_p, omega_tau = stationary_point(
            bundled_dataset, fit_range, omega_p_fixed,
            (p.omega_p * (1 + 1e-6), p.omega_tau * (1 - 1e-6)))
        assert p.omega_p == pytest.approx(omega_p, rel=1e-11)
        assert p.omega_tau == pytest.approx(omega_tau, rel=1e-11)


class TestTailSeries:
    """The tail column of `_rule` against the series of its integral: with
    x = zeta / omega_max,

        (2/pi) eps''(omega_max) int_0^1 t^(q-1) / (1 + x^2 t^2) dt
            = (2/pi) eps''(omega_max) 2F1(1, q/2; 1 + q/2; -x^2) / q.

    The rule stops at t_min = 10^(-18/q), capped at 0.1, so it leaves out at
    most (2/pi) eps''(omega_max) 1e-18 / q, an absolute bound at every zeta.
    Rounding adds a share of the value: each node ln omega is rounded by
    half an ulp of ln omega_max, which moves its weighted integrand by up to
    (q + 2) times that."""

    ZETAS = np.geomspace(1e10, 1e30, 81)

    def assert_tail_matches(self, dataset, row, q, series, zetas=ZETAS):
        model = DielectricModel(row, dataset, tail_exponent=q)
        omega_sq, weights, columns = _rule(model)
        tail = columns[2]
        got = (weights[tail] / (omega_sq[tail] + zetas[:, None]**2)).sum(axis=1)
        scale = (2.0 / math.pi) * dataset.eps2[-1] / q
        ref = scale * series
        tol = 1.01 * scale * 1e-18 + (q + 2) * np.spacing(math.log(dataset.omega_max)) * ref
        assert (np.abs(got - ref) <= tol).all(), np.max(np.abs(got - ref) / tol)

    def test_q2_is_log1p_over_x2(self, pure_drude_dataset, row2):
        # 2F1(1, 1; 2; -x^2) = ln(1 + x^2) / x^2
        x2 = (self.ZETAS / pure_drude_dataset.omega_max)**2
        self.assert_tail_matches(pure_drude_dataset, row2, 2.0, np.log1p(x2) / x2)

    @pytest.mark.parametrize("q", [1.05, 1.5, 2.0, 3.0, 4.0, 6.0])
    def test_matches_hyp2f1_up_to_the_limit(self, pure_drude_dataset, row2, q):
        # scipy's hyp2f1, a second reference, up to zeta = 100 omega_max,
        # where it reads 0.56 of the tolerance at q = 2; above, scipy loses
        # digits at q = 2 (b = a): 1.1 times the tolerance at 1.8e20 rad/s,
        # 56 at 5.6e22 and inf from 5.6e24
        zetas = self.ZETAS[self.ZETAS <= 100 * pure_drude_dataset.omega_max]
        x2 = (zetas / pure_drude_dataset.omega_max)**2
        series = hyp2f1(1.0, 0.5 * q, 1.0 + 0.5 * q, -x2)
        self.assert_tail_matches(pure_drude_dataset, row2, q, series, zetas)

    # the power law is too steep for the tail's panels from q ~ 20 on (at q
    # = 1e6 the column is 0)
    @pytest.mark.parametrize("q", [1.05, 1.5, 2, 3, 4, 4.5, 6, 18])
    def test_matches_mpmath_hyp2f1(self, pure_drude_dataset, row2, q):
        # at small zeta the part left out is the bound itself: measured 0.99
        # of the tolerance up to q = 4, 0.58 at q = 6 and 18
        with mp.workdps(40):
            b = mp.mpf(q) / 2
            series = np.array([float(mp.hyp2f1(1, b, 1 + b, -(mp.mpf(z) / mp.mpf(
                pure_drude_dataset.omega_max))**2)) for z in self.ZETAS])
        self.assert_tail_matches(pure_drude_dataset, row2, q, series)

    def test_every_zeta_of_the_drude_part(self, pure_drude_dataset, row2):
        # no tail limit: both models take zeta up to 2^512, where the Drude
        # part rounds to 0
        top = np.nextafter(2.0**512, 0.0)
        for model in (row2, DielectricModel(row2, pure_drude_dataset)):
            dec = model.decompose(np.array([1e24, top]))
            assert (dec.eps1 > 0).all() and (dec.eps3_part >= 0).all()
            with pytest.raises(DomainError,
                               match=re.escape("zeta=1.341e+154 rad/s is out of range")):
                model.decompose(2.0**512)

    @pytest.mark.parametrize("q", [18.0, 1e6, 1e300])
    def test_steep_tail_is_finite(self, bundled_model, q):
        # t_min is 0.1 from q = 18 on, so the tail segment keeps its width
        dec = bundled_model._replace(tail_exponent=q).decompose(self.ZETAS)
        assert (dec.eps3_part >= 0).all() and np.isfinite(dec.total).all()


class TestKKEpsilon:
    def test_drude_identity_at_1e15(self, pure_drude_dataset, row2):
        model = DielectricModel(row2, pure_drude_dataset)
        closed = 1.0 + row2.omega_p**2 / (1e15 * (1e15 + row2.omega_tau))
        assert model.epsilon(1e15) == pytest.approx(closed, rel=1e-3)

    def test_far_above_data(self, pure_drude_dataset, row2):
        dec = DielectricModel(row2, pure_drude_dataset).decompose(1e18)
        assert dec.eps1 < 1e-2
        assert dec.eps2_part < 1e-2
        assert dec.eps3_part < 1e-2
        assert dec.total == pytest.approx(1.0, abs=3e-2)

    def test_parts_positive_and_total_consistent(self, pure_drude_dataset, row2):
        dec = DielectricModel(row2, pure_drude_dataset).decompose(2.4e15)
        assert dec.eps1 > 0 and dec.eps2_part > 0 and dec.eps3_part > 0
        assert dec.total == 1.0 + dec.eps1 + dec.eps2_part + dec.eps3_part

    def test_total_decreasing(self, pure_drude_dataset, row2):
        model = DielectricModel(row2, pure_drude_dataset)
        values = [model.epsilon(z) for z in np.logspace(13.5, 16.5, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1 for v in values)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drude_rows)
    def test_drude_round_trip_property(self, row):
        # the transform of exact Drude data returns the closed form; C5
        # checks one row over [1e14, 1e16], this any row over [1e12, 1e18]
        ds = drude_dataset(row, (OMEGA0_DEFAULT, 1e18), points_per_decade=30)
        zetas = np.logspace(12, 18, 25)
        closed = 1.0 + row.omega_p**2 / (zetas * (zetas + row.omega_tau))
        np.testing.assert_allclose(DielectricModel(row, ds).epsilon(zetas),
                                   closed, rtol=1e-3)

    def test_invalid_zeta(self, pure_drude_dataset, row2):
        with pytest.raises(ValueError):
            DielectricModel(row2, pure_drude_dataset).decompose(0.0)

    def test_tail_exponent_insensitive_with_wide_data(self, pure_drude_dataset, row2):
        # data reach 1e18 rad/s, so the tail choice moves eps by < 1e-4
        base = DielectricModel(row2, pure_drude_dataset, tail_exponent=3.0)
        for q in (2.0, 4.0):
            varied = DielectricModel(row2, pure_drude_dataset, tail_exponent=q)
            assert varied.epsilon(2.4e15) == pytest.approx(
                base.epsilon(2.4e15), rel=1e-4)

    def test_model_validation(self, pure_drude_dataset, row2):
        for q in (0.9, math.inf):
            with pytest.raises(ValueError, match="tail_exponent"):
                DielectricModel(row2, pure_drude_dataset, tail_exponent=q)
        short = drude_dataset(row2, (1e15, 1e18), points_per_decade=10)
        with pytest.raises(ValueError, match="omega0"):
            DielectricModel(row2, short)
        low = drude_dataset(row2, (1e14, 1e15), points_per_decade=10)
        with pytest.raises(ValueError, match="omega1"):
            DielectricModel(row2, low)

    def test_boundaries_validation(self, row2, pure_drude_dataset):
        with pytest.raises(ValueError, match=r"need 0 < omega0 < omega1, got "
                                             r"\(3200000000000000.0, 150000000000000.0\)"):
            DielectricModel(row2, pure_drude_dataset, 3.2e15, 1.5e14)


# zeta over 1e12-1e19, past omega_max = 1e18 of the datasets below
ORACLE_ZETAS = np.logspace(12, 19, 8)


def coarse_dataset(drude, omega_lo=OMEGA0_DEFAULT):
    """Exact Drude eps'' at 2 points per decade: segments 1.15 wide in ln omega."""
    return drude_dataset(drude, (omega_lo, 1e18), points_per_decade=2)


class TestFixedNodeTransform:
    """The fixed-node rule against the adaptive QUADPACK oracle, and the
    array contract of every eps(i zeta) evaluator."""

    @staticmethod
    def assert_matches_oracle(model):
        dec = model.decompose(ORACLE_ZETAS)
        for i, zeta in enumerate(ORACLE_ZETAS):
            ref = kk_epsilon(model, float(zeta))
            for name in ("eps1", "eps2_part", "eps3_part"):
                assert getattr(dec, name)[i] == pytest.approx(
                    getattr(ref, name), rel=1e-10), (name, zeta)

    def test_dense_data_matches_oracle(self, pure_drude_dataset, row2):
        self.assert_matches_oracle(DielectricModel(row2, pure_drude_dataset))

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 4.0])
    def test_coarse_data_and_tail_exponents_match_oracle(self, row2, q):
        self.assert_matches_oracle(
            DielectricModel(row2, coarse_dataset(row2), tail_exponent=q))

    def test_data_an_ulp_above_omega0_matches_oracle(self, row2):
        ds = coarse_dataset(row2, np.nextafter(OMEGA0_DEFAULT, np.inf))
        assert ds.omega_min > OMEGA0_DEFAULT
        self.assert_matches_oracle(DielectricModel(row2, ds))

    def test_panel_cuts_equal_one_linspace_per_segment(self):
        # the cuts are np.linspace's own arithmetic over every segment at
        # once, and each segment takes the order `log_sizing` gives it: the
        # same floats as one linspace and one gauss_legendre call per segment
        rng = np.random.default_rng(4)
        ln_edges = 30.0 + np.cumsum(np.exp(rng.uniform(math.log(0.01),
                                                       math.log(20.0), 60)))
        orders, panels = log_sizing(np.diff(ln_edges))
        assert set(orders.tolist()) == {5, 8, 16, 32, 64}
        rules = [gauss_legendre(np.linspace(lo, hi, p + 1), n) for lo, hi, n, p
                 in zip(ln_edges[:-1], ln_edges[1:], orders, panels)]
        nodes, weights = log_rule(ln_edges)
        assert np.array_equal(nodes, np.concatenate([x for x, _ in rules]))
        assert np.array_equal(weights, np.concatenate([w for _, w in rules]))

    def test_array_equals_scalar_calls_bitwise(self, pure_drude_dataset, row2):
        model = DielectricModel(row2, pure_drude_dataset)
        # more values than one block of the broadcast sum, and omega_tau
        # itself, where eps1 takes its series branch
        zetas = np.concatenate((np.logspace(11, 20, 300), [row2.omega_tau]))
        dec = model.decompose(zetas)
        for name in ("eps1", "eps2_part", "eps3_part", "total"):
            loop = [getattr(model.decompose(float(z)), name) for z in zetas]
            assert np.array_equal(getattr(dec, name), loop), name
        assert np.array_equal(model.epsilon(zetas.reshape(7, 43)).ravel(),
                              [model.epsilon(float(z)) for z in zetas])
        assert np.array_equal(row2.epsilon(zetas),
                              [row2.epsilon(float(z)) for z in zetas])
        assert np.array_equal(
            epsilon1_analytic(row2, OMEGA0_DEFAULT, zetas),
            [epsilon1_analytic(row2, OMEGA0_DEFAULT, float(z)) for z in zetas])

    def test_scalar_in_scalar_out(self, pure_drude_dataset, row2):
        # a scalar zeta is a 0-d array: the result is a numpy float64 equal
        # to the matching element of the array call
        model = DielectricModel(row2, pure_drude_dataset)
        zetas = np.array([1e14, 1e15, row2.omega_tau])
        dec = model.decompose(zetas)
        for i, zeta in enumerate(zetas):
            one = model.decompose(float(zeta))
            for name in ("eps1", "eps2_part", "eps3_part", "total"):
                value = getattr(one, name)
                assert type(value) is np.float64, name
                assert value == getattr(dec, name)[i], name
            for evaluate in (model.epsilon, row2.epsilon,
                             lambda z: epsilon1_analytic(row2, OMEGA0_DEFAULT, z)):
                value = evaluate(float(zeta))
                assert type(value) is np.float64
                assert value == evaluate(zetas)[i]

    @pytest.mark.parametrize("bad", [0.0, -1e15, np.nan, np.inf])
    def test_nonpositive_element_rejected(self, pure_drude_dataset, row2, bad):
        zetas = np.array([1e14, bad, 1e15])
        model = DielectricModel(row2, pure_drude_dataset)
        for evaluate in (model.decompose, model.epsilon, row2.epsilon,
                         lambda z: epsilon1_analytic(row2, OMEGA0_DEFAULT, z)):
            with pytest.raises(ValueError, match="zeta must be positive"):
                evaluate(zetas)


@pytest.fixture(scope="module")
def bundled_model():
    model = load_run_config(package_data_dir() / "sample_config.ini"
                            ).build_evaluator()
    assert isinstance(model, DielectricModel)
    return model


class TestRuleAccuracy:
    """The default rule, the fewest nodes per ln-omega segment that keep
    the Bernstein bound at 2.3e-18 (5 nodes on each segment of the
    bundled data, 16 on each of coarse data, 3 panels of 32 on the tail),
    against 64 nodes on panels no wider than 0.125.  Measured worst
    relative deviations: parts 7.0e-15 (coarse data) and 7.8e-16 (dense
    data), totals 4.4e-16; the former rule, 8 nodes on panels no wider
    than 0.5, gave 7.5e-15, 5.6e-16 and 4.4e-16."""

    ZETAS = np.logspace(9, 19.5, 2001)

    @pytest.fixture(params=["bundled", "dense", 1.5, 4.0],
                    ids=["bundled", "drude-30-per-decade", "coarse-q1.5",
                         "coarse-q4"])
    def model(self, request, bundled_model, pure_drude_dataset, row2):
        if request.param == "bundled":
            return bundled_model
        if request.param == "dense":
            return DielectricModel(row2, pure_drude_dataset)
        return DielectricModel(row2, coarse_dataset(row2),
                               tail_exponent=request.param)

    @staticmethod
    def finer_rule(ln_edges):
        """64 nodes on panels no wider than 0.125 in every segment."""
        cuts = [np.linspace(lo, hi, math.ceil((hi - lo) / 0.125) + 1)[:-1]
                for lo, hi in zip(ln_edges[:-1], ln_edges[1:])]
        return gauss_legendre(np.concatenate(cuts + [ln_edges[-1:]]), 64)

    def test_matches_a_finer_rule(self, model, monkeypatch):
        dec = model.decompose(self.ZETAS)
        monkeypatch.setattr(dielectric, "log_rule", self.finer_rule)
        ref = model.decompose(self.ZETAS)
        for name in ("eps2_part", "eps3_part"):
            np.testing.assert_allclose(getattr(dec, name), getattr(ref, name),
                                       rtol=2e-14, atol=0, err_msg=name)
        np.testing.assert_allclose(dec.total, ref.total, rtol=1e-15, atol=0)

    def test_bundled_node_count(self, bundled_model, row2):
        # 116 data segments of 5 nodes and the 13.8-wide tail in 3 panels
        # of 32 (1,152 nodes at 8 a panel no wider than 0.5); coarse data,
        # segments 1.15 wide, take 16 nodes each (416 nodes at 8 a panel)
        _, weights, (_, _, tail) = _rule(bundled_model)
        assert (tail.start, weights.size) == (580, 676)
        assert _rule(DielectricModel(row2, coarse_dataset(row2)))[1].size == 232


class TestModelContract:
    """Both dielectric models answer `decompose` and `epsilon`, and
    `epsilon` is the decomposition's total."""

    ZETAS = np.logspace(11, 20, 301)

    def test_epsilon_is_the_total_bitwise(self, bundled_model, row2):
        for model in (row2, bundled_model):
            assert np.array_equal(model.epsilon(self.ZETAS),
                                  model.decompose(self.ZETAS).total)
            assert model.epsilon(2.4e15) == model.decompose(2.4e15).total

    def test_drude_has_no_data_parts(self, row2):
        dec = row2.decompose(self.ZETAS.reshape(7, 43))
        closed = row2.omega_p**2 / (self.ZETAS * (self.ZETAS + row2.omega_tau))
        assert np.array_equal(dec.eps1.ravel(), closed)
        for part in (dec.eps2_part, dec.eps3_part):
            assert part.shape == (7, 43) and not part.any()
        # adding the zero parts leaves 1 + eps1 as it is
        assert np.array_equal(dec.total.ravel(), 1.0 + closed)
        one = row2.decompose(1e15)
        assert type(one.eps2_part) is np.float64 and one.eps2_part == 0.0

    def test_counts_at_the_block_edges_keep_the_bits_of_one_zeta_calls(
            self, bundled_model):
        # the work array holds `step` zeta rows, refilled block by block
        step = _BLOCK // _rule(bundled_model)[1].size
        assert step > 1
        zetas = np.geomspace(1e13, 1e18, 2 * step + 3)
        alone = [bundled_model.decompose(float(z)) for z in zetas]
        for count in (1, step - 1, step, step + 1, 2 * step + 3):
            dec = bundled_model.decompose(zetas[:count])
            for name in ("eps1", "eps2_part", "eps3_part"):
                expected = [getattr(one, name) for one in alone[:count]]
                assert np.array_equal(getattr(dec, name), expected), (count, name)

    def test_block_size_moves_no_bit(self, bundled_model, monkeypatch):
        # one zeta row a block, one node row's worth, the default and all
        # rows in one block give the same parts, on the Matsubara zeta of
        # 63 nm at 300 K and on zeta off that grid; at the default every
        # work array is below glibc's 128 KiB mmap threshold
        matsubara = lifshitz._matsubara_rule(300.0, 1.0, np.array([63e-9]))[0]
        assert matsubara.size == 289
        sizes, aligned_empty = [], dielectric.aligned_empty

        def counted(shape):
            work = aligned_empty(shape)
            sizes.append(work.base.nbytes)
            return work

        monkeypatch.setattr(dielectric, "aligned_empty", counted)
        for zetas in (matsubara, np.geomspace(1.3e13, 1.1e18, 41)):
            sizes.clear()
            default = bundled_model.decompose(zetas)
            assert sizes and max(sizes) < 128 * 1024
            for block in (1, 676, 15 * 1024, 10**6):
                monkeypatch.setattr(dielectric, "_BLOCK", block)
                dec = bundled_model.decompose(zetas)
                for name in ("eps1", "eps2_part", "eps3_part"):
                    assert np.array_equal(getattr(dec, name), getattr(default, name)), (
                        block, name)
            monkeypatch.setattr(dielectric, "_BLOCK", _BLOCK)

    def test_tabulated_parts_positive(self, bundled_model):
        dec = bundled_model.decompose(np.logspace(13, 18, 51))
        for name in ("eps1", "eps2_part", "eps3_part"):
            assert (getattr(dec, name) > 0).all(), name

    def test_drude_eps1_rounding_to_zero_is_a_domain_error(self, row2):
        # zeta (zeta + omega_tau) overflows; RuntimeWarnings are errors here
        assert row2.decompose(1e150).eps1 > 0
        for evaluate in (row2.decompose, row2.epsilon):
            with pytest.raises(DomainError, match=re.escape("zeta=1e+200 rad/s")):
                evaluate(np.array([1e15, 1e200]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drude_rows, st.lists(st.floats(10.0, 19.0), min_size=1, max_size=16))
    def test_parts_in_domain_property(self, bundled_model, row, exponents):
        # what a decomposition promises, for a Drude row alone and over the
        # bundled table: eps1 positive and finite, the data parts not negative
        zetas = 10.0 ** np.array(exponents)
        for model in (row, bundled_model._replace(drude=row)):
            for dec in (model.decompose(zetas), model.decompose(zetas[0])):
                assert type(dec) is EpsilonDecomposition
                assert ((dec.eps1 > 0) & (dec.eps1 < math.inf)).all()
                assert (dec.eps2_part >= 0).all() and (dec.eps3_part >= 0).all()

    def test_decompose_checks_zeta_once(self, bundled_model, row2, monkeypatch):
        calls, positive_zeta = [], dielectric._positive_zeta

        def counted(zeta):
            calls.append(zeta)
            return positive_zeta(zeta)

        monkeypatch.setattr(dielectric, "_positive_zeta", counted)
        for model in (row2, bundled_model):
            for zeta in (1e15, self.ZETAS):
                calls.clear()
                model.decompose(zeta)
                assert len(calls) == 1, (type(model).__name__, np.shape(zeta))

    @pytest.mark.parametrize("zetas, error, message", [
        ([np.nan, 1e300, 5e-324], ValueError, "zeta must be positive"),
        ([5e-324, 1e15], DomainError, "zeta=4.941e-324 rad/s is out of range"),
        ([1e15, 1e300], DomainError, "zeta=1e+300 rad/s is out of range"),
    ], ids=["bad-zeta", "drude-part", "drude-part-rounds-to-0"])
    def test_error_precedence(self, bundled_model, zetas, error, message):
        # a bad zeta first, then a Drude part out of range, before any data
        # part is summed; RuntimeWarnings are errors here
        with pytest.raises(error, match=re.escape(message)):
            bundled_model.decompose(np.array(zetas))


class TestDrudeParameters:
    def test_validation(self):
        # omega_p = 1e200 is finite, but its square is not; a numpy float
        # must raise the ValueError, not an overflow warning
        for omega_p in (-1e16, 0.0, math.inf, 1e200, np.float64(1e200)):
            with pytest.raises(ValueError, match="omega_p"):
                DrudeParameters(omega_p, 1e13)
        with pytest.raises(ValueError):
            DrudeParameters(1e16, 2e16)  # omega_tau above omega_p
