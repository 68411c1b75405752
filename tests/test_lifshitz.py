import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import Boltzmann as k_B, c, hbar

from aucasimir import (ConvergenceError, DielectricModel, DomainError,
                       DrudeParameters, Geometry, QuadratureSettings,
                       ThermalState, classical_term, force_finite_T,
                       force_scan, force_zero_T, ideal_force,
                       matsubara_frequency, reduction_factor,
                       temperature_correction)
from aucasimir._quadrature import gauss_legendre
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.lifshitz import (_BLOCK, _V_EDGES, ZETA3, _p_integral, _tail_bound,
                                _terms_needed, round_trip_factors)

from conftest import SPHERE_RADIUS, drude_rows


def ideal_matsubara_term_closed_form(n, g, t):
    """Perfect-conductor term via the polylogarithm series, in pN.

    For eps -> inf both round-trip factors reduce to exp(-2 p y) and the
    p-integral evaluates to dilogarithms:

        F_n = (k T R / 2 a^2) [ y Li2(e^-y) + Li3(e^-y) ],  y = 2 zeta_n a / c.
    """
    y = 2.0 * matsubara_frequency(n, t) * g.separation / c
    x = mp.e ** (-y)
    value = (k_B * t.temperature * g.sphere_radius / (2 * g.separation**2)
             * float(y * mp.polylog(2, x) + mp.polylog(3, x)))
    return value * 1e12


def ideal_force_finite_T_closed_form(g, t):
    """Perfect-conductor finite-T force: classical term plus the series."""
    total = k_B * t.temperature * g.sphere_radius * ZETA3 / (4 * g.separation**2) * 1e12
    n = 0
    while True:
        n += 1
        term = ideal_matsubara_term_closed_form(n, g, t)
        total += term
        if term < 1e-16 * total:
            return total


class TestIdealForce:
    def test_anchor(self, geometry63):
        assert ideal_force(geometry63) == pytest.approx(1042.0, rel=5e-3)
        assert ideal_force(geometry63) == pytest.approx(1041.615, rel=1e-5)

    def test_separation_scaling(self, geometry63):
        doubled = Geometry(SPHERE_RADIUS, 126e-9)
        assert ideal_force(doubled) == pytest.approx(ideal_force(geometry63) / 8,
                                                     rel=1e-12)

    def test_radius_linearity(self, geometry63):
        doubled = Geometry(2 * SPHERE_RADIUS, 63e-9)
        assert ideal_force(doubled) == pytest.approx(2 * ideal_force(geometry63),
                                                     rel=1e-12)


class TestClassicalTerm:
    def test_anchor(self, geometry63, thermal300):
        assert classical_term(geometry63, thermal300) == pytest.approx(
            29.9967, rel=1e-4)

    def test_halved_is_half(self, geometry63, thermal300):
        full = classical_term(geometry63, thermal300, "schwinger")
        assert classical_term(geometry63, thermal300, "halved") == full / 2

    def test_zero_temperature(self, geometry63):
        assert classical_term(geometry63, ThermalState(0.0)) == 0.0

    def test_unknown_prescription(self, geometry63, thermal300):
        with pytest.raises(ValueError, match="prescription"):
            classical_term(geometry63, thermal300, "other")


class TestRoundTripFactors:
    def test_p_equals_one_identity(self):
        # at p = 1, s = sqrt(eps) and the TM factor takes the closed form
        eps, y = 34.0, 0.05
        g_te, g_tm = round_trip_factors(1.0, eps, y)
        s = math.sqrt(eps)
        assert g_tm == pytest.approx(
            ((eps - s) / (eps + s))**2 * math.exp(-2 * y), rel=1e-12)
        assert g_te == pytest.approx(
            ((1 - s) / (1 + s))**2 * math.exp(-2 * y), rel=1e-12)

    def test_in_place_kernel_equals_the_formula_bitwise(self):
        # _p_integral evaluates round_trip_factors operation for operation
        # in preallocated arrays; over more than one block, and a last one
        # that is partly filled, the results are the same floats
        order = 16
        v, w = gauss_legendre(_V_EDGES, order)
        ln_u, weights = 3.0 * np.log(v), 3.0 * w / v
        n = 2 * _BLOCK + 5
        y = np.geomspace(1e-4, 40.0, n)
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        p = 1.0 - ln_u / y[:, None]
        g_te, g_tm = round_trip_factors(p, eps[:, None], y[:, None])
        integrand = p * (np.log1p(-g_te) + np.log1p(-g_tm))
        expected = np.concatenate([
            -(integrand[i:i + _BLOCK] @ weights) / y[i:i + _BLOCK]
            for i in range(0, n, _BLOCK)])
        assert np.array_equal(_p_integral(eps, y, order), expected)

    def test_blocks_keep_the_bits_of_separate_calls(self):
        # given block lengths, each block gets the floats of a call of its
        # own (a scan's blocks are those of each separation alone)
        blocks = [_BLOCK, 23, 17, 5, _BLOCK, 1, 62, 3]
        n = sum(blocks)
        y = np.geomspace(1e-4, 40.0, n)
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        edges = np.cumsum([0] + blocks)
        expected = np.concatenate([_p_integral(eps[i:j], y[i:j], 16)
                                   for i, j in zip(edges[:-1], edges[1:])])
        assert np.array_equal(_p_integral(eps, y, 16, blocks), expected)


class TestEpsCheck:
    @pytest.mark.parametrize("force", [
        lambda g, t, eps: force_finite_T(g, t, eps),
        lambda g, t, eps: force_zero_T(g, eps)], ids=["finite_T", "zero_T"])
    def test_bad_eps_rejected(self, force, geometry63, thermal300):
        # eps(i zeta) <= 1 is no causal absorptive medium
        with pytest.raises(DomainError, match="exceed 1"):
            force(geometry63, thermal300, lambda z: 0.5)


class TestTailBound:
    def test_perfect_conductor_remainder(self, geometry63, thermal300):
        # the bound sums the perfect-conductor terms with Li_s(x) replaced
        # by x / (1 - x): never below their remainder, and tight once the
        # terms decay fast
        terms = [ideal_matsubara_term_closed_form(m, geometry63, thermal300)
                 for m in range(1, 300)]
        assert terms[-1] < 1e-9 * math.fsum(terms[100:])   # cut-off negligible
        y1 = matsubara_frequency(1, thermal300) * geometry63.separation / c
        scale = (k_B * thermal300.temperature * geometry63.sphere_radius
                 / (2 * geometry63.separation**2) * 1e12)
        for n in (1, 10, 100):
            remainder = math.fsum(terms[n:])
            bound = _tail_bound(n, y1, scale)
            assert bound >= remainder
            if n >= 100:
                assert bound == pytest.approx(remainder, rel=1e-4)

    def test_terms_needed_bisects_arrays_elementwise(self):
        def scalar(target, y1, scale, n_max):
            if _tail_bound(n_max, y1, scale) > target:
                return n_max
            lo, hi = 0, n_max
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _tail_bound(mid, y1, scale) > target:
                    lo = mid
                else:
                    hi = mid
            return hi

        rng = np.random.default_rng(9)
        y1 = 10.0 ** rng.uniform(-4, 0.5, 200)
        scale = 10.0 ** rng.uniform(-1, 3, 200)
        target = 10.0 ** rng.uniform(-14, 1, 200)
        for n_max in (1, 7, 1000, 1_000_000):
            counts = _terms_needed(target, y1, scale, n_max)
            assert counts.tolist() == [scalar(*args, n_max) for args
                                       in zip(target.tolist(), y1.tolist(),
                                              scale.tolist())]


class TestForceFiniteT:
    def test_ideal_metal_against_closed_form(self, geometry63, thermal300,
                                             ideal_eps):
        oracle = ideal_force_finite_T_closed_form(geometry63, thermal300)
        result = force_finite_T(geometry63, thermal300, ideal_eps)
        assert result.total == pytest.approx(oracle, rel=1e-6)

    def test_ideal_metal_near_zero_T_limit(self, geometry63, thermal300,
                                           ideal_eps):
        # thermal correction for a perfect conductor is tiny at 300 K
        result = force_finite_T(geometry63, thermal300, ideal_eps)
        assert result.total == pytest.approx(ideal_force(geometry63), rel=1.5e-2)

    def test_decomposition_identity(self, finite_forces):
        for result in finite_forces.values():
            assert result.total == result.n0_term + result.sum_terms
            assert result.total > 0

    def test_decreasing_in_separation(self, finite_forces):
        totals = [finite_forces[a].total for a in (60, 100, 150, 200)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_monotone_in_reflectivity(self, thermal300):
        g = Geometry(SPHERE_RADIUS, 100e-9)
        small = DrudeParameters(1.28e16, 5.38e13)
        large = DrudeParameters(1.38e16, 5.38e13)
        f_small = force_finite_T(g, thermal300, small.epsilon).total
        f_large = force_finite_T(g, thermal300, large.epsilon).total
        assert f_large > f_small

    def test_halved_prescription_shifts_by_half_classical(
            self, geometry63, thermal300, single_crystal):
        schwinger = force_finite_T(geometry63, thermal300, single_crystal.epsilon,
                                   "schwinger")
        halved = force_finite_T(geometry63, thermal300, single_crystal.epsilon,
                                "halved")
        assert halved.sum_terms == pytest.approx(schwinger.sum_terms, rel=1e-12)
        assert schwinger.total - halved.total == pytest.approx(
            classical_term(geometry63, thermal300) / 2, rel=1e-12)

    def test_deterministic(self, geometry63, thermal300, single_crystal):
        a = force_finite_T(geometry63, thermal300, single_crystal.epsilon)
        b = force_finite_T(geometry63, thermal300, single_crystal.epsilon)
        assert a == b

    def test_needs_positive_temperature(self, geometry63, single_crystal):
        with pytest.raises(ValueError, match="temperature"):
            force_finite_T(geometry63, ThermalState(0.0), single_crystal.epsilon)

    def test_non_convergence_reported(self, geometry63, thermal300,
                                      single_crystal):
        settings = QuadratureSettings(n_max=5)
        with pytest.raises(ConvergenceError, match="Matsubara"):
            force_finite_T(geometry63, thermal300, single_crystal.epsilon,
                           settings=settings)


#: lists of separations, unsorted and with repeats
scans = st.lists(st.floats(20e-9, 500e-9), min_size=1, max_size=15).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=30))


class TestForceScan:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(drude_rows, scans, st.floats(10.0, 400.0),
           st.sampled_from(("schwinger", "halved")))
    def test_equals_force_finite_T_per_separation(self, row, a, temperature,
                                                   prescription):
        t = ThermalState(temperature)
        geometries = [Geometry(SPHERE_RADIUS, x) for x in a]
        scan = force_scan(geometries, t, row.epsilon, prescription)
        # ForceResult equality compares every field with ==
        assert scan == tuple(force_finite_T(g, t, row.epsilon, prescription)
                             for g in geometries)

    @pytest.mark.parametrize("prescription", ["schwinger", "halved"])
    def test_tabulated_scan_equals_force_finite_T(self, prescription):
        cfg = load_run_config(package_data_dir() / "sample_config.ini")
        eps, _, _ = cfg.build_evaluator()
        t = ThermalState(cfg.temperature)
        geometries = [Geometry(cfg.sphere_radius, a_nm * 1e-9)
                      for a_nm in [63] + list(range(200, 149, -1))]
        scan = force_scan(geometries, t, eps, prescription)
        assert scan == tuple(force_finite_T(g, t, eps, prescription)
                             for g in geometries)

    def test_one_eps_call_over_the_largest_count(self, single_crystal,
                                                 thermal300):
        calls = []

        def eps(zeta):
            calls.append(zeta.size)
            return single_crystal.epsilon(zeta)

        geometries = [Geometry(SPHERE_RADIUS, a_nm * 1e-9)
                      for a_nm in (200, 60, 100, 60)]
        scan = force_scan(geometries, thermal300, eps)
        assert len(calls) == 1
        assert calls[0] >= max(r.n_terms_used for r in scan)
        assert scan[1] == scan[3]

    def test_non_convergence_names_the_separation(self, single_crystal,
                                                  thermal300):
        # 150 nm stops after 105 terms, 63 nm would need 255
        geometries = [Geometry(SPHERE_RADIUS, a_nm * 1e-9) for a_nm in (150, 63)]
        with pytest.raises(ConvergenceError, match="at a = 63 nm"):
            force_scan(geometries, thermal300, single_crystal.epsilon,
                       settings=QuadratureSettings(n_max=200))

    def test_hopeless_sum_raises_before_eps(self):
        # at 0.05 K the tail bound after n_max terms exceeds sum_rel_tol
        # times the largest total the force can reach
        def eps(zeta):
            raise AssertionError("eps called")

        with pytest.raises(ConvergenceError, match="at a = 63 nm, T = 0.05 K"):
            force_scan([Geometry(SPHERE_RADIUS, 63e-9)], ThermalState(0.05), eps)

    def test_needs_positive_temperature(self, geometry63, single_crystal):
        with pytest.raises(ValueError, match="temperature"):
            force_scan([geometry63], ThermalState(0.0), single_crystal.epsilon)

    def test_needs_a_geometry(self, thermal300, single_crystal):
        with pytest.raises(ValueError, match="geometry"):
            force_scan([], thermal300, single_crystal.epsilon)


class TestForceZeroT:
    def test_perfect_conductor_limit(self, geometry63, ideal_eps):
        assert force_zero_T(geometry63, ideal_eps) == pytest.approx(
            ideal_force(geometry63), rel=1e-6)

    def test_finite_T_exceeds_zero_T_for_drude(self, finite_forces, zero_forces):
        for a_nm in (60, 100, 200):
            assert finite_forces[a_nm].total > zero_forces[a_nm]

    def test_eta_between_zero_and_one(self, zero_forces):
        for a_nm, force in zero_forces.items():
            g = Geometry(SPHERE_RADIUS, a_nm * 1e-9)
            assert 0.0 < reduction_factor(force, g) < 1.0


class TestTabulatedPath:
    """Forces from a DielectricModel built on exact Drude data reproduce the
    pure-Drude forces: the data path differs only by the log-log
    interpolant between samples and the omega^-3 tail above 1e18 rad/s."""

    def test_finite_T(self, row2, pure_drude_dataset, geometry63, thermal300):
        model = DielectricModel(row2, pure_drude_dataset)
        tabulated = force_finite_T(geometry63, thermal300, model.epsilon)
        drude = force_finite_T(geometry63, thermal300, row2.epsilon)
        assert tabulated.n_terms_used == drude.n_terms_used
        assert tabulated.total == pytest.approx(drude.total, rel=1e-5)

    def test_zero_T(self, row2, pure_drude_dataset, geometry63):
        model = DielectricModel(row2, pure_drude_dataset)
        assert force_zero_T(geometry63, model.epsilon) == pytest.approx(
            force_zero_T(geometry63, row2.epsilon), rel=1e-5)


class TestTemperatureCorrection:
    def test_matches_difference_of_parts(self, geometry63, thermal300,
                                         single_crystal):
        dtf = temperature_correction(geometry63, thermal300,
                                     single_crystal.epsilon)
        finite = force_finite_T(geometry63, thermal300, single_crystal.epsilon)
        zero = force_zero_T(geometry63, single_crystal.epsilon)
        assert dtf == pytest.approx(finite.total - zero, rel=1e-12)
        assert dtf > 0

    def test_vanishes_as_T_to_zero(self, single_crystal):
        # at 1 K the sum step resolves the integral almost perfectly
        g = Geometry(SPHERE_RADIUS, 100e-9)
        dtf = temperature_correction(g, ThermalState(1.0),
                                     single_crystal.epsilon)
        assert abs(dtf) < 0.1


# separations and temperatures around the experiment; derandomized so that
# every run draws the same examples
separations = st.floats(50e-9, 300e-9)
temperatures = st.floats(10.0, 400.0)
properties = settings(max_examples=25, deadline=None, derandomize=True)


class TestProperties:
    @properties
    @given(drude_rows, separations, separations, temperatures)
    def test_decreasing_in_separation(self, row, a1, a2, temperature):
        a_near, a_far = sorted((a1, a2))
        assume(a_far > 1.01 * a_near)
        near, far = Geometry(SPHERE_RADIUS, a_near), Geometry(SPHERE_RADIUS, a_far)
        t = ThermalState(temperature)
        assert (force_finite_T(near, t, row.epsilon).total
                > force_finite_T(far, t, row.epsilon).total)
        assert force_zero_T(near, row.epsilon) > force_zero_T(far, row.epsilon)

    @properties
    @given(drude_rows, st.floats(1.01, 1.5), separations, temperatures)
    def test_increasing_with_plasma_frequency(self, row, factor, a,
                                              temperature):
        brighter = DrudeParameters(factor * row.omega_p, row.omega_tau)
        g, t = Geometry(SPHERE_RADIUS, a), ThermalState(temperature)
        assert (force_finite_T(g, t, brighter.epsilon).total
                > force_finite_T(g, t, row.epsilon).total)
        assert force_zero_T(g, brighter.epsilon) > force_zero_T(g, row.epsilon)

    @properties
    @given(drude_rows, separations, temperatures)
    def test_finite_T_exceeds_zero_T_under_schwinger(self, row, a,
                                                     temperature):
        g = Geometry(SPHERE_RADIUS, a)
        finite = force_finite_T(g, ThermalState(temperature), row.epsilon,
                                "schwinger")
        assert finite.total >= force_zero_T(g, row.epsilon)


class TestDomainTypes:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Geometry(0.0, 63e-9)
        with pytest.raises(ValueError):
            Geometry(95.65e-6, -1e-9)

    @pytest.mark.parametrize("radius, separation", [
        (math.inf, 63e-9), (math.nan, 63e-9), (95.65e-6, math.inf),
        (95.65e-6, math.nan)])
    def test_geometry_rejects_non_finite(self, radius, separation):
        with pytest.raises(ValueError, match="finite"):
            Geometry(radius, separation)

    def test_geometry_warns_when_curvature_matters(self):
        with pytest.warns(UserWarning, match="R >> a"):
            Geometry(1e-6, 5e-8)

    def test_thermal_state_validation(self):
        with pytest.raises(ValueError):
            ThermalState(-1.0)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_thermal_state_rejects_non_finite(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            ThermalState(temperature)

    def test_reduction_factor_needs_positive_force(self, geometry63):
        with pytest.raises(ValueError):
            reduction_factor(0.0, geometry63)

    def test_matsubara_frequency(self, thermal300):
        expected = 2 * math.pi * k_B * 300.0 / hbar
        assert matsubara_frequency(1, thermal300) == pytest.approx(expected)
