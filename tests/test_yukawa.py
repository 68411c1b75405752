import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c, hbar
from scipy.optimize import bisect

from aucasimir import (ConstraintGeometry, ConvergenceError, DomainError,
                       YukawaHypothesis, allowed_lambda_boundary,
                       alpha_lower_limit, yukawa_force_oracle)
from aucasimir.yukawa import LAMBDA_BRACKET

from conftest import SPHERE_RADIUS
from quadpack import checked_quad

NUCLEON_DENSITY = 19300.0 / 1.6605e-27   # gold, nucleons per m^3


def film_force_by_quadpack(h, geom, sphere_radius):
    """Film-film Yukawa force [pN] by nested adaptive integration.

    The atom-atom potential -alpha n^2 hbar c exp(-r/lambda) / r is
    integrated over two sheets, then over the depth of each film, and the
    energy per area becomes a sphere-plate force by the proximity-force
    treatment, F = 2 pi R E_area.  Lengths are in units of lambda, so the
    exponential support is not a sliver for the adaptive quadrature.
    """
    epsrel = 1e-12
    t_film = geom.film_thickness / h.lambda_
    gap = geom.separation_min / h.lambda_

    def sheet_energy(z):
        # two unit-density sheets a distance z lambda apart:
        # 2 pi int_z^inf (r V(r) / r) dr in sheet-plane polar coordinates
        return -2.0 * math.pi * checked_quad(
            lambda r: math.exp(-r), z, math.inf, epsrel=epsrel,
            what="sheet integral")

    def layer_energy(z1):
        return checked_quad(lambda z2: sheet_energy(gap + z1 + z2),
                            0.0, t_film, epsrel=epsrel, what="layer integral")

    energy_per_area = checked_quad(layer_energy, 0.0, t_film, epsrel=epsrel,
                                   what="film integral")
    # restore dimensions: one lambda per integrated length
    energy_per_area *= (h.alpha * hbar * c * NUCLEON_DENSITY**2
                        * h.lambda_**3)
    return 2.0 * math.pi * sphere_radius * abs(energy_per_area) * 1e12


def film_on_substrate_force(lam, geom, sphere_radius):
    """Yukawa force [pN] at alpha = 1 of the film-on-substrate law
    behind `alpha_lower_limit`:

        F1 = 4 pi^2 hbar c n^2 lambda^3 R exp(-a/lambda) (1 - d1 x)(1 - d2 x),

    x = exp(-h/lambda), d1,2 = (1.74 +- sqrt(1.74^2 - 3)) / 2, so that
    (1 - d1 x)(1 - d2 x) = 1 - 1.74 x + 0.75 x^2.  Each factor 1 - d x is
    a gold film on a substrate of density (1 - d) 19.3 g/cm^3, i.e. 0.906
    and 4.112 g/cm^3; d1 = d2 = 1 is the film-film oracle.
    """
    root = math.sqrt(1.74**2 - 3.0)
    d1, d2 = (1.74 + root) / 2.0, (1.74 - root) / 2.0
    x = math.exp(-geom.film_thickness / lam)
    return (4.0 * math.pi**2 * hbar * c * NUCLEON_DENSITY**2 * lam**3
            * sphere_radius * math.exp(-geom.separation_min / lam)
            * (1.0 - d1 * x) * (1.0 - d2 * x) * 1e12)


class TestAlphaLowerLimit:
    def test_hand_value_at_100nm(self):
        assert alpha_lower_limit(100e-9) == pytest.approx(2.65315e-24, rel=1e-4, abs=0)

    def test_value_near_astro_ceiling_at_33nm(self):
        alpha = alpha_lower_limit(33e-9)
        assert alpha == pytest.approx(1.29735e-22, rel=1e-4, abs=0)
        # the published boundary rounds this to the 1.5e-22 ceiling
        assert alpha == pytest.approx(1.5e-22, rel=0.15, abs=0)

    def test_long_range_limit_vanishes(self):
        assert alpha_lower_limit(1e-3) < 1e-30
        assert alpha_lower_limit(1e-3) > 0

    def test_scales_linearly_with_residual_bound(self):
        base = alpha_lower_limit(100e-9, residual_bound_pn=10.0)
        assert alpha_lower_limit(100e-9, residual_bound_pn=20.0) == pytest.approx(
            2 * base, rel=1e-12, abs=0)

    def test_lambda_shape_is_the_film_on_substrate_law(self):
        # over the CLI's default grid the limit is 10 pN / F1 up to one
        # constant, the typed prefactor 6.27e-25 over the 6.200e-25 that
        # F1 gives at R = 95.65 um (notes/decisions.md)
        geom = ConstraintGeometry()
        ratios = [alpha_lower_limit(float(lam), geom)
                  / (10.0 / film_on_substrate_force(float(lam), geom,
                                                    SPHERE_RADIUS))
                  for lam in np.logspace(math.log10(10e-9),
                                         math.log10(1000e-9), 30)]
        assert max(ratios) - min(ratios) <= 1e-12 * min(ratios)
        assert ratios[0] == pytest.approx(1.01122, rel=1e-5, abs=0)

    def test_beyond_the_float_range_names_lambda_and_separation(self):
        # exp(a / lambda) overflows below a / 709.78, 0.0888 nm at 63 nm
        assert math.isfinite(alpha_lower_limit(0.089e-9))
        with pytest.raises(DomainError, match="lambda = 0.088 nm and a = 63 nm"):
            alpha_lower_limit(0.088e-9)
        # a finite exp whose product overflows is the same error
        with pytest.raises(DomainError, match="lambda = 0.1 nm and a = 63 nm"):
            alpha_lower_limit(0.1e-9, residual_bound_pn=1e300)

    def test_continuous_positive_over_range(self):
        values = [alpha_lower_limit(float(lam))
                  for lam in np.geomspace(10e-9, 1000e-9, 40)]
        assert all(v > 0 and math.isfinite(v) for v in values)
        # smooth: neighbouring grid points stay within a bounded ratio
        assert all(0.01 < a / b < 100 for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(-9.0, 3.0), st.floats(-12.0, -3.0))
    def test_finite_positive_for_any_film(self, log_lambda, log_h):
        # the film factor 1 - 1.74 x + 0.75 x^2, x = exp(-h/lambda), falls
        # from 1 to 0.01 on 0 <= x <= 1, so the limit never blows up
        geom = ConstraintGeometry(film_thickness=10.0 ** log_h)
        alpha = alpha_lower_limit(10.0 ** log_lambda, geom)
        assert 0 < alpha < math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            alpha_lower_limit(0.0)
        with pytest.raises(ValueError):
            alpha_lower_limit(100e-9, residual_bound_pn=-1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0])
    def test_lambda_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="finite and positive"):
            alpha_lower_limit(lam)

    @pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0])
    def test_residual_bound_must_be_finite_and_positive(self, bound):
        with pytest.raises(ValueError, match="finite and positive"):
            alpha_lower_limit(100e-9, residual_bound_pn=bound)


class TestAllowedLambdaBoundary:
    def test_boundary_and_mass(self):
        boundary = allowed_lambda_boundary()
        assert 31e-9 <= boundary.lambda_star <= 34e-9
        assert 36.0 <= boundary.boson_mass_ev <= 40.0

    def test_inverse_identity(self):
        ceiling = alpha_lower_limit(100e-9)
        boundary = allowed_lambda_boundary(alpha_ceiling=ceiling)
        assert boundary.lambda_star == pytest.approx(100e-9, rel=1e-5, abs=0)
        assert alpha_lower_limit(boundary.lambda_star) == pytest.approx(
            ceiling, rel=1e-5, abs=0)

    def test_mass_is_hc_over_lambda(self):
        boundary = allowed_lambda_boundary()
        expected = 2 * math.pi * hbar * c / (boundary.lambda_star * 1.602176634e-19)
        assert boundary.boson_mass_ev == pytest.approx(expected, rel=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(ConvergenceError, match="sign change"):
            allowed_lambda_boundary(alpha_ceiling=1.0)

    def test_deterministic(self):
        assert allowed_lambda_boundary() == allowed_lambda_boundary()

    def test_bitwise_equal_to_scipy_bisect(self):
        geom = ConstraintGeometry()
        compared = 0
        for bound in (0.5, 1.0, 3.7, 10.0, 41.0, 250.0):
            for ceiling in (3e-24, 2e-23, 1.5e-22, 1e-21, 7e-21):
                def excess(lam):
                    return alpha_lower_limit(lam, geom, bound) - ceiling
                lo, hi = LAMBDA_BRACKET
                if excess(lo) * excess(hi) > 0:
                    with pytest.raises(ConvergenceError, match="sign change"):
                        allowed_lambda_boundary(geom, ceiling, bound)
                    continue
                ref = bisect(excess, lo, hi, xtol=1e-18, rtol=1e-8)
                assert allowed_lambda_boundary(geom, ceiling, bound).lambda_star == ref
                compared += 1
        assert compared >= 20


class TestYukawaForceOracle:
    def test_zero_coupling(self):
        force = yukawa_force_oracle(YukawaHypothesis(0.0, 100e-9),
                                    ConstraintGeometry(), SPHERE_RADIUS)
        assert force == 0.0

    def test_linear_in_alpha(self):
        geom = ConstraintGeometry()
        f1 = yukawa_force_oracle(YukawaHypothesis(1e-24, 100e-9), geom,
                                 SPHERE_RADIUS)
        f2 = yukawa_force_oracle(YukawaHypothesis(2e-24, 100e-9), geom,
                                 SPHERE_RADIUS)
        assert f2 == pytest.approx(2 * f1, rel=1e-9)

    @pytest.mark.parametrize("lam", [10e-9, 33e-9, 100e-9, 500e-9, 1000e-9])
    def test_against_film_film_closed_form(self, lam):
        h = YukawaHypothesis(1e-24, lam)
        geom = ConstraintGeometry()
        assert yukawa_force_oracle(h, geom, SPHERE_RADIUS) == pytest.approx(
            film_force_by_quadpack(h, geom, SPHERE_RADIUS), rel=1e-10)

    def test_monotone_in_lambda(self):
        geom = ConstraintGeometry()
        forces = [yukawa_force_oracle(YukawaHypothesis(1e-24, lam * 1e-9),
                                      geom, SPHERE_RADIUS)
                  for lam in (10, 30, 100, 300, 500)]
        assert all(a < b for a, b in zip(forces, forces[1:]))

    def test_cross_validates_closed_form_limit(self):
        # solve F(alpha) = 10 pN at lambda = 100 nm; the closed-form limit
        # carries substrate terms the film-film oracle does not, hence the
        # loose band (the oracle's alpha over the closed form is 0.99,
        # 1.15, 2.42 and 4.51 at 10, 100, 500 and 1000 nm)
        geom = ConstraintGeometry()
        f_unit = yukawa_force_oracle(YukawaHypothesis(1e-24, 100e-9), geom,
                                     SPHERE_RADIUS)
        alpha_star = 1e-24 * 10.0 / f_unit
        assert alpha_star == pytest.approx(alpha_lower_limit(100e-9), rel=0.25,
                                           abs=0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_sphere_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            yukawa_force_oracle(YukawaHypothesis(1e-24, 100e-9),
                                ConstraintGeometry(), radius)


class TestDomainTypes:
    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            YukawaHypothesis(-1e-24, 100e-9)
        with pytest.raises(ValueError):
            YukawaHypothesis(1e-24, 0.0)

    @pytest.mark.parametrize("alpha, lam", [
        (math.nan, 100e-9), (math.inf, 100e-9), (1e-24, math.inf),
        (1e-24, math.nan)])
    def test_hypothesis_rejects_non_finite(self, alpha, lam):
        with pytest.raises(ValueError, match="finite"):
            YukawaHypothesis(alpha, lam)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ConstraintGeometry(-63e-9, 96e-9)
        with pytest.raises(ValueError):
            ConstraintGeometry(63e-9, 0.0)
        with pytest.raises(ValueError, match="finite"):
            ConstraintGeometry(math.inf, 96e-9)
        with pytest.raises(ValueError, match="finite"):
            ConstraintGeometry(63e-9, math.nan)
