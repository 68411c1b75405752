"""Constraints on a Yukawa-type interaction from the residual force.

A light scalar boson of Compton wavelength lambda would add the two-atom
potential V(r) = -alpha N1 N2 (hbar c / r) exp(-r / lambda).  Integrated
over the gold films of the experiment, a residual-force floor turns into a
lower limit on alpha as a function of lambda; intersecting it with the
astrophysical ceiling gives the allowed wavelength region.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._value import validated
from .constants import c, e as _e_charge, h as _planck_h, hbar
from .errors import ConvergenceError, DomainError

GOLD_DENSITY = 19300.0        # kg/m^3
NUCLEON_MASS = 1.6605e-27     # kg

#: residual-force floor [pN] at which the closed-form limit is normalized
BASELINE_RESIDUAL_BOUND_PN = 10.0

#: ceiling on alpha from helium-burning stars
ASTRO_ALPHA_CEILING = 1.5e-22

#: wavelength interval [m] searched for the allowed-region boundary
LAMBDA_BRACKET = (5e-9, 500e-9)
#: the boundary's bisection stops once its step is below _XTOL + _RTOL *
#: lambda [m], or gives up after _MAX_HALVINGS steps
_XTOL = 1e-18
_RTOL = 1e-8
_MAX_HALVINGS = 100


@validated
class YukawaHypothesis(NamedTuple):
    """Dimensionless coupling alpha and range lambda [m]."""

    alpha: float
    lambda_: float

    def _validate(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")
        if not 0 < self.lambda_ < math.inf:
            raise ValueError("lambda must be finite and positive")


@validated
class ConstraintGeometry(NamedTuple):
    """Closest separation and gold film thickness of the constraint setup [m]."""

    separation_min: float = 63e-9
    film_thickness: float = 96e-9

    def _validate(self):
        if not (0 < self.separation_min < math.inf
                and 0 < self.film_thickness < math.inf):
            raise ValueError("geometry lengths must be finite and positive")


def alpha_lower_limit(lambda_: float,
                      geom: ConstraintGeometry = ConstraintGeometry(),
                      residual_bound_pn: float = BASELINE_RESIDUAL_BOUND_PN) -> float:
    """Smallest alpha able to produce the residual force, at range lambda [m].

    Closed form for the film-on-substrate experimental configuration:

        alpha > 6.27e-25 exp(a/lambda)
                / (1 - 1.74 exp(-h/lambda) + 0.75 exp(-2h/lambda))
                * (100 nm / lambda)^3,

    normalized to a 10 pN residual floor; the limit scales linearly with
    `residual_bound_pn` since the Yukawa force is linear in alpha.  A limit
    beyond the float range (lambda < a / 709.78 at 10 pN) is a DomainError.
    """
    if not 0 < lambda_ < math.inf:
        raise ValueError("lambda must be finite and positive")
    if not 0 < residual_bound_pn < math.inf:
        raise ValueError("residual_bound_pn must be finite and positive")
    x = math.exp(-geom.film_thickness / lambda_)
    # for 0 < x <= 1 the film factor falls from 1 to 0.01: never zero
    denom = 1.0 - 1.74 * x + 0.75 * x * x
    scale = residual_bound_pn / BASELINE_RESIDUAL_BOUND_PN
    try:
        limit = (scale * 6.27e-25 * math.exp(geom.separation_min / lambda_)
                 / denom * (100e-9 / lambda_)**3)
    except OverflowError:
        limit = math.inf
    if limit == math.inf:
        raise DomainError(f"alpha_min at lambda = {lambda_ * 1e9:.6g} nm and a = "
                          f"{geom.separation_min * 1e9:.6g} nm exceeds the float range")
    return limit


class LambdaBoundary(NamedTuple):
    lambda_star: float    # m
    boson_mass_ev: float  # eV


def allowed_lambda_boundary(geom: ConstraintGeometry = ConstraintGeometry(),
                            alpha_ceiling: float = ASTRO_ALPHA_CEILING,
                            residual_bound_pn: float = BASELINE_RESIDUAL_BOUND_PN
                            ) -> LambdaBoundary:
    """Wavelength where the lower limit meets `alpha_ceiling`, by bisection
    over LAMBDA_BRACKET.

    Below the returned lambda_star the hypothesis is excluded by the
    ceiling; above it the window is open.  Also reports the equivalent
    boson mass h c / lambda in eV.
    """
    if not alpha_ceiling > 0:
        raise ValueError("alpha_ceiling must be positive")

    def excess(lam: float) -> float:
        return alpha_lower_limit(lam, geom, residual_bound_pn) - alpha_ceiling

    # scipy.optimize.bisect (its Zeros/bisect.c loop) step for step, so
    # lambda_star is the float scipy returns for the same xtol and rtol
    lo, hi = LAMBDA_BRACKET
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo * f_hi > 0:
        raise ConvergenceError(
            f"no sign change in bracket [{lo:.3g}, {hi:.3g}] m: "
            f"excess({lo:.3g})={f_lo:.3e}, excess({hi:.3g})={f_hi:.3e}")
    lam = lo if f_lo == 0 else hi if f_hi == 0 else None
    step, halvings = hi - lo, 0
    while lam is None:
        if halvings == _MAX_HALVINGS:
            raise ConvergenceError(
                f"bisection not converged after {_MAX_HALVINGS} halvings; "
                f"bracket [{lo:.6g}, {lo + step:.6g}] m")
        halvings += 1
        step *= 0.5
        mid = lo + step
        f_mid = excess(mid)
        if f_mid * f_lo >= 0:
            lo = mid
        if f_mid == 0 or abs(step) < _XTOL + _RTOL * abs(mid):
            lam = mid
    mass_ev = _planck_h * c / (lam * _e_charge)
    return LambdaBoundary(lam, mass_ev)


def yukawa_force_oracle(h: YukawaHypothesis, geom: ConstraintGeometry,
                        sphere_radius: float) -> float:
    """Yukawa force between the two gold films, in pN.

    Independent of the closed form in `alpha_lower_limit`: the atom-atom
    potential summed over a film of thickness h on the plate and a
    film-thick shell on the sphere, taken as a flat layer under the
    proximity-force treatment (F = 2 pi R E_area).  With nucleon number
    density n = GOLD_DENSITY / NUCLEON_MASS in both films the volume
    integral has the closed form

        F = 4 pi^2 alpha hbar c n^2 lambda^3 R exp(-a/lambda)
            (1 - exp(-h/lambda))^2.

    Attraction magnitude.
    """
    if not 0 < sphere_radius < math.inf:
        raise ValueError("sphere_radius must be finite and positive")
    lam = h.lambda_
    n = GOLD_DENSITY / NUCLEON_MASS
    film = -math.expm1(-geom.film_thickness / lam)
    return (4.0 * math.pi**2 * h.alpha * hbar * c * n * n * lam**3
            * sphere_radius * math.exp(-geom.separation_min / lam)
            * film * film * 1e12)
