"""Sphere-plate Casimir force from Lifshitz theory.

The finite-temperature force is a Matsubara sum

    F(a) = -(kT R / c^2) sum'_{n>=0} zeta_n^2
           int_1^inf dp p ln[(1 - g_te)(1 - g_tm)],

with zeta_n = 2 pi n k T / hbar, s = sqrt(eps(i zeta_n) - 1 + p^2) and
round-trip factors

    g_te = ((p - s)/(p + s))^2 exp(-2 p zeta_n a / c),
    g_tm = ((eps p - s)/(eps p + s))^2 exp(-2 p zeta_n a / c).

The primed n=0 term is evaluated in the ideal-conductor static limit
(`classical_term`); an alternative prescription that halves it is provided
as a switch.  The zero-temperature force replaces kT sum' by
(hbar / 2 pi) int dzeta.  The sphere enters through the proximity force
treatment, which is taken as exact for R >> a.

Every p-integral goes through one numpy kernel on a fixed Gauss-Legendre
rule, evaluated for all frequencies of a force at once; each force makes
one array call to the eps(i zeta) evaluator.

Conventions: geometry in meters, temperature in kelvin, every force is the
attraction magnitude in piconewtons.  All evaluations are pure functions of
immutable inputs; Matsubara terms are mutually independent but are summed
in ascending n for reproducibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.constants import Boltzmann as k_B, c, hbar
from scipy.special import zeta as _riemann_zeta

from ._quadrature import gauss_legendre
from .errors import ConvergenceError, DomainError

ZETA3 = float(_riemann_zeta(3))
_N_TO_PN = 1e12

#: panel edges of the p-rule in v, where u = v^3 = exp(-(p - 1) y).  They
#: cluster towards v = 1 (p -> 1): at small y both the transverse-electric
#: feature at p ~ sqrt(eps - 1) and the ln(1 - u^2) endpoint sit there.
_V_EDGES = np.array([0.0, 0.3, 0.6, 0.8, 0.9, 0.96, 0.99, 1.0])
#: Gauss-Legendre nodes of the floor panel [zeta_min/100, zeta_min]
_FLOOR_ORDER = 5
#: frequencies per block of the kernel, to bound its temporary arrays
_BLOCK = 64


@dataclass(frozen=True)
class Geometry:
    """Sphere radius and surface-to-surface separation, in meters."""

    sphere_radius: float
    separation: float

    def __post_init__(self):
        if not 0 < self.sphere_radius < math.inf:
            raise ValueError("sphere_radius must be finite and positive")
        if not 0 < self.separation < math.inf:
            raise ValueError("separation must be finite and positive")
        if self.sphere_radius / self.separation < 100:
            warnings.warn(
                "sphere_radius / separation < 100: the proximity force "
                "treatment assumes R >> a", stacklevel=2)


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium temperature in kelvin."""

    temperature: float

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and non-negative")


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy knobs for the p-integral, the zeta-integral and the sum.

    p_order is the number of Gauss-Legendre nodes on each of the panels of
    the p-rule (see `_V_EDGES`); zeta_order the number on each log-spaced
    panel of the zero-temperature frequency integral, which runs from
    zeta_min to 45 c / a at panels_per_decade.  Below zeta_min, where the
    integrand levels off, a 5-node panel covers [zeta_min/100, zeta_min]
    and the rest is added as the rectangle (zeta_min/100) *
    integrand(zeta_min/100).  The Matsubara sum stops at the first n whose
    analytic tail bound (`force_finite_T`) is below sum_rel_tol times the
    accumulated total; a sum that would need more than n_max terms raises.
    """

    zeta_min: float = 1e11
    panels_per_decade: int = 4
    sum_rel_tol: float = 1e-10
    n_max: int = 1_000_000
    p_order: int = 16
    zeta_order: int = 8

    def tightened(self, factor: float = 10.0) -> "QuadratureSettings":
        """Strictly more demanding settings, for convergence checks."""
        return replace(self,
                       sum_rel_tol=self.sum_rel_tol / factor,
                       zeta_min=self.zeta_min / 10.0,
                       panels_per_decade=2 * self.panels_per_decade,
                       p_order=2 * self.p_order,
                       zeta_order=2 * self.zeta_order)


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class ForceResult:
    """Finite-temperature force [pN] and its decomposition.

    total = n0_term + sum_terms; n_terms_used counts the n >= 1 Matsubara
    terms actually summed.
    """

    total: float
    n0_term: float
    sum_terms: float
    n_terms_used: int
    prescription: str


def matsubara_frequency(n, t: ThermalState):
    """zeta_n = 2 pi n k T / hbar, in rad/s; n may be an integer array."""
    return 2.0 * math.pi * n * k_B * t.temperature / hbar


def ideal_force(g: Geometry) -> float:
    """Perfect-conductor sphere-plate force pi^3 hbar c R / (360 a^3), in pN."""
    return (math.pi**3 * hbar * c / 360.0
            * g.sphere_radius / g.separation**3 * _N_TO_PN)


def classical_term(g: Geometry, t: ThermalState,
                   prescription: str = "schwinger") -> float:
    """The n=0 (static) term of the Matsubara sum, in pN.

    "schwinger": ideal-conductor static limit, kT R zeta(3) / (4 a^2).
    "halved": half of that, the alternative prescription for nonideal
    metals.  Returns 0 at zero temperature.
    """
    if prescription not in ("schwinger", "halved"):
        raise ValueError(f"unknown prescription {prescription!r}")
    if t.temperature == 0:
        return 0.0
    f = k_B * t.temperature * g.sphere_radius * ZETA3 / (4.0 * g.separation**2)
    if prescription == "halved":
        f *= 0.5
    return f * _N_TO_PN


def round_trip_factors(p, eps_value, y):
    """(g_te, g_tm) at momentum parameter p, with y = zeta a / c.

    The arguments broadcast against each other.  With chi = eps - 1 the
    reflection coefficients are written without cancellation,
    r_te = -chi / (p + s)^2 and r_tm = chi ((eps + 1) p^2 - 1) / (eps p + s)^2.
    """
    chi = eps_value - 1.0
    s = np.sqrt(chi + p * p)
    r_te = -chi / (p + s) ** 2
    r_tm = chi * ((eps_value + 1.0) * p * p - 1.0) / (eps_value * p + s) ** 2
    damping = np.exp(-2.0 * y * p)
    return r_te * r_te * damping, r_tm * r_tm * damping


def _p_integral(eps_values: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """-int_1^inf dp p ln[(1 - g_te)(1 - g_tm)]  (positive), elementwise
    for 1-D arrays of eps(i zeta) and y = zeta a / c.

    Substituting u = exp(-(p-1) y) = v^3 maps the infinite range onto
    (0, 1], absorbs the exponential damping (exp(-2 p y) = exp(-2y) v^6)
    and makes the integrand vanish like v^5 ln v at v -> 0; dp = -3 dv /
    (v y).  The rule is composite Gauss-Legendre on `_V_EDGES`, so the
    endpoints are never evaluated.
    """
    v, w = gauss_legendre(_V_EDGES, order)
    ln_u = 3.0 * np.log(v)
    weights = 3.0 * w / v
    out = np.empty(y.shape)
    for i in range(0, y.size, _BLOCK):
        yb = y[i:i + _BLOCK, None]
        p = 1.0 - ln_u / yb
        g_te, g_tm = round_trip_factors(p, eps_values[i:i + _BLOCK, None], yb)
        integrand = p * (np.log1p(-g_te) + np.log1p(-g_tm))
        out[i:i + _BLOCK] = -(integrand @ weights) / y[i:i + _BLOCK]
    return out


def _eps_at(eps: Callable, zeta: np.ndarray) -> np.ndarray:
    """eps(i zeta) on a 1-D array of zeta, checked to exceed 1 everywhere
    (any causal absorptive medium does)."""
    values = np.broadcast_to(np.asarray(eps(zeta), dtype=float), zeta.shape)
    bad = ~(values > 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"eps(i zeta) must exceed 1, got {values[i]} at "
                          f"zeta={zeta[i]:.4g}")
    return values


def _tail_bound(n, y1: float, scale: float):
    """Upper bound [pN] on the sum of the Matsubara terms after the n-th.

    For eps > 1, |r_te| and |r_tm| are below 1, so each term is at most the
    perfect-conductor one, scale * [Y Li2(e^-Y) + Li3(e^-Y)] with
    Y = 2 m y1 and scale = kT R / (2 a^2).  With Li_s(x) <= x / (1 - x)
    and 1 - q^m >= 1 - q^M for m >= M = n + 1, the bound is a geometric
    series in q = exp(-2 y1):

        scale q^M / (1 - q^M) [2 y1 (M (1-q) + q) / (1-q)^2 + 1 / (1-q)].

    `n` may be an array.
    """
    m = np.asarray(n, dtype=float) + 1.0
    one_minus_q = -math.expm1(-2.0 * y1)
    q_m = np.exp(-2.0 * y1 * m)
    series = (2.0 * y1 * (m * one_minus_q + 1.0 - one_minus_q) / one_minus_q**2
              + 1.0 / one_minus_q)
    return scale * q_m / -np.expm1(-2.0 * y1 * m) * series


def _terms_needed(target: float, y1: float, scale: float, n_max: int) -> int:
    """Smallest n <= n_max whose tail bound is at most `target`, else n_max."""
    if _tail_bound(n_max, y1, scale) > target:
        return n_max
    lo, hi = 0, n_max            # the answer lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(mid, y1, scale) > target:
            lo = mid
        else:
            hi = mid
    return hi


def force_finite_T(g: Geometry, t: ThermalState,
                   eps: Callable,
                   prescription: str = "schwinger",
                   settings: QuadratureSettings = DEFAULT_SETTINGS) -> ForceResult:
    """Finite-temperature sphere-plate force: n=0 term plus Matsubara sum.

    Parameters
    ----------
    g, t : Geometry, ThermalState
        Geometry and temperature; temperature must be positive (use
        `force_zero_T` for T = 0).
    eps : callable
        eps(i zeta) evaluator, taking an array of zeta in rad/s.
    prescription : str
        Handling of the n=0 term, "schwinger" or "halved".
    settings : QuadratureSettings
        Accuracy knobs; see the class docstring for the stop rule.

    Returns
    -------
    ForceResult
        Total force and decomposition, in pN.

    The sum stops at the first n whose tail bound (`_tail_bound`) is below
    settings.sum_rel_tol times the running total.  Since the total exceeds
    the n=0 term, the terms up to the count that bounds the tail by
    sum_rel_tol * n0 always suffice: their eps values come from one eps
    call, and the kernel runs over them in blocks until the stop.
    """
    if t.temperature <= 0:
        raise ValueError("force_finite_T needs temperature > 0")
    a = g.separation
    n0 = classical_term(g, t, prescription)
    y1 = matsubara_frequency(1, t) * a / c
    scale = k_B * t.temperature * g.sphere_radius / (2.0 * a * a) * _N_TO_PN
    n_eval = _terms_needed(settings.sum_rel_tol * n0, y1, scale, settings.n_max)

    n = np.arange(1, n_eval + 1)
    zeta = matsubara_frequency(n, t)
    eps_values = _eps_at(eps, zeta)
    bound = _tail_bound(n, y1, scale)
    prefactor = k_B * t.temperature * g.sphere_radius / c**2 * _N_TO_PN
    tail = 0.0
    for i in range(0, n_eval, _BLOCK):
        block = slice(i, i + _BLOCK)
        terms = prefactor * zeta[block]**2 * _p_integral(
            eps_values[block], zeta[block] * a / c, settings.p_order)
        tails = np.cumsum(np.concatenate(([tail], terms)))[1:]
        done = bound[block] <= settings.sum_rel_tol * (n0 + tails)
        if done.any():
            k = int(np.argmax(done))
            tail = float(tails[k])
            return ForceResult(total=n0 + tail, n0_term=n0, sum_terms=tail,
                               n_terms_used=i + k + 1, prescription=prescription)
        tail = float(tails[-1])
    raise ConvergenceError(
        f"Matsubara sum not converged after {settings.n_max} terms "
        f"(tail bound {bound[-1]:.3e} pN, accumulated {n0 + tail:.6e} pN)")


def force_zero_T(g: Geometry, eps: Callable,
                 settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Zero-temperature force: the Matsubara sum replaced by an integral, in pN.

    The zeta-integral runs over log-spaced panels between settings.zeta_min
    and 45 c / a (at least ten times zeta_min) with settings.zeta_order
    Gauss-Legendre nodes each.  Below zeta_min the integrand levels off
    (for a Drude metal the transverse-electric part has died off and the
    transverse-magnetic part tends to its static value): a 5-node panel covers
    [zeta_min/100, zeta_min] and the rest is the rectangle
    (zeta_min/100) * integrand(zeta_min/100).  All nodes go through one
    eps call and one kernel call.  At the default settings this leaves a
    relative error of ~1e-11 at 60 nm and ~2e-10 at 200 nm for a Drude
    metal, measured against an independent k-space integral.
    """
    a = g.separation
    # Above zeta a / c ~ 45 the damping exp(-2 p zeta a / c) leaves less
    # than ~1e-39 of the integrand.
    zeta_top = max(45.0 * c / a, 10.0 * settings.zeta_min)
    n_decades = math.log10(zeta_top / settings.zeta_min)
    n_panels = max(1, int(math.ceil(settings.panels_per_decade * n_decades)))
    edges = np.logspace(math.log10(settings.zeta_min),
                        math.log10(zeta_top), n_panels + 1)
    zeta_floor = settings.zeta_min / 100.0
    floor_nodes, floor_weights = gauss_legendre(
        [zeta_floor, settings.zeta_min], _FLOOR_ORDER)
    nodes, weights = gauss_legendre(edges, settings.zeta_order)
    zeta = np.concatenate(([zeta_floor], floor_nodes, nodes))
    weights = np.concatenate(([zeta_floor], floor_weights, weights))
    integrand = zeta * zeta * _p_integral(_eps_at(eps, zeta), zeta * a / c,
                                          settings.p_order)
    return (hbar * g.sphere_radius / (2.0 * math.pi * c**2)
            * float(integrand @ weights) * _N_TO_PN)


def reduction_factor(force_pn: float, g: Geometry) -> float:
    """eta = F / F_ideal, the deviation from the perfect-conductor force."""
    if not force_pn > 0:
        raise ValueError("force must be positive")
    return force_pn / ideal_force(g)


def temperature_correction(g: Geometry, t: ThermalState,
                           eps: Callable,
                           prescription: str = "schwinger",
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Finite-T force minus zero-T force, in pN.

    Positive for Drude metals under the schwinger prescription in the
    separation range studied here.
    """
    finite = force_finite_T(g, t, eps, prescription, settings)
    return finite.total - force_zero_T(g, eps, settings)
