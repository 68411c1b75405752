"""QUADPACK Kramers-Kronig transform of a `DielectricModel`, for tests only.

This is the adaptive path the library used before its fixed-node rule: the
dispersion integral

    eps(i zeta) = 1 + (2/pi) int_0^inf omega eps''(omega) / (omega^2 + zeta^2) d omega

is integrated region by region with `scipy.integrate.quad`, one call per
region and zeta.  The data integrals are split at every data sample (the
log-log interpolant has derivative kinks there) and at omega = zeta, where
the Lorentzian weight peaks; the tail is mapped onto (0, 1] with
t = omega_max/omega.  Unlike the library, the Drude segment [0, omega0] is
integrated numerically here too, so its closed form is checked as well.
"""

from __future__ import annotations

import math

from aucasimir import DielectricModel, EpsilonDecomposition, interpolate_eps2

from quadpack import checked_quad


def kk_epsilon(model: DielectricModel, zeta: float,
               epsrel: float = 1e-12) -> EpsilonDecomposition:
    """eps(i zeta) of `model` by adaptive quadrature, by region."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    ds = model.dataset
    p = model.drude
    zeta_sq = zeta * zeta

    def drude(w: float) -> float:
        # omega eps''(omega) of the Drude form
        return p.omega_p**2 * p.omega_tau / ((w * w + p.omega_tau**2) * (w * w + zeta_sq))

    eps1 = (2.0 / math.pi) * checked_quad(
        drude, 0.0, model.omega0, epsrel=epsrel, points=[p.omega_tau, zeta],
        what="Drude segment")

    def weighted(w: float) -> float:
        return w * interpolate_eps2(ds, w) / (w * w + zeta_sq)

    nodes = ds.omega.tolist()

    # the model validator tolerates data starting an ulp above omega0
    lower = max(model.omega0, ds.omega_min)
    eps2_part = (2.0 / math.pi) * checked_quad(
        weighted, lower, model.omega1, epsrel=epsrel, points=nodes + [zeta],
        limit=4 * len(nodes) + 100, what="eps2 dispersion integral")

    data_top = (2.0 / math.pi) * checked_quad(
        weighted, model.omega1, ds.omega_max, epsrel=epsrel, points=nodes + [zeta],
        limit=4 * len(nodes) + 100, what="eps3 data integral")

    w_max = ds.omega_max
    eps2_at_max = ds.eps2[-1]
    q = model.tail_exponent

    def tail(t: float) -> float:
        # omega = w_max / t; integrand transformed so t -> 0 is regular
        return eps2_at_max * w_max**2 * t**(q - 1.0) / (w_max**2 + zeta_sq * t * t)

    tail_part = (2.0 / math.pi) * checked_quad(
        tail, 0.0, 1.0, epsrel=epsrel,
        points=[w_max / zeta] if zeta > w_max else None,
        what="eps3 tail integral")

    return EpsilonDecomposition(eps1, eps2_part, data_top + tail_part)
