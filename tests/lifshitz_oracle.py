"""Independent sphere-plate Lifshitz oracle, for tests only.

Recomputes the finite-temperature force, the zero-temperature force and
their difference along a route that shares no code with
`aucasimir.lifshitz` or `aucasimir._quadrature`:

  * the transverse wave number k is the integration variable (the library
    integrates over p = kappa c / zeta);
  * every integral is a fixed-node Gauss-Legendre rule on log-spaced
    panels in k, built here (the library maps p onto (0, 1] and uses its
    own panels there);
  * the n=0 ideal-conductor term is integrated like every other term (the
    library uses the zeta(3) closed form);
  * the reflection coefficients are written without cancellation in terms
    of chi = eps - 1.

With lengths in units of the separation a (x = k a, y = zeta a / c,
w = sqrt(x^2 + y^2), w_m = sqrt(x^2 + eps y^2)), the proximity-force
sphere-plate force is

    F_T = (R k T / a^2) [ I_0 / 2 + sum_{n>=1} I(y_n, chi_n) ],
    F_0 = (hbar c R / (2 pi a^3)) int_0^inf dy I(y, chi(c y / a)),

    I(y, chi) = -int_0^inf dx x [ln(1 - r_TE^2 e^{-2w}) + ln(1 - r_TM^2 e^{-2w})],
    r_TE = -chi y^2 / (w + w_m)^2,
    r_TM = chi ((eps + 1) x^2 + eps y^2) / (eps w + w_m)^2,

and I_0 is I with r_TE = r_TM = 1 (the ideal-conductor static term).
The rule checks itself by node doubling: `temperature_correction` returns
the shift of its value when the nodes per panel are doubled.  Forces are in
piconewtons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import Boltzmann, c, hbar

_N_TO_PN = 1e12

#: log-spaced panels cover [LO, HI] in x and in y, with one more panel on
#: [0, LO]; above HI the damping e^{-2w} < e^{-90} leaves nothing
_LO, _HI = 1e-9, 45.0
_PANELS_PER_DECADE = 4
_ORDER = 12
#: rows of frequencies evaluated per block, to bound the temporary arrays
_BLOCK = 64


def drude_chi(omega_p: float, omega_tau: float):
    """chi(zeta) = eps(i zeta) - 1 of a Drude metal, zeta in rad/s."""
    return lambda zeta: omega_p**2 / (zeta * (zeta + omega_tau))


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the panel rule on [0, inf), cut at _HI."""
    t, w = np.polynomial.legendre.leggauss(order)
    n_panels = round(_PANELS_PER_DECADE * math.log10(_HI / _LO))
    edges = np.concatenate(([0.0], np.geomspace(_LO, _HI, n_panels + 1)))
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    return nodes.ravel(), weights.ravel()


def k_integral(y, chi, order: int = _ORDER) -> np.ndarray:
    """I(y, chi) for 1-D arrays y > 0, chi > 0 of equal length (module doc)."""
    y = np.asarray(y, dtype=float)
    chi = np.asarray(chi, dtype=float)
    x, wx = _rule(order)
    out = np.empty(y.shape)
    for i in range(0, y.size, _BLOCK):
        yb = y[i:i + _BLOCK, None]
        cb = chi[i:i + _BLOCK, None]
        eps = 1.0 + cb
        w = np.sqrt(x * x + yb * yb)
        w_m = np.sqrt(x * x + eps * yb * yb)
        r_te = -cb * yb * yb / (w + w_m) ** 2
        r_tm = cb * ((eps + 1.0) * x * x + eps * yb * yb) / (eps * w + w_m) ** 2
        damping = np.exp(-2.0 * w)
        log_sum = (np.log1p(-r_te * r_te * damping)
                   + np.log1p(-r_tm * r_tm * damping))
        out[i:i + _BLOCK] = -(log_sum * x) @ wx
    return out


def static_ideal_integral(order: int = _ORDER) -> float:
    """I_0 = -2 int_0^inf dx x ln(1 - e^{-2x}), by quadrature."""
    x, wx = _rule(order)
    return float(-2.0 * (x * np.log1p(-np.exp(-2.0 * x))) @ wx)


@dataclass(frozen=True)
class Forces:
    """Sphere-plate forces [pN] under the ideal-conductor n=0 term."""

    n0: float
    matsubara: float
    zero_T: float

    @property
    def correction(self) -> float:
        """Finite-T minus zero-T force."""
        return self.n0 + self.matsubara - self.zero_T


def forces(sphere_radius: float, separation: float, temperature: float,
           chi, order: int = _ORDER) -> Forces:
    """Finite-T decomposition and zero-T force; chi maps zeta to eps - 1."""
    a = separation
    y1 = 2.0 * math.pi * Boltzmann * temperature * a / (hbar * c)
    y_n = y1 * np.arange(1, math.floor(_HI / y1) + 1)
    thermal = sphere_radius * Boltzmann * temperature / a**2 * _N_TO_PN
    n0 = thermal * 0.5 * static_ideal_integral(order)
    matsubara = thermal * float(np.sum(k_integral(y_n, chi(y_n * c / a), order)))

    y, wy = _rule(order)
    zero = (hbar * c * sphere_radius / (2.0 * math.pi * a**3) * _N_TO_PN
            * float(k_integral(y, chi(y * c / a), order) @ wy))
    return Forces(n0=n0, matsubara=matsubara, zero_T=zero)


def temperature_correction(sphere_radius: float, separation: float,
                           temperature: float, chi,
                           order: int = _ORDER) -> tuple[float, float]:
    """(F_T - F_0 [pN], its shift when the nodes per panel are doubled)."""
    value = forces(sphere_radius, separation, temperature, chi, order).correction
    doubled = forces(sphere_radius, separation, temperature, chi,
                     2 * order).correction
    return value, abs(doubled - value)
