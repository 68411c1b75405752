"""Dielectric function of gold on the imaginary frequency axis.

eps(i zeta) is what the Lifshitz formula consumes.  It is assembled from
three spectral regions of the dispersion relation

    eps(i zeta) = 1 + (2/pi) int_0^inf  omega eps''(omega) / (omega^2 + zeta^2) d omega

  * [0, omega0]   : no tabulated data; a Drude extrapolation integrated in
                    closed form (`epsilon1_analytic`), one formula of
                    positive terms for every zeta,
  * [omega0, omega1] and [omega1, omega_max] : tabulated eps'' integrated
                    numerically with log-log interpolation,
  * above omega_max : a power-law tail eps'' ~ omega^(-tail_exponent).

The numerical regions use a fixed Gauss-Legendre rule in ln omega, so
eps(i zeta) for any number of zeta values is one broadcast sum over the
nodes.

Both dielectric models, the pure Drude `DrudeParameters` and the tabulated
`DielectricModel`, answer one contract: `decompose(zeta)` gives eps(i zeta)
by spectral region (an `EpsilonDecomposition`; a Drude model has no data
parts) and `epsilon(zeta)` is its total.  Every eps evaluator here takes an
array of zeta, each element finite and positive, and returns an array of
its shape; a scalar zeta is a 0-d array and gives a numpy float64 equal
bit for bit to the matching array element.

The low-frequency Drude parameters dominate the result and are either given
directly or fitted to the data (`fit_drude`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._quadrature import aligned_empty, bisect, gauss_legendre
from ._value import validated
from .constants import epsilon_0
from .errors import ConvergenceError, DomainError
from .optical import FrequencyBoundaries, OpticalDataset, drude_eps2, interpolate_eps2

#: ohm m -> micro-ohm cm
_OHM_M_TO_UOHM_CM = 1e8

#: Gauss-Legendre nodes per panel of the dispersion integral
_ORDER = 8
#: widest panel in ln omega; the integrand's nearest complex singularity
#: (the Lorentzian pole) lies pi/2 off the real ln-omega axis, so on this
#: width its Bernstein ellipse has rho = 2 pi + sqrt(4 pi^2 + 1) ~ 12.6 and
#: the 8-node rule's error is of order rho^-16 ~ 2.3e-18: exact to rounding
_PANEL_WIDTH = 0.5
#: the power-law tail is integrated on panels down to t = omega_max/omega =
#: _TAIL_T_MIN and in closed form below it
_TAIL_T_MIN = 1e-6
#: the closed form is a power series in x^2 = (zeta _TAIL_T_MIN / omega_max)^2,
#: summed for x^2 <= _TAIL_X2_MAX; above it eps(i zeta) is a DomainError
_TAIL_X2_MAX = 0.5
#: unit roundoff of a double: the series stops at a term below this share
#: of its partial sum
_UNIT_ROUNDOFF = 2.0**-53
#: elements of the broadcast sum's work array, zeta rows times rule nodes
#: (28 rows of the bundled data's 1,152 nodes); a larger array sums faster
#: but raises a command's peak memory
_BLOCK = 16 * 2048

#: the Drude fit brackets ln omega_tau on a grid of this step, reaching this
#: many decades below and above the fit range
_FIT_GRID_STEP = 0.25
_FIT_GRID_DECADES = 3.0


def _positive_zeta(zeta) -> np.ndarray:
    """zeta as a float array (a scalar becomes a 0-d array); every element
    must be finite and positive."""
    z = np.asarray(zeta, dtype=float)
    if not ((z > 0) & (z < math.inf)).all():
        raise ValueError("zeta must be positive and finite (static limit is singular)")
    return z


@validated
class DrudeParameters(NamedTuple):
    """Free-electron parameters: plasma frequency and relaxation frequency [rad/s]."""

    omega_p: float
    omega_tau: float

    def _validate(self):
        # omega_p^2 is every Drude formula's prefactor, so it must be finite;
        # squared as a Python float, which overflows to inf without a warning
        omega_p = float(self.omega_p)
        if not (omega_p > 0 and omega_p * omega_p < math.inf):
            raise ValueError(f"omega_p must be positive, with a finite square, "
                             f"got {self.omega_p}")
        if not 0 < self.omega_tau < self.omega_p:
            raise ValueError(
                f"need 0 < omega_tau < omega_p, got omega_tau={self.omega_tau}")

    def decompose(self, zeta) -> EpsilonDecomposition:
        """eps(i zeta) of this pure Drude model: eps1 = omega_p^2 /
        (zeta (zeta + omega_tau)) and no data parts.  A zeta so small that
        eps1 overflows, or so large that it rounds to 0, is a DomainError."""
        z = _positive_zeta(zeta)
        with np.errstate(over="ignore", divide="ignore"):
            eps1 = self.omega_p**2 / (z * (z + self.omega_tau))
        zero = np.zeros(z.shape)[()]
        return EpsilonDecomposition(_checked_eps1(eps1, z), zero, zero)

    def epsilon(self, zeta):
        """eps(i zeta)."""
        return self.decompose(zeta).total


def _checked_eps1(eps1, z):
    """The Drude part eps1 at zeta z, which must be finite and positive: a
    zeta so small that omega_p^2 / (zeta (zeta + omega_tau)) overflows, or so
    large that it rounds to 0, is a DomainError naming that zeta."""
    ok = (eps1 > 0) & (eps1 < math.inf)
    if not ok.all():
        raise DomainError(f"zeta={z.flat[np.argmin(ok)]:.4g} rad/s is out of range: omega_p^2 "
                          f"/ (zeta (zeta + omega_tau)) = {eps1.flat[np.argmin(ok)]:g}")
    return eps1


def resistivity(p: DrudeParameters) -> float:
    """Static resistivity omega_tau / (eps0 omega_p^2), in micro-ohm cm."""
    return p.omega_tau / (epsilon_0 * p.omega_p**2) * _OHM_M_TO_UOHM_CM


def epsilon1_analytic(p: DrudeParameters, omega0: float, zeta):
    """Low-frequency Drude contribution to eps(i zeta) from [0, omega0].

    The dispersion integral with the Drude eps'' is

        (2/pi) omega_p^2/(zeta^2 - omega_tau^2)
            * [ atan(omega0/omega_tau) - (omega_tau/zeta) atan(omega0/zeta) ],

    with a removable singularity at zeta = omega_tau.  By
    atan(omega0/omega_tau) - atan(omega0/zeta) = atan(x), with
    x = omega0 (zeta - omega_tau) / (omega_tau zeta + omega0^2), the factor
    zeta - omega_tau cancels:

        (2/pi) omega_p^2 [ atan(omega0/omega_tau)
                           + omega_tau omega0 T(x) / (omega_tau zeta + omega0^2) ]
            / (zeta (zeta + omega_tau)),

    with T(x) = atan(x)/x and T(0) = 1.  Every term is positive, so the
    one formula holds to rounding for every zeta, omega_tau included.  A
    zeta so small that the quotient overflows gives inf, with no warning.
    """
    z = _positive_zeta(zeta)
    if omega0 < 0:
        raise ValueError("omega0 must be non-negative")
    wt = p.omega_tau
    denom = wt * z + omega0 * omega0
    x = omega0 * (z - wt) / denom
    atan_ratio = np.divide(np.arctan(x), x, out=np.ones_like(x), where=x != 0)
    with np.errstate(over="ignore", divide="ignore"):
        out = ((2.0 / math.pi) * p.omega_p**2
               * (math.atan(omega0 / wt) + wt * omega0 * atan_ratio / denom)
               / (z * (z + wt)))
    return out[()]


@validated
class EpsilonDecomposition(NamedTuple):
    """eps(i zeta) split by spectral origin; total = 1 + sum of the parts.

    The parts have the shape of zeta: numpy float64 for a scalar zeta.  The
    Drude part is positive; the data parts are 0 for a model without data.
    """

    eps1: float | np.ndarray       # Drude: [0, omega0], or every frequency
    eps2_part: float | np.ndarray  # tabulated data, [omega0, omega1]
    eps3_part: float | np.ndarray  # tabulated data above omega1 plus the power-law tail

    def _validate(self):
        if not np.all(self.eps1 > 0):
            raise DomainError("eps1 must be positive")
        for name in ("eps2_part", "eps3_part"):
            if not np.all(getattr(self, name) >= 0):
                raise DomainError(f"{name} must be non-negative")

    @property
    def total(self):
        return 1.0 + self.eps1 + self.eps2_part + self.eps3_part


def _tail_series(b: float, x2: np.ndarray) -> np.ndarray:
    """2F1(1, b; 1 + b; -x2) = sum_k b / (b + k) (-x2)^k, elementwise for
    0 <= x2 <= _TAIL_X2_MAX.

    Each term comes from the previous one by the ratio of consecutive
    hypergeometric terms, and an element's sum stops at the first term below
    _UNIT_ROUNDOFF of its partial sum.  That is the power-series branch of
    the Cephes hyp2f1 that scipy.special uses for -1/2 <= z < 0, so the
    values agree with scipy's to the last bit there.
    """
    z = -x2
    c = 1.0 + b
    total = np.ones_like(z)
    term = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    k = 0.0
    while active.any():
        term = np.where(active, term * ((1.0 + k) * (b + k) * z / ((c + k) * (k + 1.0))),
                        term)
        total = np.where(active, total + term, total)
        active &= np.abs(term / total) > _UNIT_ROUNDOFF
        k += 1.0
    return total


def _log_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in omega and weights in ln omega of the _ORDER-node
    Gauss-Legendre rule on every segment between consecutive `edges`.

    A segment wider than _PANEL_WIDTH in ln omega is split into equal
    panels; data nodes are segment edges, so the log-log interpolant is
    smooth on every panel.
    """
    ln_edges = np.log(edges)
    lo, width = ln_edges[:-1], np.diff(ln_edges)
    panels = np.maximum(1, np.ceil(width / _PANEL_WIDTH)).astype(int)
    seg = np.repeat(np.arange(panels.size), panels)
    k = np.arange(seg.size) - (np.cumsum(panels) - panels)[seg]
    # np.linspace's own arithmetic, for every segment at once
    cuts = k * (width / panels)[seg] + lo[seg]
    nodes, weights = gauss_legendre(np.append(cuts, ln_edges[-1]), _ORDER)
    return np.exp(nodes), weights


@validated
class DielectricModel(NamedTuple):
    """Composite eps(i zeta): Drude segment plus transformed tabulated data.

    The dataset must cover [omega0, omega1]; above its last sample eps'' is
    extended as a power law with the given exponent (must exceed 1 so the
    dispersion integral converges; the true Drude tail falls off as
    omega^-3).

    The dispersion integral of the data and the tail,

        (2/pi) int omega^2 eps''(omega) / (omega^2 + zeta^2) d ln omega,

    is a fixed Gauss-Legendre rule in ln omega (`_rule`), built by each
    eps call: _ORDER nodes on each panel of [max(omega0, omega_min), omega1]
    and [omega1, omega_max] between data samples (wider segments split),
    and on log-spaced panels of the tail in t = omega_max/omega over
    [_TAIL_T_MIN, 1].  The tail below _TAIL_T_MIN is added in closed form
    (`_tail_series`), which holds for zeta up to sqrt(_TAIL_X2_MAX)
    omega_max / _TAIL_T_MIN; a larger zeta raises DomainError.
    """

    drude: DrudeParameters
    dataset: OpticalDataset
    boundaries: FrequencyBoundaries = FrequencyBoundaries()
    tail_exponent: float = 3.0

    def _validate(self):
        if not self.tail_exponent > 1:
            raise ValueError("tail_exponent must exceed 1 for integrability")
        # the slack covers decimal round-trips of omega0 through data files
        if self.dataset.omega_min > self.boundaries.omega0 * (1.0 + 1e-9):
            raise ValueError(
                f"dataset starts at {self.dataset.omega_min:.4g}, above "
                f"omega0={self.boundaries.omega0:.4g}; no data for the "
                f"[omega0, omega1] integral")
        if self.dataset.omega_max < self.boundaries.omega1:
            raise ValueError(
                f"dataset ends at {self.dataset.omega_max:.4g}, below "
                f"omega1={self.boundaries.omega1:.4g}")

    def decompose(self, zeta) -> EpsilonDecomposition:
        """eps(i zeta) by spectral region.  A zeta so small that the Drude
        part overflows is a DomainError."""
        z = _positive_zeta(zeta)
        flat = z.ravel()
        w_max, q = self.dataset.omega_max, self.tail_exponent
        x2 = (flat * (_TAIL_T_MIN / w_max))**2
        if (x2 > _TAIL_X2_MAX).any():
            limit = math.sqrt(_TAIL_X2_MAX) * w_max / _TAIL_T_MIN
            raise DomainError(
                f"zeta={flat.max():.4g} rad/s is above {limit:.4g} rad/s, the "
                f"limit of the closed-form tail ({math.sqrt(_TAIL_X2_MAX):.4g} "
                f"omega_max / {_TAIL_T_MIN:g})")
        omega_sq, weights, columns = _rule(self)
        sums = np.empty((3, flat.size))
        step = max(1, _BLOCK // weights.size)
        work = aligned_empty((min(step, flat.size), weights.size))
        for start in range(0, flat.size, step):
            block = flat[start:start + step, None]
            terms = work[:block.shape[0]]
            np.add(omega_sq, block * block, out=terms)
            np.divide(weights, terms, out=terms)
            rows = slice(start, start + step)
            for k, cols in enumerate(columns):
                np.add.reduce(terms[:, cols], axis=1, out=sums[k, rows])
        # int_0^T t^(q-1) / (1 + (zeta t / w_max)^2) dt
        #   = (T^q / q) 2F1(1, q/2; 1 + q/2; -(zeta T / w_max)^2)
        rest = ((2.0 / math.pi) * self.dataset.eps2[-1] * _TAIL_T_MIN**q / q
                * _tail_series(0.5 * q, x2))
        eps1 = _checked_eps1(epsilon1_analytic(self.drude, self.boundaries.omega0, flat), flat)
        parts = (eps1, sums[0], sums[1] + (sums[2] + rest))
        return EpsilonDecomposition(*(part.reshape(z.shape)[()] for part in parts))

    def epsilon(self, zeta):
        """eps(i zeta)."""
        return self.decompose(zeta).total


def _rule(model: DielectricModel) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(omega^2, weights, columns) of the dispersion rule of `model`: its
    nodes, their weights carrying (2/pi) omega^2 eps''(omega), and the
    columns of the three regions, the data below and above omega1 and the
    tail panels, from one `_log_panels` call over all their edges.
    eps(i zeta) is one sum of weight / (omega^2 + zeta^2) per region."""
    ds, (omega0, omega1) = model.dataset, model.boundaries
    w_max, data = ds.omega_max, ds.omega
    # the validator tolerates data starting an ulp above omega0; the rule
    # starts where the data do.  No edge repeats (a repeat would be an
    # empty segment): a sample on omega1 is left out, and data that end at
    # omega1 leave no data edge above it.  np.unique would drop a repeat
    # too, but it imports numpy.ma at its first call.
    lower = max(omega0, ds.omega_min)
    omega, weights = _log_panels(np.hstack(
        (lower, data[(data > lower) & (data < omega1)], omega1,
         data[data > omega1], w_max / _TAIL_T_MIN)))
    i1, i2 = np.searchsorted(omega, (omega1, w_max))
    eps2 = np.concatenate((interpolate_eps2(ds, omega[:i2]),
                           ds.eps2[-1] * (w_max / omega[i2:])**model.tail_exponent))
    return (omega * omega, (2.0 / math.pi) * weights * omega * omega * eps2,
            (slice(0, i1), slice(i1, i2), slice(i2, None)))


class DrudeFit(NamedTuple):
    """Result of a Drude fit: parameters, rms residual in log space, point count."""

    parameters: DrudeParameters
    rms_log_residual: float
    n_points: int


def fit_drude(ds: OpticalDataset, fit_range: tuple[float, float],
              omega_p_fixed: float | None = None) -> DrudeFit:
    """Least-squares fit of the Drude eps'' to the data over `fit_range`.

    The objective is the sum of squares of ln eps''(model) - ln eps''(data),
    which weights the decades evenly.  With `omega_p_fixed` only omega_tau
    varies and omega_p is returned as given.  Requires the range to lie
    inside the data coverage and to contain at least three samples.

    By variable projection the fit is one-dimensional: ln eps''(model) =
    2 ln omega_p + g(s) with s = ln omega_tau, so for each s the best
    ln omega_p is the mean of (ln eps''(data) - g(s)) / 2.  The minimum of
    what is left, phi(s), is evaluated on a grid of s over the physical
    domain 0 < omega_tau < omega_p, _FIT_GRID_DECADES either side of the
    fit range; the deepest grid point not above its neighbours brackets it,
    and `bisect` halves that bracket down to the float where the analytic
    phi'(s) changes sign.  Raises ConvergenceError when phi has no minimum
    inside the grid, or phi' no sign change across the bracket.
    """
    lo, hi = fit_range
    if not 0 < lo < hi:
        raise ValueError("fit_range must satisfy 0 < lo < hi")
    if lo < ds.omega_min or hi > ds.omega_max:
        raise ValueError(
            f"fit_range [{lo:.4g}, {hi:.4g}] not within data coverage "
            f"[{ds.omega_min:.4g}, {ds.omega_max:.4g}]")
    if omega_p_fixed is not None and not 0 < omega_p_fixed < math.inf:
        raise ValueError("omega_p_fixed must be finite and positive")
    mask = (ds.omega >= lo) & (ds.omega <= hi)
    w = ds.omega[mask]
    ln_data = np.log(ds.eps2[mask])
    if len(w) < 3:
        raise ValueError(f"need at least 3 samples in fit_range, got {len(w)}")
    ln_w, w2 = np.log(w), w * w

    def profile(s):
        """(residuals, ln omega_p) at ln omega_tau = s; s is a float or a
        column of them, one row of residuals each."""
        raw = s - ln_w - np.log(w2 + np.exp(2.0 * s)) - ln_data
        if omega_p_fixed is None:
            ln_wp = -0.5 * raw.mean(axis=-1, keepdims=True)
        else:
            ln_wp = math.log(omega_p_fixed)
        return raw + 2.0 * ln_wp, ln_wp

    pad = _FIT_GRID_DECADES * math.log(10.0)
    grid = np.arange(math.log(lo) - pad, math.log(hi) + pad, _FIT_GRID_STEP)[:, None]
    r, ln_wp = profile(grid)
    phi = np.where(grid < ln_wp, (r * r).sum(axis=1, keepdims=True), np.inf).ravel()
    left, mid, right = phi[:-2], phi[1:-1], phi[2:]
    minima = np.flatnonzero((mid <= left) & (mid <= right) & (right < np.inf)) + 1
    if minima.size == 0:
        raise ConvergenceError(
            f"Drude fit over [{lo:.4g}, {hi:.4g}] has no minimum for "
            f"omega_tau in [{math.exp(grid[0, 0]):.3g}, {math.exp(grid[-1, 0]):.3g}] "
            f"below omega_p")

    def slope(s: float) -> float:
        """phi'(s) / 2 = r . dg/ds: ln omega_p is either fixed or makes the
        residuals sum to 0, so its own dependence on s drops out."""
        t2 = math.exp(2.0 * s)
        return float(profile(s)[0] @ ((w2 - t2) / (w2 + t2)))

    j = int(minima[np.argmin(phi[minima])])
    s = bisect(slope, float(grid[j - 1, 0]), float(grid[j + 1, 0]))
    if omega_p_fixed is None:
        params = DrudeParameters(math.exp(float(profile(s)[1][0])), math.exp(s))
    else:
        params = DrudeParameters(omega_p_fixed, math.exp(s))
    residual = np.log(drude_eps2(params.omega_p, params.omega_tau, w)) - ln_data
    return DrudeFit(params, float(np.sqrt(np.mean(residual**2))), len(w))
