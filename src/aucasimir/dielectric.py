"""Dielectric function of gold on the imaginary frequency axis.

eps(i zeta) is what the Lifshitz formula consumes.  It is assembled from
three spectral regions of the dispersion relation

    eps(i zeta) = 1 + (2/pi) int_0^inf  omega eps''(omega) / (omega^2 + zeta^2) d omega

  * [0, omega0]   : no tabulated data; a Drude extrapolation integrated in
                    closed form (`epsilon1_analytic`), one formula of
                    positive terms for every zeta,
  * [omega0, omega1] and [omega1, omega_max] : tabulated eps'' integrated
                    numerically with log-log interpolation,
  * above omega_max : a power-law tail eps'' ~ omega^(-tail_exponent),
                    integrated on the same rule up to where what is left
                    out is below the rounding of eps.

The numerical regions use a fixed Gauss-Legendre rule in ln omega, sized
segment by segment to one error bound (`_quadrature.log_sizing`), so
eps(i zeta) for any number of zeta values is one broadcast sum over the
nodes.

Both dielectric models, the pure Drude `DrudeParameters` and the tabulated
`DielectricModel`, answer one contract: `decompose(zeta)` gives eps(i zeta)
by spectral region (an `EpsilonDecomposition`; a Drude model has no data
parts) and `epsilon(zeta)` is its total.  Every eps evaluator here takes an
array of zeta, each element finite and positive, and returns an array of
its shape; a scalar zeta is a 0-d array and gives a numpy float64 equal
bit for bit to the matching array element.

Each value is checked once.  A model's `decompose` checks its zeta on
entry (`_positive_zeta`: finite and positive, else ValueError) and its
Drude part next (`_checked_eps1`: positive and finite, else a DomainError
naming zeta), before any data part is summed.  The data parts are sums of
positive terms, so the `EpsilonDecomposition` that carries the parts is a
plain result.  `lifshitz.force_scan` checks whatever eps callable it is
given, once per scan.

The low-frequency Drude parameters dominate the result and are either given
directly or fitted to the data (`fit_drude`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._quadrature import aligned_empty, bisect, log_rule
from ._value import validated
from .constants import epsilon_0
from .errors import ConvergenceError, DomainError
from .optical import OMEGA0_DEFAULT, OMEGA1_DEFAULT, OpticalDataset, interpolate_eps2

#: ohm m -> micro-ohm cm
_OHM_M_TO_UOHM_CM = 1e8

#: elements of the broadcast sum's work array, zeta rows times rule nodes
#: (22 rows of the bundled data's 676 nodes).  The aligned array is then at
#: most 120 KiB and 56 bytes, under glibc's 128 KiB mmap threshold, so it
#: comes from heap pages the process already holds: an array from that
#: threshold on is freshly mapped at every call, and each of its pages
#: faults on first touch.  Each zeta row is summed on its own, so the
#: block size moves no bit
_BLOCK = 15 * 1024

#: the Drude fit brackets ln omega_tau on a grid of this step, reaching this
#: many decades below and above the fit range
_FIT_GRID_STEP = 0.25
_FIT_GRID_DECADES = 3.0

#: the steepest power-law tail a `DielectricModel` takes.  The tail's
#: panels are sized for the Lorentzian pole, not for the factor
#: (omega_max / omega)^q, so the rule stops resolving the tail as q grows:
#: against mpmath its column meets the rule's bound up to q = 22, is 1.9
#: times off at 24, 1e-3 relative at 100 and reads 0 at 1e6.  At q = 18
#: the tail ends a decade above the data (t_min = 10^(-18/q) = 0.1)
_Q_MAX = 18.0


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
    zeta so small that the quotient overflows gives inf, and one from
    2^512 on, where zeta (zeta + omega_tau) overflows, gives 0 (the value
    is below 1e-276 there), both with no warning.
    """
    z = _positive_zeta(zeta)
    if not 0 <= omega0 < math.inf:
        raise ValueError(f"omega0 must be non-negative and finite, got {omega0}")
    wt = p.omega_tau
    # the bracket is taken at zeta = 2^512 from there on, where it stays
    # finite and the quotient is 0
    zb = np.minimum(z, 2.0**512)
    denom = wt * zb + omega0 * omega0
    x = omega0 * (zb - wt) / denom
    atan_ratio = np.divide(np.arctan(x), x, out=np.ones_like(x), where=x != 0)
    with np.errstate(over="ignore", divide="ignore"):
        out = ((2.0 / math.pi) * p.omega_p**2
               * (math.atan(omega0 / wt) + wt * omega0 * atan_ratio / denom)
               / (z * (z + wt)))
    return out[()]


class EpsilonDecomposition(NamedTuple):
    """eps(i zeta) split by spectral origin; total = 1 + sum of the parts.

    The parts have the shape of zeta: numpy float64 for a scalar zeta.  The
    Drude part is positive and finite (`_checked_eps1`); the data parts are
    sums of positive terms, and 0 for a model without data.  A result, it
    is not checked again on construction.
    """

    eps1: float | np.ndarray       # Drude: [0, omega0], or every frequency
    eps2_part: float | np.ndarray  # tabulated data, [omega0, omega1]
    eps3_part: float | np.ndarray  # tabulated data above omega1 plus the power-law tail

    @property
    def total(self):
        return 1.0 + self.eps1 + self.eps2_part + self.eps3_part


@validated
class DielectricModel(NamedTuple):
    """Composite eps(i zeta): Drude segment plus transformed tabulated data.

    The spectral edges 0 < omega0 < omega1 [rad/s] bound the three regions:
    below omega0 the Drude extrapolation is integrated analytically, and
    above omega1 interband absorption dominates and the data are sample
    independent.  The dataset must cover [omega0, omega1]; above its last
    sample eps'' is extended as a power law with the given exponent q
    (above 1 so the dispersion integral converges, and at most `_Q_MAX` =
    18, which the rule resolves; the true Drude tail falls off as
    omega^-3).

    The dispersion integral of the data and the tail,

        (2/pi) int omega^2 eps''(omega) / (omega^2 + zeta^2) d ln omega,

    is a fixed Gauss-Legendre rule in ln omega (`_rule`), built by each
    eps call: each segment of [max(omega0, omega_min), omega1] and
    [omega1, omega_max] between data samples, and the tail in t =
    omega_max/omega over [t_min, 1], gets the order and equal panels with
    the fewest nodes that meet one error bound (`log_sizing`): 5 nodes on
    each segment of the bundled data and 3 panels of 32 on the tail.
    With t_min = 10^(-18/q), the tail left out below t_min,
    (2/pi) eps''(omega_max) int_0^t_min t^(q-1) / (1 + (zeta t /
    omega_max)^2) dt, is at most (2/pi) eps''(omega_max) 1e-18 / q, below
    the rounding of eps >= 1, at every zeta.  So both models take every
    zeta their Drude part takes: up to 2^512, where it rounds to 0.

    Accuracy: the rule's error is at rounding (its bound is 2.3e-18, which
    the tail meets up to q = 22), so the log-log interpolant of the table
    sets the accuracy of the tabulated path.  Against the closed form of
    the Drude + two-Lorentz model that generated the bundled table (30
    samples per decade), eps(i zeta) is low by at most 3.0e-4 and the
    force at 63 nm by 4.4e-5; at 10 and 100 samples per decade seeded
    spectra of that kind stay within 6.1e-3 and 6.4e-5 in eps
    (tests/test_generator_oracle.py).
    """

    drude: DrudeParameters
    dataset: OpticalDataset
    omega0: float = OMEGA0_DEFAULT
    omega1: float = OMEGA1_DEFAULT
    tail_exponent: float = 3.0

    def _validate(self):
        if not 0 < self.omega0 < self.omega1:
            raise ValueError(f"need 0 < omega0 < omega1, got ({self.omega0}, {self.omega1})")
        if not 1 < self.tail_exponent < math.inf:
            raise ValueError("tail_exponent must be finite and exceed 1 for "
                             "integrability")
        if self.tail_exponent > _Q_MAX:
            raise ValueError(f"tail_exponent must be at most {_Q_MAX:g}, beyond which "
                             f"the tail rule does not resolve the power law, got "
                             f"{self.tail_exponent:g}")
        # the slack covers decimal round-trips of omega0 through data files
        if self.dataset.omega_min > self.omega0 * (1.0 + 1e-9):
            raise ValueError(
                f"dataset starts at {self.dataset.omega_min:.4g}, above "
                f"omega0={self.omega0:.4g}; no data for the "
                f"[omega0, omega1] integral")
        if self.dataset.omega_max < self.omega1:
            raise ValueError(
                f"dataset ends at {self.dataset.omega_max:.4g}, below "
                f"omega1={self.omega1:.4g}")

    def decompose(self, zeta) -> EpsilonDecomposition:
        """eps(i zeta) by spectral region.  A zeta so small that the Drude
        part overflows, or so large that it rounds to 0, is a DomainError."""
        # epsilon1_analytic checks zeta, and the Drude part is checked before
        # zeta^2 is taken, so zeta^2 does not overflow
        z = np.asarray(zeta, dtype=float)
        eps1 = _checked_eps1(epsilon1_analytic(self.drude, self.omega0, z), z)
        flat = z.ravel()
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
        parts = (sums[0], sums[1] + sums[2])
        return EpsilonDecomposition(eps1, *(part.reshape(z.shape)[()] for part in parts))

    def epsilon(self, zeta):
        """eps(i zeta)."""
        return self.decompose(zeta).total


def _rule(model: DielectricModel) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(omega^2, weights, columns) of the dispersion rule of `model`: its
    nodes, their weights carrying (2/pi) omega^2 eps''(omega), and the
    columns of the three regions, the data below and above omega1 and the
    tail panels, from one `log_rule` over all their edges in ln omega.
    Data nodes are edges, so the log-log interpolant is smooth on every
    panel, and each segment between them gets the fewest nodes that meet
    the rule's error bound.  eps(i zeta) is one sum of weight / (omega^2 +
    zeta^2) per region."""
    ds, omega0, omega1 = model.dataset, model.omega0, model.omega1
    w_max, data = ds.omega_max, ds.omega
    # the validator tolerates data starting an ulp above omega0; the rule
    # starts where the data do.  No edge repeats (a repeat would be an
    # empty segment): a sample on omega1 is left out, and data that end at
    # omega1 leave no data edge above it.  np.unique would drop a repeat
    # too, but it imports numpy.ma at its first call.
    lower = max(omega0, ds.omega_min)
    # the tail ends at t = omega_max/omega = t_min, where what it leaves
    # out, at most (2/pi) eps''(omega_max) t_min^q / q, is below eps's
    # rounding; t_min is 1e-6 at q = 3 and 0.1 at q = `_Q_MAX`
    t_min = 10.0 ** (-18.0 / model.tail_exponent)
    ln_omega, weights = log_rule(np.log(np.concatenate(
        ((lower,), data[(data > lower) & (data < omega1)], (omega1,),
         data[data > omega1], (w_max / t_min,)))))
    omega = np.exp(ln_omega)
    i1, i2 = omega.searchsorted((omega1, w_max))
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
    r, ln_wp = profile(s)
    omega_p = math.exp(float(ln_wp[0])) if omega_p_fixed is None else omega_p_fixed
    return DrudeFit(DrudeParameters(omega_p, math.exp(s)),
                    float(np.sqrt(np.mean(r**2))), len(w))
