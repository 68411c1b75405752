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
rule in v = u^(1/4), u = exp(-(p - 1) zeta a / c), which also supplies the
damping.  Each frequency's row takes one of four rules by its own
y = zeta a / c, which differ only in panels and nodes: four panels of 16
nodes clustered towards p = 1 below `_Y_FAR` = 0.5, one panel of 32 nodes
up to `_Y_TOP` = 2, one of 16 nodes up to `_Y_TAIL` = 8 and, from there
on, where a term is below e^-16 of the first ones, one of 8 nodes (64, 32,
16 and 8 nodes at the default order).  The tail rule is good to 9.3e-11
relative per row; a force moves by at most 2.7e-16 of `ideal_force` with
it, at 20 nm-2 um and 0-300 K.  The kernel's work arrays are node-major,
(nodes, rows), and each row's nodes are summed as one contiguous row, so a
p-integral is the same floats whatever others share its call.

One scan, `force_scan`, is the one force function and serves both
temperatures: at T = 0 the n=0 term is zero and the sum is the frequency
integral.  It takes plain numbers: one sphere radius, the separations and
one temperature.  Only the frequency rule depends on T (`_matsubara_rule`,
`_zero_T_rule`), and both rules stop at the same y = zeta a / c, `_Y_MAX`.
The rule is fixed before eps is called and each separation sums over its
own prefix of it, so a scan makes one eps call and one `_frequency_sums`
call, whose rounds bound memory only.

Conventions: geometry in meters, temperature in kelvin, every force is the
attraction magnitude in piconewtons.  All evaluations are pure functions of
immutable inputs; Matsubara terms are mutually independent but are summed
in ascending n for reproducibility.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._quadrature import aligned_empty, gauss_legendre, log_sizing
from .constants import ZETA3, c, hbar, k_B
from .errors import ConvergenceError, DomainError

_N_TO_PN = 1e12
#: separations [m] outside this range are rejected.  Lifshitz theory of
#: continuous media means nothing near either end, and inside it a^2 in
#: `classical_term`, a^3 in `ideal_force` and the p of the zero-T kernel
#: (`_EPS_CAP`) stay far inside the float range; a^2 leaves it below about
#: 1e-162 m and a^3 above 5.6e102 m.
_A_RANGE = (1e-30, 1e30)

#: panel edges of the near p-rule in v, where u = v^4 = exp(-(p - 1) y).
#: They cluster towards v = 1 (p -> 1): at small y both the
#: transverse-electric feature at p ~ sqrt(eps - 1) and the ln(1 - u^2)
#: endpoint sit there.  With 16 nodes a panel the rule is good to about
#: 1e-15 relative for y in [0.01, 0.5]; notes/decisions.md has the sweep.
_V_EDGES = np.array([0.0, 0.75, 0.95, 0.993, 1.0])
#: rows with y at or above this take the far p-rule, one panel [0, 1]: both
#: features have left v = 1, and the far rule is good to 1e-14 relative
#: from y ~ 0.35 on
_Y_FAR = 0.5
#: rows with y at or above this take the top p-rule, one panel [0, 1] of
#: half the far rule's nodes, good to 3e-15 relative from here on
_Y_TOP = 2.0
#: rows with y at or above this take the tail p-rule, one panel [0, 1] of
#: half the top rule's nodes, good to 9.3e-11 relative from here on (y up
#: to 94.6, eps - 1 in [1e-6, 1e99]).  A row's term is at most the
#: perfect-conductor one (see `_Y_MAX`), and those of the rows from here
#: on sum to at most 2.9e-6 of `ideal_force` at 20 nm-2 um and 0-300 K, so
#: the tail rule moves a force by at most 2.7e-16 of it (1.1e-14 were this
#: 6; notes/decisions.md has the table)
_Y_TAIL = 8.0
#: the lower edges in y of the far, top and tail bands, by which
#: `_p_integral` picks each row's rule (np.digitize, so a row at an edge
#: takes the rule above it)
_Y_EDGES = (_Y_FAR, _Y_TOP, _Y_TAIL)
#: elements (rows times nodes) per chunk of the kernel, to bound its work
#: arrays: 112 near rows, 224 far rows, 448 top rows or 896 tail rows at
#: order `_P_ORDER`
_CHUNK = 112 * 64
#: kernel rows (frequencies times separations) per round of
#: `_frequency_sums`, a bound on its memory only
_ROWS = 8192
#: both frequency rules stop at y = zeta a / c = _Y_MAX: the Matsubara sum
#: takes every n with zeta_n a / c <= _Y_MAX, the zero-T integral ends at
#: the first panel edge at or above _Y_MAX c / a.  Every term is at most
#: the perfect-conductor one, (kT R / 2 a^2) [Y Li2(e^-Y) + Li3(e^-Y)] with
#: Y = 2 zeta_n a / c, so the terms left out sum to at most 1.6e-12 of
#: `ideal_force` at 10-300 K and 60-200 nm, and to 3.0e-12 wherever
#: zeta_1 a / c <= 1; the zero-T integral leaves out at most 1.4e-12 of it
_Y_MAX = 15.0
#: the default rules: Gauss-Legendre nodes per panel of the near p-rule
#: (`_p_rule`) and of the zero-T rule's first panel [0, _ZETA_MIN], and its
#: log panels per decade, between the edges _ZETA_MIN 10^(k / _PER_DECADE)
#: (`_zero_T_rule`); 0.8 decades is 1.84 in ln zeta, on which `log_sizing`
#: takes one panel of 16 nodes.  force_scan(..., tightened=True) doubles
#: every order and the panels per decade and divides _ZETA_MIN by 10, for
#: convergence checks.
_P_ORDER = 16
_ZETA_ORDER = 8
_ZETA_MIN = 1e11
_PER_DECADE = 1.25
#: the zero-T rule's reach: its first panel [0, zeta_min] stops resolving
#: the integrand as zeta_min a / c grows, so a separation with
#: zeta_min a / c above this raises, 4.80 um at `_ZETA_MIN` (48.0 um
#: tightened).  Up to there the default rule is within 6.5e-7 of the
#: tightened one for Drude and tabulated gold; at 1 m it is 100 % off
_Y_REACH = 1.6e-3
#: a Matsubara sum that would need more terms raises before eps is called
_N_MAX = 10**6
#: eps(i zeta) enters the kernel capped at this value, and the cap is exact:
#: the reflection coefficients differ from their eps -> inf limits by
#: O(p / sqrt(eps)), which is below 1e-16 relative while p < 1e34.  Every
#: Matsubara row has y >= _Y_MAX / _N_MAX = 1.5e-5, so p < 2e6, and the
#: first zero-T node has y of about 0.18 a[m] or more (tightened rule), so
#: p < 2e32 at every separation of `_A_RANGE`.  Up to p ~ 1e54 no
#: intermediate value overflows; an eps below the cap keeps its bits.
_EPS_CAP = 1e100


class ForceResult(NamedTuple):
    """Sphere-plate force [pN] and its decomposition.

    total = n0_term + sum_terms.  At T > 0, n_terms_used counts the n >= 1
    Matsubara terms summed, those with zeta_n a / c <= `_Y_MAX` (none
    where zeta_1 a / c exceeds it, and then total = n0_term); at T = 0,
    n0_term is 0, sum_terms is the frequency integral and n_terms_used
    counts its nodes.
    """

    total: float
    n0_term: float
    sum_terms: float
    n_terms_used: int


def _check(sphere_radius: float = 1.0, separation: float = 1.0,
           temperature: float = 0.0) -> None:
    """Raise ValueError naming the first argument out of its domain: radius
    finite and positive, separation finite, positive and within `_A_RANGE`,
    temperature finite and >= 0."""
    if not 0 < sphere_radius < math.inf:
        raise ValueError("sphere_radius must be finite and positive")
    if not 0 < separation < math.inf:
        raise ValueError("separation must be finite and positive")
    if not _A_RANGE[0] <= separation <= _A_RANGE[1]:
        raise ValueError(f"separation {separation:.4g} m is outside "
                         f"[{_A_RANGE[0]:g}, {_A_RANGE[1]:g}] m")
    if not 0 <= temperature < math.inf:
        raise ValueError("temperature must be finite and non-negative")


def matsubara_frequency(n, temperature: float):
    """zeta_n = 2 pi n k T / hbar, in rad/s; n may be an integer array."""
    _check(temperature=temperature)
    return 2.0 * math.pi * n * k_B * temperature / hbar


def ideal_force(sphere_radius: float, separation: float) -> float:
    """Perfect-conductor sphere-plate force pi^3 hbar c R / (360 a^3), in pN."""
    _check(sphere_radius, separation)
    return (math.pi**3 * hbar * c / 360.0
            * sphere_radius / separation**3 * _N_TO_PN)


#: the n=0 prescriptions of `classical_term`
PRESCRIPTIONS = ("schwinger", "halved")


def check_prescription(prescription: str) -> None:
    """Raise ValueError unless `prescription` is one of PRESCRIPTIONS."""
    if prescription not in PRESCRIPTIONS:
        raise ValueError(f"prescription must be one of "
                         f"{', '.join(map(repr, PRESCRIPTIONS))}, got {prescription!r}")


def classical_term(sphere_radius: float, separation: float, temperature: float,
                   prescription: str = "schwinger") -> float:
    """The n=0 (static) term of the Matsubara sum, in pN.

    "schwinger": ideal-conductor static limit, kT R zeta(3) / (4 a^2).
    "halved": half of that, the alternative prescription for nonideal
    metals.  Returns 0 at zero temperature.
    """
    check_prescription(prescription)
    _check(sphere_radius, separation, temperature)
    f = k_B * temperature * sphere_radius * ZETA3 / (4.0 * separation**2)
    if prescription == "halved":
        f *= 0.5
    return f * _N_TO_PN


@functools.cache
def _p_rule(order: int, band: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln u, u, weight) of the p-rule of `band` for `order`, 1-D and
    read-only (see `_p_integral`), Gauss-Legendre in v with u = v^4: band
    0, the near rule, has `order` nodes on each panel of `_V_EDGES`, and
    the others one panel [0, 1]: band 1, the far rule, 2 `order` nodes,
    band 2, the top rule, `order` and band 3, the tail rule, `order` // 2
    (64, 32, 16 and 8 nodes at `_P_ORDER`)."""
    v, w = (gauss_legendre(_V_EDGES, order) if band == 0
            else gauss_legendre((0.0, 1.0), (2 * order, order, order // 2)[band - 1]))
    ln_u, u, weights = 4.0 * np.log(v), v * v * v * v, 4.0 * w / v
    ln_u.flags.writeable = u.flags.writeable = weights.flags.writeable = False
    return ln_u, u, weights


def _p_integral(eps_values: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """-int_1^inf dp p ln[(1 - g_te)(1 - g_tm)]  (positive), elementwise
    for 1-D arrays of eps(i zeta) and y = zeta a / c.

    Substituting u = exp(-(p-1) y) = v^4 maps the infinite range onto
    (0, 1] and makes the integrand vanish like v^7 ln v at v -> 0;
    dp = -4 dv / (v y).  The rule is Gauss-Legendre in v, so the endpoints
    are never evaluated, and each row takes it by its own y (`_p_rule`,
    bands split at `_Y_EDGES`): rows below `_Y_FAR` the near rule on the
    four panels of `_V_EDGES` (64 nodes at the default order), rows below
    `_Y_TOP` the far rule on one panel (32 nodes), rows below `_Y_TAIL`
    the top rule (16 nodes) and the others the tail rule (8 nodes).

    With chi = eps - 1, s = sqrt(chi + p^2) and d = chi exp(-y) u, the
    damping exp(-2 y p) = (exp(-y) u)^2 comes from the rule and the
    reflection coefficients are written without cancellation:
    g_te = (d / (p + s)^2)^2, g_tm = (d ((eps + 1) p^2 - 1) / (eps p + s)^2)^2
    and ln(1 - g_te) + ln(1 - g_tm) = log1p(g_te g_tm - g_te - g_tm).  The
    rows of each rule go through in chunks of at most `_CHUNK` elements,
    in aligned work arrays allocated once per call (a fresh temporary per
    operation and chunk makes the allocator trim and regrow the heap,
    10-30 % of a Drude scan).  A chunk's arrays are node-major, (nodes,
    rows), so every operation's inner loop runs over the chunk's rows.  The
    node sum reduces the chunk copied to (rows, nodes), each row as np.sum
    sums it, so a row's floats do not depend on the other rows.
    """
    out = np.empty(y.shape)
    band = np.digitize(y, _Y_EDGES)
    groups = [(rows, _p_rule(order, b)) for b in range(len(_Y_EDGES) + 1)
              if (rows := np.flatnonzero(band == b)).size]
    work = aligned_empty((5, max((min(_CHUNK, rows.size * rule[0].size)
                                  for rows, rule in groups), default=0)))
    for rows, rule in groups:
        ln_u, u, weights = (x[:, None] for x in rule)
        nodes = ln_u.shape[0]
        step = _CHUNK // nodes
        for i in range(0, rows.size, step):
            chunk = rows[i:i + step]
            pb, sb, te, tm, tmp = work[:, :nodes * chunk.size].reshape(
                5, nodes, chunk.size)
            yb, eps = y[chunk], eps_values[chunk]
            chi = eps - 1.0
            np.subtract(1.0, np.divide(ln_u, yb, out=pb), out=pb)
            np.sqrt(np.add(chi, np.multiply(pb, pb, out=tm), out=sb), out=sb)
            np.multiply(chi * np.exp(-yb), u, out=tmp)                      # d
            # g_tm = (d ((eps + 1) p^2 - 1) / (eps p + s)^2)^2, g_te = (d / (p + s)^2)^2
            np.subtract(np.multiply(eps + 1.0, tm, out=tm), 1.0, out=tm)
            np.multiply(tm, tmp, out=tm)
            np.divide(tmp, np.square(np.add(pb, sb, out=te), out=te), out=te)
            np.add(np.multiply(eps, pb, out=tmp), sb, out=tmp)
            np.square(np.divide(tm, np.square(tmp, out=tmp), out=tm), out=tm)
            np.square(te, out=te)
            # the integrand p log1p(g_te g_tm - g_te - g_tm), times the weights
            np.subtract(np.subtract(np.multiply(te, tm, out=tmp), te, out=tmp), tm,
                        out=tmp)
            np.multiply(pb, np.log1p(tmp, out=tmp), out=tmp)
            np.multiply(tmp, weights, out=tmp)
            # the node sum, over each row's nodes copied contiguous into pb
            by_row = pb.reshape(chunk.size, nodes)
            np.copyto(by_row, tmp.T)
            out[chunk] = np.add.reduce(by_row, axis=1)
    return np.divide(out, -y, out=out)


def _eps_at(eps: Callable, zeta: np.ndarray) -> np.ndarray:
    """eps(i zeta) on a 1-D array of zeta, checked to exceed 1 (any causal
    absorptive medium does) and to be finite everywhere."""
    values = np.broadcast_to(np.asarray(eps(zeta), dtype=float), zeta.shape)
    bad = ~((values > 1.0) & (values < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"eps(i zeta) must exceed 1 and be finite, got "
                          f"{values[i]} at zeta={zeta[i]:.4g}")
    return values


def _frequency_sums(zeta: np.ndarray, weights: np.ndarray,
                    eps_values: np.ndarray, a: np.ndarray, counts: np.ndarray,
                    order: int) -> np.ndarray:
    """sum_{k < counts[i]} weights[k] zeta[k]^2 P(zeta[k] a[i] / c) for every
    separation a[i], where P is the p-integral (`_p_integral`) at
    eps(i zeta[k]) = eps_values[k]: the frequency sum or integral of each
    separation over its prefix of one shared frequency rule.

    The kernel runs in rounds of at most `_ROWS` rows: each round takes the
    next max(1, _ROWS // m) frequencies for the m separations whose
    prefixes reach them, which bounds its memory whatever the scan and the
    temperature.  Each separation's terms are added one by one in ascending
    k, so its sum is, to the bit, that of the separation alone.
    """
    sums = np.zeros(a.shape)
    start, end = 0, int(counts.max())
    while start < end:
        active = np.flatnonzero(counts > start)
        n = np.arange(start, min(start + max(1, _ROWS // active.size), end))
        live = n < counts[active, None]
        k = np.broadcast_to(n, live.shape)[live]
        z = zeta[k]
        integrals = _p_integral(
            eps_values[k], z * a[active].repeat(live.sum(axis=1)) / c, order)
        terms = np.zeros(live.shape)
        terms[live] = z * z * integrals * weights[k]
        terms[:, 0] += sums[active]
        sums[active] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        start += n.size
    return sums


def _matsubara_rule(temperature: float, radius: float, a: np.ndarray):
    """(zeta, weights, counts, prefactor) of the Matsubara sum at T > 0:
    separation a[i] sums its first counts[i] frequencies zeta_n, n >= 1,
    with weight 1 and prefactor kT R / c^2 [pN].

    counts[i] = floor(_Y_MAX c / (zeta_1 a[i])) takes every n with
    zeta_n a[i] / c <= _Y_MAX, and none where zeta_1 a[i] / c exceeds it.
    A count above `_N_MAX` raises ConvergenceError naming the separation;
    at a temperature so small that zeta_1 underflows to 0 the count is inf.
    """
    with np.errstate(divide="ignore"):
        counts = np.floor(_Y_MAX * c / (matsubara_frequency(1, temperature) * a))
    over = counts > _N_MAX
    if over.any():
        i = int(np.argmax(over))
        raise ConvergenceError(
            f"Matsubara sum at a = {a[i] * 1e9:.6g} nm, T = {temperature:g} K "
            f"needs {counts[i]:.0f} terms, more than {_N_MAX}")
    counts = counts.astype(int)
    zeta = matsubara_frequency(np.arange(1, counts.max() + 1), temperature)
    return (zeta, np.ones(zeta.size), counts,
            k_B * temperature * radius / c**2 * _N_TO_PN)


def _zero_T_rule(radius: float, a: np.ndarray, tightened: bool):
    """(zeta, weights, counts, prefactor) of the frequency integral at T = 0:
    separation a[i] sums its first counts[i] nodes with prefactor
    hbar R / (2 pi c^2) [pN].  A separation with zeta_min a / c above
    `_Y_REACH` raises DomainError naming it.

    A first panel [0, zeta_min], zeta_min = `_ZETA_MIN`, of `_ZETA_ORDER`
    Gauss-Legendre nodes in zeta, where the integrand levels off up to
    200 nm (for a Drude metal the transverse-electric part has died off
    and the transverse-magnetic part tends to its static value); then
    panels in s = ln zeta, with weight zeta, between the edges zeta_min
    10^(k / `_PER_DECADE`), k = 0, 1, ..., up to the first edge at or above
    _Y_MAX c / a[i] for separation a[i].  Their order is the one
    `log_sizing` gives a panel 1 / _PER_DECADE decades wide (16), so each
    meets the dispersion rule's error bound (its own is 8e-19).  The
    tightened rule doubles both orders and the panels per decade and
    divides zeta_min by 10.  The rule never evaluates zeta = 0.  The edges
    do not depend on a, so each separation's rule is a prefix of the
    closest one's.  `force_scan` states its accuracy.
    """
    zeta_min = _ZETA_MIN / 10.0 if tightened else _ZETA_MIN
    scale = 2 if tightened else 1
    per_decade, first = scale * _PER_DECADE, scale * _ZETA_ORDER
    order = scale * int(log_sizing([math.log(10.0) / _PER_DECADE])[0][0])
    far = zeta_min * a / c > _Y_REACH
    if far.any():
        raise DomainError(
            f"zero-T force at a = {a[np.argmax(far)] * 1e9:.6g} nm is beyond its "
            f"frequency rule's reach, {_Y_REACH * c / zeta_min * 1e9:.6g} nm")
    tops = _Y_MAX * c / a
    # one edge to spare: the last edge lies a panel above the highest top
    n_edges = math.ceil(per_decade * math.log10(tops.max() / zeta_min)) + 2
    edges = zeta_min * 10.0 ** (np.arange(n_edges) / per_decade)
    last = np.searchsorted(edges, tops)      # first edge at or above each top
    s, s_weights = gauss_legendre(np.log(edges[:last.max() + 1]), order)
    zeta_log = np.exp(s)
    zeta, weights = gauss_legendre((0.0, zeta_min), first)
    return (np.concatenate((zeta, zeta_log)),
            np.concatenate((weights, s_weights * zeta_log)), first + last * order,
            hbar * radius / (2.0 * math.pi * c**2) * _N_TO_PN)


def force_scan(sphere_radius: float, separations: Sequence[float],
               temperature: float, eps: Callable,
               prescription: str = "schwinger",
               tightened: bool = False) -> tuple[ForceResult, ...]:
    """Sphere-plate forces [pN], n=0 term plus frequency sum, one
    `ForceResult` per separation, in input order; at T = 0 the n=0 term is
    0 and the sum is the frequency integral.  One separation is
    force_scan(R, [a], T, eps)[0]; the temperature correction is the
    finite-T total minus the T = 0 total.

    sphere_radius [m] is finite and positive; separations is a 1-D
    sequence of at least one separation [m] within `_A_RANGE` (1e-30 to
    1e30 m), a repeated one computed once; temperature [K] is finite and
    non-negative.  A bad value raises ValueError before eps is called, and
    R/a < 100 warns that the proximity force treatment assumes R >> a.  eps
    is the eps(i zeta) evaluator, taking an array of zeta in rad/s; a value
    not above 1 or not finite raises DomainError, and one above `_EPS_CAP`
    (1e100) counts as that cap, which is exact.  A force, n=0 term plus
    sum, that is not finite raises DomainError.
    prescription, one of PRESCRIPTIONS, handles the n=0 term.  tightened
    selects strictly more demanding rules, for convergence checks: every
    node order and the zero-T panels per decade doubled and `_ZETA_MIN`
    divided by 10; the Matsubara terms (`_Y_MAX`) and their cap (`_N_MAX`)
    stay.  At T = 0 a separation beyond the zero-T rule's reach,
    `_ZETA_MIN` a / c above `_Y_REACH` = 1.6e-3 (4.80 um, or 48.0 um
    tightened), raises DomainError before eps is called.

    The frequency rule, `_matsubara_rule` at T > 0 and `_zero_T_rule` at
    T = 0 (16 nodes a panel in ln zeta, sized to the dispersion rule's
    error bound), is fixed before eps is called (an unreachable Matsubara count
    raises ConvergenceError there), and each separation's rule is a prefix
    of the closest one's: one eps call covers the scan, and
    `_frequency_sums` adds each separation's terms on its own, so each
    result is, to the bit, that of the separation alone.

    Accuracy, against an independent k-space integral: for the Drude rows
    (1.37e16, 3.7e13), (1.38e16, 5.38e13) and (1.37e16, 1e13) rad/s at
    20-200 nm and 10-300 K, 6.3e-14 relative at T > 0, and at T = 0 6.3e-12
    for the first two and 3.8e-11 for the third (at 200 nm).  Farther out
    the transverse-electric feature near omega_tau c^2 / (omega_p a)^2
    falls inside the first zero-T panel: for omega_p = 1.37e16 rad/s the
    T = 0 gaps at 500 nm, 1 um and 2 um are 9.4e-10, 9.7e-9 and 7.9e-8
    (omega_tau = 1e13), 1.6e-10, 1.9e-9 and 2.1e-8 (3.7e13) and 4.0e-11,
    5.2e-10 and 6.2e-9 (1e14 rad/s); the tightened rule is within 3e-11.
    At the reach, 4.80 um, the default rule is 2.0e-7 from the tightened
    one for (1.38e16, 5.38e13) and the bundled table, 6.5e-7 for
    (1.37e16, 1e13).
    Each p-integral (`_p_integral`), over eps - 1 in [1e-6, 1e18], is good
    to about 1e-15 relative for y = zeta a / c in [0.01, `_Y_FAR`) on the
    near rule's 64 nodes, and to 3e-15 from `_Y_FAR` to `_Y_TAIL`, on one
    panel: 32 nodes below `_Y_TOP` and 16 from there on.  From `_Y_TAIL`
    on, 8 nodes are good to 9.3e-11 relative (up to eps - 1 = 1e99 and to
    y = 94.6, the zero-T rule's last edge); those rows' terms are at most
    their perfect-conductor ones, which sum to at most 2.9e-6 of
    `ideal_force` at 20 nm-2 um and 0-300 K, so the tail rule moves a
    force by at most 2.7e-16 of it.  Below
    y = 0.01 the near rule drifts, to 1e-9 at y = 1e-3 and 2e-8 at 1e-5.
    """
    separations = np.asarray(separations, dtype=float)
    if separations.ndim != 1 or not separations.size:
        raise ValueError("force_scan needs a 1-D sequence of at least one "
                         "separation")
    a, where = np.unique(separations, return_inverse=True)     # sorted
    # classical_term checks every value, before eps is called
    n0 = [classical_term(sphere_radius, x, temperature, prescription)
          for x in a.tolist()]
    if sphere_radius < 100 * a[-1]:
        warnings.warn("sphere_radius / separation < 100: the proximity force "
                      "treatment assumes R >> a", stacklevel=2)
    zeta, weights, counts, prefactor = (
        _matsubara_rule(temperature, sphere_radius, a) if temperature > 0
        else _zero_T_rule(sphere_radius, a, tightened))
    eps_values = np.minimum(_eps_at(eps, zeta), _EPS_CAP)
    # a force that overflows all the same (at an extreme sphere radius) is
    # not finite and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        sums = prefactor * _frequency_sums(zeta, weights, eps_values, a, counts,
                                           2 * _P_ORDER if tightened else _P_ORDER)
        totals = n0 + sums
    bad = ~np.isfinite(totals)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"force at a = {a[i] * 1e9:.6g} nm, T = {temperature:g} K is not "
            f"finite")
    results = [ForceResult(total=float(totals[i]), n0_term=n0[i],
                           sum_terms=float(sums[i]), n_terms_used=int(counts[i]))
               for i in range(a.size)]
    return tuple(results[i] for i in where)
