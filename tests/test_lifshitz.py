import functools
import json
import math
import re
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import Boltzmann as k_B, c, hbar

from aucasimir import (ConvergenceError, DielectricModel, DomainError,
                       DrudeParameters, classical_term, force_scan, ideal_force,
                       matsubara_frequency)
from aucasimir import lifshitz
from aucasimir._quadrature import gauss_legendre
from aucasimir.cli import main
from aucasimir.config import load_run_config, package_data_dir
from aucasimir.lifshitz import (_A_RANGE, _CHUNK, _EPS_CAP, _P_ORDER, _PER_DECADE,
                                _ROWS, _Y_EDGES, _Y_FAR, _Y_MAX, _Y_REACH, _Y_TAIL,
                                _Y_TOP, _ZETA_MIN, _ZETA_ORDER, ZETA3,
                                _p_integral, _p_rule)

from conftest import SPHERE_RADIUS, TAIL_RTOL, drude_rows

#: a row count for the kernel tests' arrays
ROWS = 64


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


def by_rule(p_integral_on):
    """The p-integral of `p_integral_on(rule, eps_value, y)`, each row on
    the rule `_p_integral` picks for it, band b from the (b - 1)-th of
    `_Y_EDGES` to the b-th: the near rule (band 0) below y = `_Y_FAR`, the
    far rule (band 1) below `_Y_TOP`, the top rule (band 2) below
    `_Y_TAIL` and the tail rule (band 3) from there on."""
    def p_integral(eps_value, y, order):
        out = np.empty(y.shape)
        edges = (-math.inf, *_Y_EDGES, math.inf)
        for band, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
            rows = (low <= y) & (y < high)
            out[rows] = p_integral_on(_p_rule(order, band), eps_value[rows], y[rows])
        return out
    return p_integral


def p_integral_transcribed_on(rule, eps_value, y):
    """`_p_integral` on one rule as plain allocating numpy, operation for
    operation.

    eps_value and y are 1-D.  The damping comes from the rule,
    exp(-2 y p) = (exp(-y) u)^2 with u = exp(-(p - 1) y), and the two
    logarithms are one, ln[(1 - g_te)(1 - g_tm)] = log1p(g_te g_tm - g_te - g_tm).
    """
    ln_u, u, weights = rule
    y, eps_value = y[:, None], eps_value[:, None]
    chi = eps_value - 1.0
    p = 1.0 - ln_u / y
    pp = p * p
    s = np.sqrt(chi + pp)
    d = chi * np.exp(-y) * u
    g_te = np.square(d / np.square(p + s))
    g_tm = np.square(((eps_value + 1.0) * pp - 1.0) * d / np.square(eps_value * p + s))
    integrand = p * np.log1p(g_te * g_tm - g_te - g_tm)
    return np.sum(integrand * weights, axis=1) / -y[:, 0]


def p_integral_textbook_on(rule, eps_value, y):
    """The p-integral of `_p_integral` with `round_trip_factors` on one
    rule: exp(-2 y p) and two log1p, in long double.

    In double, exp(-2 y p) carries the rounding of its argument, up to
    2 y p ulp: about 2e-14 of a far-rule row at y ~ 250, where the kernel's
    (exp(-y) u)^2 is good to 1e-16 (mpmath on the same nodes).  The 80-bit
    long double of x86-64 brings that below 1e-17.
    """
    ln_u, _, weights = (np.asarray(x, dtype=np.longdouble) for x in rule)
    eps_value, y = eps_value.astype(np.longdouble), y.astype(np.longdouble)
    p = 1.0 - ln_u / y[:, None]
    g_te, g_tm = round_trip_factors(p, eps_value[:, None], y[:, None])
    return -((p * (np.log1p(-g_te) + np.log1p(-g_tm))) @ weights) / y


p_integral_transcribed = by_rule(p_integral_transcribed_on)
p_integral_textbook = by_rule(p_integral_textbook_on)


def ideal_matsubara_term_closed_form(n, radius, a, temperature):
    """Perfect-conductor term via the polylogarithm series, in pN.

    For eps -> inf both round-trip factors reduce to exp(-2 p y) and the
    p-integral evaluates to dilogarithms:

        F_n = (k T R / 2 a^2) [ y Li2(e^-y) + Li3(e^-y) ],  y = 2 zeta_n a / c.
    """
    y = 2.0 * matsubara_frequency(n, temperature) * a / c
    x = mp.e ** (-y)
    value = (k_B * temperature * radius / (2 * a**2)
             * float(y * mp.polylog(2, x) + mp.polylog(3, x)))
    return value * 1e12


def ideal_finite_T_force_closed_form(radius, a, temperature):
    """Perfect-conductor finite-T force: classical term plus the series."""
    total = k_B * temperature * radius * ZETA3 / (4 * a**2) * 1e12
    n = 0
    while True:
        n += 1
        term = ideal_matsubara_term_closed_form(n, radius, a, temperature)
        total += term
        if term < 1e-16 * total:
            return total


class TestIdealForce:
    def test_anchor(self):
        assert ideal_force(SPHERE_RADIUS, 63e-9) == pytest.approx(1042.0, rel=5e-3)
        assert ideal_force(SPHERE_RADIUS, 63e-9) == pytest.approx(1041.615, rel=1e-5)

    def test_separation_scaling(self):
        assert ideal_force(SPHERE_RADIUS, 126e-9) == pytest.approx(
            ideal_force(SPHERE_RADIUS, 63e-9) / 8, rel=1e-12)

    def test_radius_linearity(self):
        assert ideal_force(2 * SPHERE_RADIUS, 63e-9) == pytest.approx(
            2 * ideal_force(SPHERE_RADIUS, 63e-9), rel=1e-12)


class TestClassicalTerm:
    def test_anchor(self):
        assert classical_term(SPHERE_RADIUS, 63e-9, 300.0) == pytest.approx(
            29.9967, rel=1e-4)

    def test_halved_is_half(self):
        full = classical_term(SPHERE_RADIUS, 63e-9, 300.0, "schwinger")
        assert classical_term(SPHERE_RADIUS, 63e-9, 300.0, "halved") == full / 2

    def test_zero_temperature(self):
        assert classical_term(SPHERE_RADIUS, 63e-9, 0.0) == 0.0

    def test_unknown_prescription(self):
        with pytest.raises(ValueError, match="prescription"):
            classical_term(SPHERE_RADIUS, 63e-9, 300.0, "other")


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
        # over more than one chunk, and a last one that is partly filled,
        # the in-place kernel gives the floats of its transcription
        order = 16
        n = 2 * ROWS + 5
        y = np.geomspace(1e-4, 40.0, n)
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        assert np.array_equal(_p_integral(eps, y, order),
                              p_integral_transcribed(eps, y, order))

    def test_kernel_matches_the_textbook_factors(self):
        # the damping from the rule and the one log1p agree with
        # exp(-2 y p) and two log1p over the whole range the forces reach
        y, chi = np.meshgrid(np.geomspace(1e-4, 300.0, 120),
                             np.geomspace(1e-3, 1e6, 60))
        y, eps = y.ravel(), 1.0 + chi.ravel()
        expected = p_integral_textbook(eps, y, 16)
        assert expected.min() > 0
        np.testing.assert_allclose(_p_integral(eps, y, 16), expected,
                                   rtol=1e-14, atol=0)

    def test_rule_is_consistent_and_read_only(self):
        # u = v^k and ln u = k ln v in every band: exp(ln u) carries the
        # rounding of ln u, |ln u| <= 20, times about 1e-16
        for band in range(4):
            ln_u, u, weights = _p_rule(16, band)
            np.testing.assert_allclose(u, np.exp(ln_u), rtol=3e-15)
            for values in (ln_u, u, weights):
                with pytest.raises(ValueError):
                    values[0] = 0.0

    def test_blocks_keep_the_bits_of_separate_calls(self):
        # each row's result depends on that row only, so one call gives the
        # floats of separate calls on consecutive blocks of its rows
        blocks = [ROWS, 23, 17, 5, ROWS, 1, 62, 3]
        n = sum(blocks)
        y = np.geomspace(1e-4, 40.0, n)
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        edges = np.cumsum([0] + blocks)
        expected = np.concatenate([_p_integral(eps[i:j], y[i:j], 16)
                                   for i, j in zip(edges[:-1], edges[1:])])
        assert np.array_equal(_p_integral(eps, y, 16), expected)

    @pytest.mark.parametrize("order", [16, 32])
    def test_rows_at_the_threshold_keep_the_bits_of_lone_calls(self, order):
        # rows at _Y_FAR, _Y_TOP and _Y_TAIL and one float below each,
        # shuffled among rows that fill more than one chunk of each rule,
        # give the floats of lone calls (one row a chunk, whose node sum
        # must take the order of a full chunk's); a row at an edge takes
        # the rule above it, the one below the rule below it
        edges = [pair for band, edge in enumerate(_Y_EDGES, start=1)
                 for pair in ((edge, band), (np.nextafter(edge, 0.0), band - 1))]
        chunk_rows = [_CHUNK // _p_rule(order, band)[0].size for band in range(4)]
        y = np.concatenate([[y_ for y_, _ in edges] * 3] + [
            np.geomspace(low, high, rows + 1, endpoint=False) for low, high, rows
            in zip((1e-3, *_Y_EDGES), (*_Y_EDGES, 300.0), chunk_rows)])
        eps = 1.0 + np.geomspace(1e6, 1e-3, y.size)
        shuffle = np.random.default_rng(3).permutation(y.size)
        y, eps = y[shuffle], eps[shuffle]
        band = sum((y >= edge).astype(int) for edge in _Y_EDGES)
        assert all((band == b).sum() > rows for b, rows in enumerate(chunk_rows))
        alone = [_p_integral(eps[i:i + 1], y[i:i + 1], order)[0]
                 for i in range(y.size)]
        assert np.array_equal(_p_integral(eps, y, order), alone)
        for y_, band in edges:
            row = np.array([1.5]), np.array([y_])
            assert np.array_equal(_p_integral(*row, order),
                                  p_integral_transcribed_on(_p_rule(order, band), *row))

    @pytest.mark.parametrize("nodes", [5, 8])
    def test_any_node_count_keeps_the_bits_of_the_formula(self, monkeypatch, nodes):
        # a rule of any node count, built as `_p_rule` builds one, for every
        # band: shuffled rows that fill more than one chunk give the floats
        # of the transcription and of lone calls
        v, w = gauss_legendre((0.0, 1.0), nodes)
        rule = 4.0 * np.log(v), v * v * v * v, 4.0 * w / v
        monkeypatch.setattr(lifshitz, "_p_rule", lambda order, band: rule)
        n = 2 * (_CHUNK // nodes) + 7
        shuffle = np.random.default_rng(5).permutation(n)
        y = np.geomspace(1e-3, 300.0, n)[shuffle]
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        batch = _p_integral(eps, y, 16)
        assert np.array_equal(batch, p_integral_transcribed_on(rule, eps, y))
        assert np.array_equal(batch, [_p_integral(eps[i:i + 1], y[i:i + 1], 16)[0]
                                      for i in range(n)])

    def test_tightened_doubles_both_rules(self, monkeypatch, single_crystal):
        # near, far, top and tail rules: 64, 32, 16 and 8 nodes, doubled by
        # tightened
        assert [_p_rule(_P_ORDER, band)[0].size for band in range(4)] == [64, 32, 16, 8]
        assert [_p_rule(2 * _P_ORDER, band)[0].size
                for band in range(4)] == [128, 64, 32, 16]
        # force_scan's switch takes the doubled order at both temperatures
        orders = []
        monkeypatch.setattr(lifshitz, "_p_integral", lambda eps, y, order:
                            orders.append(order) or _p_integral(eps, y, order))
        for temperature in (300.0, 0.0):
            for tightened in (False, True):
                force_scan(SPHERE_RADIUS, [100e-9], temperature,
                           single_crystal.epsilon, tightened=tightened)
        assert orders == [_P_ORDER, 2 * _P_ORDER] * 2

    def test_near_rule_matches_a_graded_rule(self):
        # below _Y_FAR, four panels of 16 nodes with u = v^4 agree with an
        # independent rule, numpy's 64 nodes in v with u = v^2 on panels
        # graded towards v = 1 down to 1e-12, at 200 seeded rows (the same
        # four panels with u = v^3 are 4.6e-13 off)
        x, w = np.polynomial.legendre.leggauss(64)
        edges = np.concatenate(([0.0, 0.5], 1.0 - np.logspace(-1, -12, 12), [1.0]))
        half, mid = np.diff(edges)[:, None] / 2, (edges[:-1] + edges[1:])[:, None] / 2
        v, w = (mid + half * x).ravel(), (half * w).ravel()
        graded = 2.0 * np.log(v), v * v, 2.0 * w / v
        rng = np.random.default_rng(25)
        y = rng.uniform(0.01, _Y_FAR, 200)
        eps = 1.0 + 10.0 ** rng.uniform(-6.0, 18.0, 200)
        np.testing.assert_allclose(_p_integral(eps, y, 16),
                                   p_integral_transcribed_on(graded, eps, y),
                                   rtol=5e-15, atol=0)

    def test_far_rule_matches_the_order_32_near_rule(self):
        # from _Y_FAR on one panel of 32 nodes, and from _Y_TOP one of 16,
        # is as good as four panels of 32 nodes: the TE feature and the
        # ln(1 - u^2) endpoint have left v = 1; from _Y_TAIL on, 8 nodes
        # are good to the tail rule's bound
        y, chi = np.meshgrid(np.geomspace(_Y_FAR, 300.0, 150),
                             np.geomspace(1e-6, 1e18, 100))
        y, eps = y.ravel(), 1.0 + chi.ravel()
        for rows, rtol in ((y < _Y_TAIL, 1e-14), (y >= _Y_TAIL, TAIL_RTOL)):
            np.testing.assert_allclose(
                _p_integral(eps[rows], y[rows], 16),
                p_integral_transcribed_on(_p_rule(32, 0), eps[rows], y[rows]),
                rtol=rtol, atol=0)

    def test_top_rule_matches_the_far_rule(self):
        # from _Y_TOP on, 16 nodes agree with the 32-node far rule (checked
        # against mpmath) at 200 seeded rows, and from _Y_TAIL on 8 nodes
        # to the tail rule's bound
        rng = np.random.default_rng(23)
        y = rng.uniform(_Y_TOP, 30.0, 200)
        eps = 1.0 + 10.0 ** rng.uniform(-6.0, 18.0, 200)
        for rows, rtol in ((y < _Y_TAIL, 5e-15), (y >= _Y_TAIL, TAIL_RTOL)):
            np.testing.assert_allclose(
                _p_integral(eps[rows], y[rows], 16),
                p_integral_transcribed_on(_p_rule(16, 1), eps[rows], y[rows]),
                rtol=rtol, atol=0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 3 * ROWS), min_size=1, max_size=8),
           st.sampled_from([16, 32]))
    def test_any_split_keeps_the_bits_of_one_call(self, pieces, order):
        n = sum(pieces)
        y = np.geomspace(1e-4, 300.0, n)
        eps = 1.0 + np.geomspace(1e6, 1e-3, n)
        edges = np.cumsum([0] + pieces)
        expected = np.concatenate([_p_integral(eps[i:j], y[i:j], order)
                                   for i, j in zip(edges[:-1], edges[1:])])
        assert np.array_equal(_p_integral(eps, y, order), expected)


class TestKeptWorkRows:
    """The kernel's five work rows are kept per thread: allocated at a
    thread's first `_p_integral` call and grown only when a call needs
    more columns."""

    @pytest.fixture
    def allocations(self, monkeypatch):
        # a fresh thread-local store, as a new thread sees it, and the
        # length of every work row the kernel allocates
        shapes, aligned_empty = [], lifshitz.aligned_empty

        def counted(shape):
            shapes.append(shape)
            return aligned_empty(shape)

        monkeypatch.setattr(lifshitz, "_KEPT", threading.local(), raising=False)
        monkeypatch.setattr(lifshitz, "aligned_empty", counted)
        return shapes

    @staticmethod
    def near_rows(n):
        """(eps, y) of n rows on the near rule, 64 nodes each."""
        return 1.0 + np.geomspace(1e6, 1e-3, n), np.geomspace(1e-2, 0.4, n)

    def test_a_call_that_needs_no_more_columns_allocates_nothing(self, allocations):
        first = _p_integral(*self.near_rows(ROWS), _P_ORDER)
        assert allocations == [ROWS * 64] * 5
        assert np.array_equal(_p_integral(*self.near_rows(ROWS), _P_ORDER), first)
        _p_integral(*self.near_rows(3), _P_ORDER)
        _p_integral(np.full(5, 2.0), np.geomspace(1.0, 50.0, 5), _P_ORDER)
        assert allocations == [ROWS * 64] * 5

    def test_a_call_that_needs_more_columns_grows_them_once(self, allocations):
        small = _p_integral(*self.near_rows(3), _P_ORDER)
        assert allocations == [3 * 64] * 5
        # a chunk is at most _CHUNK elements, however many rows: each row
        # stays under glibc's 128 KiB mmap threshold
        for _ in range(2):
            _p_integral(*self.near_rows(3 * ROWS), 2 * _P_ORDER)
        assert (_CHUNK + 7) * 8 < 128 * 1024
        assert np.array_equal(_p_integral(*self.near_rows(3), _P_ORDER), small)
        assert allocations == [3 * 64] * 5 + [_CHUNK] * 5

    def test_concurrent_scans_keep_the_bits_of_serial_ones(self, single_crystal):
        # more threads than cores, each with its own work rows, scan at
        # once with the interpreter switching often; shared rows would mix
        # their chunks (numpy releases the GIL in its loops)
        bundled = load_run_config(package_data_dir() / "sample_config.ini"
                                  ).build_evaluator().epsilon
        scans = [(np.linspace(60e-9, 200e-9, 8), 300.0, single_crystal.epsilon),
                 (np.linspace(60e-9, 200e-9, 8), 0.0, single_crystal.epsilon),
                 ([63e-9, 170e-9], 300.0, bundled)]
        serial = [force_scan(SPHERE_RADIUS, a, t, eps) for a, t, eps in scans]
        orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
        results, errors = [[] for _ in orders], []

        def run(out, order):
            try:
                for _ in range(20):
                    for i in order:
                        out.append((i, force_scan(SPHERE_RADIUS, *scans[i])))
            except Exception as exc:      # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=args) for args in zip(results, orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [len(out) for out in results] == [60] * len(orders)
        for i, scan in (pair for out in results for pair in out):
            assert scan == serial[i], i


@pytest.mark.parametrize("temperature", [300.0, 0.0], ids=["finite_T", "zero_T"])
class TestEpsCheck:
    def test_bad_eps_rejected(self, temperature):
        # eps(i zeta) <= 1 is no causal absorptive medium; an infinite one
        # would make the force NaN
        for value in (0.5, np.inf):
            with pytest.raises(DomainError, match="exceed 1"):
                force_scan(SPHERE_RADIUS, [63e-9], temperature,
                           lambda z: np.full(np.shape(z), value))

    def test_eps_to_the_float_limit(self, temperature):
        # eps(i zeta) enters the kernel capped at _EPS_CAP, which is exact, so
        # a near-perfect-conductor eps gives the capped force, bit for bit,
        # and that is the perfect-conductor force to rounding and cut-off
        capped = force_scan(SPHERE_RADIUS, [63e-9], temperature,
                            lambda z: np.full(np.shape(z), _EPS_CAP))[0].total
        oracle = (ideal_finite_T_force_closed_form(SPHERE_RADIUS, 63e-9, temperature)
                  if temperature else ideal_force(SPHERE_RADIUS, 63e-9))
        assert capped == pytest.approx(oracle, rel=2e-12 if temperature else 1e-12)
        for value in (1e150, 1e200, 1e300):
            assert force_scan(SPHERE_RADIUS, [63e-9], temperature,
                              lambda z: np.full(np.shape(z), value))[0].total == capped

    def test_force_beyond_the_float_range_rejected(self, temperature,
                                                   single_crystal):
        # a 1e300 m sphere at 10 nm: the sum overflows, and no RuntimeWarning
        # escapes (pytest makes it an error)
        with pytest.raises(DomainError, match=f"a = 10 nm, T = {temperature:g} K "
                                              f"is not finite"):
            force_scan(1e300, [10e-9], temperature, single_crystal.epsilon)

    def test_radius_at_the_float_limit_rejected(self, temperature,
                                                single_crystal):
        # R / a would overflow; the R >> a test compares R with 100 a instead
        with pytest.raises(DomainError, match=f"a = 63 nm, T = {temperature:g} K "
                                              f"is not finite"):
            force_scan(1.7e308, [63e-9], temperature, single_crystal.epsilon)


def test_overflowing_n0_term_rejected(single_crystal):
    # at 20 um the frequency sum of a 1.7e308 m sphere is finite, its n=0
    # term is not
    with pytest.raises(DomainError, match="a = 20000 nm, T = 300 K is not finite"):
        force_scan(1.7e308, [20e-6], 300.0, single_crystal.epsilon)


class TestFrequencyCutoff:
    def test_perfect_conductor_remainder(self, ideal_eps):
        # every term is at most the perfect-conductor one, so the terms the
        # sum leaves out, those past zeta_n a / c = _Y_MAX, add up to at
        # most their perfect-conductor remainder; both scale with R
        for temperature in (77.0, 300.0):
            for a_nm in (20, 60, 200, 1000):
                a = a_nm * 1e-9
                n = force_scan(1e-2, [a], temperature, ideal_eps)[0].n_terms_used
                terms = []
                while not terms or terms[-1] > 1e-12 * math.fsum(terms):
                    n += 1
                    terms.append(
                        ideal_matsubara_term_closed_form(n, 1e-2, a, temperature))
                assert math.fsum(terms) <= 3.4e-12 * ideal_force(1e-2, a)


class TestForceFiniteT:
    def test_ideal_metal_against_closed_form(self, ideal_eps):
        oracle = ideal_finite_T_force_closed_form(SPHERE_RADIUS, 63e-9, 300.0)
        (result,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0, ideal_eps)
        assert result.total == pytest.approx(oracle, rel=1e-6)

    def test_ideal_metal_near_zero_T_limit(self, ideal_eps):
        # thermal correction for a perfect conductor is tiny at 300 K
        (result,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0, ideal_eps)
        assert result.total == pytest.approx(ideal_force(SPHERE_RADIUS, 63e-9),
                                             rel=1.5e-2)

    def test_decomposition_identity(self, finite_forces):
        for result in finite_forces.values():
            assert result.total == result.n0_term + result.sum_terms
            assert result.total > 0

    def test_decreasing_in_separation(self, finite_forces):
        totals = [finite_forces[a].total for a in (60, 100, 150, 200)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_monotone_in_reflectivity(self):
        small = DrudeParameters(1.28e16, 5.38e13)
        large = DrudeParameters(1.38e16, 5.38e13)
        f_small = force_scan(SPHERE_RADIUS, [100e-9], 300.0, small.epsilon)[0].total
        f_large = force_scan(SPHERE_RADIUS, [100e-9], 300.0, large.epsilon)[0].total
        assert f_large > f_small

    def test_halved_prescription_shifts_by_half_classical(
            self, single_crystal):
        (schwinger,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0,
                                  single_crystal.epsilon, "schwinger")
        (halved,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0,
                               single_crystal.epsilon, "halved")
        assert halved.sum_terms == pytest.approx(schwinger.sum_terms, rel=1e-12)
        assert schwinger.total - halved.total == pytest.approx(
            classical_term(SPHERE_RADIUS, 63e-9, 300.0) / 2, rel=1e-12)

    def test_deterministic(self, single_crystal):
        a = force_scan(SPHERE_RADIUS, [63e-9], 300.0, single_crystal.epsilon)
        b = force_scan(SPHERE_RADIUS, [63e-9], 300.0, single_crystal.epsilon)
        assert a == b

    def test_non_convergence_reported(self):
        # at 0.05 K, 150 nm takes 728892 terms, 63 nm would need 1735459
        def eps(zeta):
            raise AssertionError("eps called")

        with pytest.raises(ConvergenceError, match="Matsubara"):
            force_scan(SPHERE_RADIUS, [150e-9, 63e-9], 0.05, eps)


#: lists of separations, unsorted and with repeats
scans = st.lists(st.floats(20e-9, 500e-9), min_size=1, max_size=15).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=30))


class TestForceScan:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(drude_rows, scans, st.floats(10.0, 400.0),
           st.sampled_from(("schwinger", "halved")))
    def test_equals_lone_scans_per_separation(self, row, a, temperature,
                                              prescription):
        scan = force_scan(SPHERE_RADIUS, a, temperature, row.epsilon, prescription)
        # ForceResult equality compares every field with ==
        assert scan == tuple(force_scan(SPHERE_RADIUS, [x], temperature,
                                        row.epsilon, prescription)[0] for x in a)

    @pytest.mark.parametrize("prescription", ["schwinger", "halved"])
    def test_tabulated_scan_equals_lone_scans(self, prescription):
        cfg = load_run_config(package_data_dir() / "sample_config.ini")
        eps = cfg.build_evaluator().epsilon
        a = [a_nm * 1e-9 for a_nm in [63] + list(range(200, 149, -1))]
        scan = force_scan(cfg.sphere_radius, a, cfg.temperature, eps, prescription)
        assert scan == tuple(force_scan(cfg.sphere_radius, [x], cfg.temperature,
                                        eps, prescription)[0] for x in a)

    def test_rounds_keep_the_bits_of_lone_scans(self, single_crystal):
        # at 20 K the closest separations need many rounds of frequencies,
        # which widen as the farther separations drop out
        a = np.linspace(60, 200, 35) * 1e-9
        scan = force_scan(SPHERE_RADIUS, a, 20.0, single_crystal.epsilon)
        assert scan[0].n_terms_used > 2 * _ROWS // a.size
        assert scan == tuple(force_scan(SPHERE_RADIUS, [x], 20.0,
                                        single_crystal.epsilon)[0] for x in a)

    def test_more_separations_than_rows_take_one_frequency_a_round(
            self, single_crystal):
        # 1-5 um at 300 K sum 3 to 18 terms each
        a = np.linspace(1e-6, 5e-6, _ROWS + 7)
        scan = force_scan(1e-2, a, 300.0, single_crystal.epsilon)
        assert min(r.n_terms_used for r in scan) > 1
        for i in range(0, a.size, 1000):
            assert scan[i] == force_scan(1e-2, a[i:i + 1], 300.0,
                                         single_crystal.epsilon)[0]

    def test_one_eps_call_over_the_largest_count(self, single_crystal):
        calls = []

        def eps(zeta):
            calls.append(zeta.size)
            return single_crystal.epsilon(zeta)

        scan = force_scan(SPHERE_RADIUS, [200e-9, 60e-9, 100e-9, 60e-9], 300.0, eps)
        assert len(calls) == 1
        assert calls[0] >= max(r.n_terms_used for r in scan)
        assert scan[1] == scan[3]

    @pytest.mark.parametrize("temperature", [10.0, 77.0, 300.0])
    def test_sums_the_up_front_count_in_order(self, single_crystal,
                                              temperature):
        # a plain loop: the sum takes every n with zeta_n a / c <= 15, and
        # its terms, one kernel row each, are added in ascending n
        separations = [a_nm * 1e-9 for a_nm in (200, 60, 137.5)]
        scan = force_scan(SPHERE_RADIUS, separations, temperature,
                          single_crystal.epsilon)
        for a, result in zip(separations, scan):
            n = 0
            while matsubara_frequency(n + 1, temperature) * a / c <= 15.0:
                n += 1
            assert result.n_terms_used == n
            total = 0.0
            for m in range(1, n + 1):
                zeta = matsubara_frequency(m, temperature)
                total += zeta**2 * _p_integral(
                    single_crystal.epsilon(np.array([zeta])),
                    np.array([zeta * a / c]), 16)[0]
            assert result.sum_terms == pytest.approx(
                k_B * temperature * SPHERE_RADIUS / c**2 * 1e12 * total,
                rel=1e-15, abs=0)

    def test_unreachable_count_raises_before_eps(self):
        # 63 nm takes every n with zeta_n a / c <= _Y_MAX: more than a
        # million terms at 0.05 K
        def eps(zeta):
            raise AssertionError("eps called")

        with pytest.raises(ConvergenceError,
                           match="at a = 63 nm, T = 0.05 K needs 1735459 terms"):
            force_scan(SPHERE_RADIUS, [63e-9], 0.05, eps)

    def test_non_convergence_names_the_separation(self):
        # at 0.05 K, 150 nm takes 728892 terms, 63 nm would need 1735459
        def eps(zeta):
            raise AssertionError("eps called")

        with pytest.raises(ConvergenceError, match="at a = 63 nm"):
            force_scan(SPHERE_RADIUS, [150e-9, 63e-9], 0.05, eps)

    def test_empty_sum_where_zeta_1_exceeds_y_max(self, single_crystal):
        # at 300 K and 20 um, zeta_1 a / c is above _Y_MAX: no Matsubara
        # term is summed, alone or next to a separation that sums many
        far, near = 20e-6, 60e-9
        assert matsubara_frequency(1, 300.0) * far / c > _Y_MAX
        (alone,) = force_scan(1e-2, [far], 300.0, single_crystal.epsilon)
        assert alone.n_terms_used == 0
        assert alone.total == alone.n0_term == classical_term(1e-2, far, 300.0)
        scan = force_scan(1e-2, [far, near, far], 300.0, single_crystal.epsilon)
        assert scan == (alone, force_scan(1e-2, [near], 300.0,
                                          single_crystal.epsilon)[0], alone)
        assert scan[1].n_terms_used > 0


class TestForceZeroT:
    def test_perfect_conductor_limit(self, ideal_eps):
        (result,) = force_scan(SPHERE_RADIUS, [63e-9], 0.0, ideal_eps)
        assert result.total == pytest.approx(ideal_force(SPHERE_RADIUS, 63e-9),
                                             rel=1e-6)

    def test_finite_T_exceeds_zero_T_for_drude(self, finite_forces, zero_forces):
        for a_nm in (60, 100, 200):
            assert finite_forces[a_nm].total > zero_forces[a_nm]

    def test_eta_between_zero_and_one(self, zero_forces):
        for a_nm, force in zero_forces.items():
            assert 0.0 < force / ideal_force(SPHERE_RADIUS, a_nm * 1e-9) < 1.0


class TestZeroTScan:
    """`force_scan` at T = 0."""

    SEPARATIONS_NM = (63, 200, 60, 150.5, 63, 20, 500, 100, 200)

    @staticmethod
    def scan(separations, eps, tightened=False):
        """The zero-T forces of a scan, in input order."""
        return tuple(r.total for r in force_scan(SPHERE_RADIUS, separations, 0.0,
                                                 eps, tightened=tightened))

    @staticmethod
    def tabulated_eps():
        return load_run_config(package_data_dir() / "sample_config.ini"
                               ).build_evaluator().epsilon

    @pytest.mark.parametrize("tightened", [False, True],
                             ids=["default", "tightened"])
    @pytest.mark.parametrize("model", ["tabulated", "drude"])
    def test_equals_lone_scans_per_separation(self, model, tightened,
                                              single_crystal):
        # mixed, unsorted and repeated separations
        eps = self.tabulated_eps() if model == "tabulated" else single_crystal.epsilon
        a = [a_nm * 1e-9 for a_nm in self.SEPARATIONS_NM]
        scan = self.scan(a, eps, tightened)
        assert scan == tuple(self.scan([x], eps, tightened)[0] for x in a)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(drude_rows, scans)
    def test_equals_lone_scans_over_drude_scans(self, row, a):
        assert self.scan(a, row.epsilon) == tuple(
            self.scan([x], row.epsilon)[0] for x in a)

    def test_rounds_keep_the_bits_of_lone_scans(self, single_crystal):
        # the tightened rule at 20 nm needs many rounds of frequencies,
        # which widen as the farther separations drop out
        calls = []
        a = np.geomspace(20, 500, 35) * 1e-9
        scan = self.scan(a, lambda zeta: calls.append(zeta.size)
                         or single_crystal.epsilon(zeta), True)
        assert calls[0] > 2 * _ROWS // a.size
        assert scan == tuple(self.scan([x], single_crystal.epsilon, True)[0]
                             for x in a)

    def test_one_eps_call_over_the_closest_rule(self, single_crystal):
        def recorder(calls):
            def eps(zeta):
                calls.append(zeta)
                return single_crystal.epsilon(zeta)
            return eps

        scan_calls, near, far = [], [], []
        scan = force_scan(SPHERE_RADIUS, [200e-9, 60e-9, 100e-9, 60e-9], 0.0,
                          recorder(scan_calls))
        self.scan([60e-9], recorder(near))
        self.scan([200e-9], recorder(far))
        assert len(scan_calls) == len(near) == len(far) == 1
        assert np.array_equal(scan_calls[0], near[0])
        assert scan_calls[0].size == max(r.n_terms_used for r in scan)
        assert scan[1] == scan[3]
        # the farther separation's rule is a prefix of the nearer one's
        assert 0 < far[0].size < near[0].size
        assert np.array_equal(far[0], near[0][:far[0].size])

    @pytest.mark.parametrize("tightened", [False, True],
                             ids=["default", "tightened"])
    @pytest.mark.parametrize("a_nm", [20, 60, 200, 1e7])
    def test_rule_ends_at_the_first_edge_above_y_max_c_over_a(self, a_nm,
                                                              tightened):
        # a first panel [0, zeta_min] of `_ZETA_ORDER` nodes, then edges
        # zeta_min 10^(k / per_decade) with 16 nodes a panel in ln zeta; the
        # rule stops at the first edge at or above _Y_MAX c / a.  The
        # tightened rule doubles both orders and the panels per decade, and
        # starts a decade lower.  1 cm is beyond the reach of either rule.
        calls = []
        scan = functools.partial(force_scan, 1e3 * a_nm * 1e-9, [a_nm * 1e-9], 0.0,
                                 lambda zeta: calls.append(zeta) or 1.0 + 1e6 / zeta,
                                 tightened=tightened)
        if a_nm == 1e7:
            with pytest.raises(DomainError, match="a = 1e[+]07 nm is beyond its "
                                                  "frequency rule's reach"):
                scan()
            assert calls == []
            return
        (result,) = scan()
        factor = 2 if tightened else 1
        zeta_min = _ZETA_MIN / 10.0 if tightened else _ZETA_MIN
        per_decade, first, order = factor * _PER_DECADE, factor * _ZETA_ORDER, factor * 16
        top = _Y_MAX * c / (a_nm * 1e-9)
        k = 0
        while zeta_min * 10.0 ** (k / per_decade) < top:
            k += 1
        nodes = calls[0]
        assert nodes.size == first + k * order
        assert nodes[first - 1] < zeta_min < nodes[first]
        # at T = 0 the force is all frequency integral, over those nodes
        assert result.n0_term == 0.0
        assert result.sum_terms == result.total
        assert result.n_terms_used == first + k * order
        assert (zeta_min * 10.0 ** ((k - 1) / per_decade) < nodes[-order]
                < nodes[-1] < zeta_min * 10.0 ** (k / per_decade))
        # each log panel's nodes are Gauss-Legendre in ln zeta: symmetric
        # about the middle of its edges there
        s = np.log(nodes[first:]).reshape(k, order)
        middle = math.log(zeta_min) + (np.arange(k) + 0.5) * math.log(10.0) / per_decade
        np.testing.assert_allclose(s + s[:, ::-1], np.repeat(2.0 * middle[:, None],
                                                             order, axis=1), rtol=1e-14)

    @pytest.mark.parametrize("tightened", [False, True],
                             ids=["default", "tightened"])
    def test_reach_ends_where_zeta_min_a_over_c_passes_its_bound(self, tightened,
                                                                 single_crystal):
        # _Y_REACH c / zeta_min is 4.80 um, or 48.0 um for the tightened rule
        scale = 10.0 if tightened else 1.0
        assert _Y_REACH * c / _ZETA_MIN == pytest.approx(4.7967e-6, rel=1e-4)
        (inside,) = force_scan(1.0, [4.79e-6 * scale], 0.0, single_crystal.epsilon,
                               tightened=tightened)
        assert 0.0 < inside.total < ideal_force(1.0, 4.79e-6 * scale)
        for a in (4.8e-6 * scale, 1.0, 1e3):
            with pytest.raises(DomainError, match=re.escape(
                    f"zero-T force at a = {a * 1e9:.6g} nm is beyond its frequency "
                    f"rule's reach, {_Y_REACH * c * scale / _ZETA_MIN * 1e9:.6g} nm")):
                force_scan(1e3 * a, [60e-9, a], 0.0, no_eps, tightened=tightened)


class TestTabulatedPath:
    """Forces from a DielectricModel built on exact Drude data reproduce the
    pure-Drude forces: the data path differs only by the log-log
    interpolant between samples and the omega^-3 tail above 1e18 rad/s."""

    def test_finite_T(self, row2, pure_drude_dataset):
        model = DielectricModel(row2, pure_drude_dataset)
        (tabulated,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0, model.epsilon)
        (drude,) = force_scan(SPHERE_RADIUS, [63e-9], 300.0, row2.epsilon)
        assert tabulated.n_terms_used == drude.n_terms_used
        assert tabulated.total == pytest.approx(drude.total, rel=1e-5)

    def test_zero_T(self, row2, pure_drude_dataset):
        model = DielectricModel(row2, pure_drude_dataset)
        tabulated, drude = (force_scan(SPHERE_RADIUS, [63e-9], 0.0, eps)[0]
                            for eps in (model.epsilon, row2.epsilon))
        assert tabulated.total == pytest.approx(drude.total, rel=1e-5)


class TestTemperatureCorrection:
    def test_matches_difference_of_parts(self, capsys):
        # the CLI's dTF column is the finite-T total minus the T = 0 total;
        # json keeps every bit of each float
        config = package_data_dir() / "sample_config.ini"
        assert main(["force", "--config", str(config), "--a", "63",
                     "--mode", "both", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        cfg = load_run_config(config)
        eps = cfg.build_evaluator().epsilon
        a = [63 * 1e-9]   # --a NM, as the CLI reads it
        (finite,) = force_scan(cfg.sphere_radius, a, cfg.temperature, eps,
                               cfg.prescription)
        (zero,) = force_scan(cfg.sphere_radius, a, 0.0, eps)
        assert row["F_pN"] == finite.total
        assert row["dTF_pN"] == finite.total - zero.total
        assert row["dTF_pN"] > 0

    def test_vanishes_as_T_to_zero(self, single_crystal):
        # at 1 K the sum step resolves the integral almost perfectly
        finite, zero = (force_scan(SPHERE_RADIUS, [100e-9], temperature,
                                   single_crystal.epsilon)[0].total
                        for temperature in (1.0, 0.0))
        assert abs(finite - zero) < 0.1


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
        for t in (temperature, 0.0):
            near, far = force_scan(SPHERE_RADIUS, [a_near, a_far], t, row.epsilon)
            assert near.total > far.total

    @properties
    @given(drude_rows, st.floats(1.01, 1.5), separations, temperatures)
    def test_increasing_with_plasma_frequency(self, row, factor, a,
                                              temperature):
        brighter = DrudeParameters(factor * row.omega_p, row.omega_tau)
        for t in (temperature, 0.0):
            assert (force_scan(SPHERE_RADIUS, [a], t, brighter.epsilon)[0].total
                    > force_scan(SPHERE_RADIUS, [a], t, row.epsilon)[0].total)

    @properties
    @given(drude_rows, separations, temperatures)
    def test_finite_T_exceeds_zero_T_under_schwinger(self, row, a,
                                                     temperature):
        finite, zero = (force_scan(SPHERE_RADIUS, [a], t, row.epsilon, "schwinger")[0]
                        for t in (temperature, 0.0))
        assert finite.total >= zero.total


def no_eps(zeta):
    raise AssertionError("eps called")


class TestArguments:
    """`force_scan` checks its plain-number arguments before eps is called;
    `ideal_force`, `classical_term` and `matsubara_frequency` share the
    checks."""

    @pytest.mark.parametrize("radius", [0.0, -1e-6, math.inf, math.nan])
    def test_radius_finite_and_positive(self, radius):
        with pytest.raises(ValueError,
                           match="sphere_radius must be finite and positive"):
            force_scan(radius, [63e-9], 300.0, no_eps)

    @pytest.mark.parametrize("separation", [0.0, -1e-9, math.inf, math.nan])
    def test_every_separation_finite_and_positive(self, separation):
        for a in ([separation], [63e-9, separation, 100e-9]):
            with pytest.raises(ValueError,
                               match="separation must be finite and positive"):
                force_scan(SPHERE_RADIUS, a, 300.0, no_eps)

    @pytest.mark.parametrize("separation", [1e-191, 9e-31, 1.1e30, 1e290])
    def test_separation_within_range(self, separation):
        # at the outer two, a^2 in classical_term or a^3 in ideal_force
        # would leave the float range: a ZeroDivisionError or OverflowError,
        # were it not checked
        for function, args in ((force_scan, (SPHERE_RADIUS, [63e-9, separation],
                                             300.0, no_eps)),
                               (ideal_force, (SPHERE_RADIUS, separation)),
                               (classical_term, (SPHERE_RADIUS, separation, 0.0))):
            with pytest.raises(ValueError, match=re.escape(
                    f"separation {separation:.4g} m is outside [1e-30, 1e+30] m")):
                function(*args)
        for edge in _A_RANGE:
            assert 0 < ideal_force(SPHERE_RADIUS, edge) < math.inf
            assert 0 < classical_term(SPHERE_RADIUS, edge, 300.0) < math.inf

    @pytest.mark.parametrize("separations", [[], np.zeros((0,)), 63e-9,
                                             [[63e-9]]],
                             ids=["list", "array", "scalar", "2-D"])
    def test_needs_a_1d_sequence_of_separations(self, separations):
        for temperature in (300.0, 0.0):
            with pytest.raises(ValueError, match="at least one separation"):
                force_scan(SPHERE_RADIUS, separations, temperature, no_eps)

    @pytest.mark.parametrize("temperature", [-1.0, math.inf, math.nan])
    def test_temperature_finite_and_non_negative(self, temperature):
        with pytest.raises(ValueError,
                           match="temperature must be finite and non-negative"):
            force_scan(SPHERE_RADIUS, [63e-9], temperature, no_eps)

    def test_warns_when_curvature_matters(self, single_crystal):
        with pytest.warns(UserWarning, match="R >> a") as record:
            line = sys._getframe().f_lineno + 1
            force_scan(1e-6, [20e-9, 5e-8], 300.0, single_crystal.epsilon)
        # once per scan, naming the caller's line, not force_scan's
        assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]

    @pytest.mark.parametrize("function, args, name", [
        (ideal_force, (0.0, 63e-9), "sphere_radius"),
        (ideal_force, (SPHERE_RADIUS, math.nan), "separation"),
        (classical_term, (math.inf, 63e-9, 300.0), "sphere_radius"),
        (classical_term, (SPHERE_RADIUS, -1e-9, 300.0), "separation"),
        (classical_term, (SPHERE_RADIUS, 63e-9, -1.0), "temperature"),
        (matsubara_frequency, (1, math.nan), "temperature")],
        ids=["ideal_force-radius", "ideal_force-separation",
             "classical_term-radius", "classical_term-separation",
             "classical_term-temperature", "matsubara_frequency-temperature"])
    def test_scalar_functions_share_the_checks(self, function, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            function(*args)

    def test_matsubara_frequency(self):
        expected = 2 * math.pi * k_B * 300.0 / hbar
        assert matsubara_frequency(1, 300.0) == pytest.approx(expected)
