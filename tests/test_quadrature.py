"""The Gauss-Legendre tables of `aucasimir._quadrature` against numpy's
`leggauss`, bit for bit, its sizing rule for log panels, its aligned work
arrays and its root finder.  To add an order, add it to ORDERS and paste
the printed literal over `_RULES`:

    PYTHONPATH=src python tests/test_quadrature.py
"""

import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from aucasimir import ConvergenceError, alpha_lower_limit
from aucasimir._quadrature import (_LOG_BOUND, _RULES, aligned_empty, bisect,
                                   gauss_legendre, legendre, log_sizing)
from aucasimir.yukawa import LAMBDA_BRACKET

#: the orders the package asks for: 8 to 32 for the zeta panels, every
#: order for the log panels of the dispersion integral, 16 to 64 for the
#: p-rules
ORDERS = (5, 8, 16, 32, 64)


def rules_literal() -> str:
    """The `_RULES` literal: for each order the non-negative nodes of
    leggauss, ascending (an odd order's middle node, 0, once), and their
    weights, each float as its exact repr."""
    lines = ["_RULES = {"]
    for order in ORDERS:
        lines.append(f"    {order}: (")
        for half in leggauss(order):
            text = ", ".join(repr(float(v)) for v in half[order // 2:])
            wrapped = textwrap.wrap(text, width=70)
            lines.append("        (" + wrapped[0])
            lines.extend("         " + line for line in wrapped[1:])
            lines[-1] += "),"
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


def test_holds_the_generated_orders():
    assert sorted(_RULES) == list(ORDERS)
    namespace = {}
    exec(rules_literal(), namespace)
    assert namespace["_RULES"] == _RULES


def test_odd_order_holds_its_middle_node_once():
    half_x, half_w = _RULES[5]
    assert len(half_x) == len(half_w) == 3 and half_x[0] == 0.0
    x, _ = legendre(5)
    assert np.count_nonzero(x == 0.0) == 1 and not np.signbit(x[2])


@pytest.mark.parametrize("order", ORDERS)
def test_rule_equals_leggauss_bitwise(order):
    x, w = legendre(order)
    ref_x, ref_w = leggauss(order)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(w, ref_w)
    assert not x.flags.writeable and not w.flags.writeable


def test_order_not_held_names_the_held_orders():
    with pytest.raises(ValueError, match=r"order 12.*\[5, 8, 16, 32, 64\]"):
        legendre(12)


def test_mixed_orders_equal_one_call_per_order_bitwise():
    # one call with an order per panel places the same floats as one
    # single-order call per run of equal orders, concatenated, and a
    # single-order call those of its panels' mid + half * x
    rng = np.random.default_rng(35)
    edges = np.cumsum(rng.uniform(0.01, 3.0, 41)) - 7.0
    orders = rng.choice(ORDERS, 40)
    assert set(orders.tolist()) == set(ORDERS)
    nodes, weights = gauss_legendre(edges, orders)
    runs = np.flatnonzero(np.diff(orders)) + 1
    parts = []
    for lo, hi in zip([0, *runs], [*runs, orders.size]):
        order, ends = int(orders[lo]), edges[lo:hi + 1]
        parts.append(gauss_legendre(ends, order))
        x, w = legendre(order)
        half, mid = 0.5 * np.diff(ends)[:, None], 0.5 * (ends[:-1] + ends[1:])[:, None]
        assert np.array_equal(parts[-1][0], (mid + half * x).ravel())
        assert np.array_equal(parts[-1][1], (half * w).ravel())
    assert np.array_equal(nodes, np.concatenate([x for x, _ in parts]))
    assert np.array_equal(weights, np.concatenate([w for _, w in parts]))
    assert np.all(np.diff(nodes) > 0)


def bernstein_bound(width: float, order: int) -> float:
    """rho(h)^(-2n) for n nodes on a panel h wide in a log variable whose
    integrand's nearest singularity lies pi/2 off the real axis."""
    b = math.pi / width
    return (b + math.sqrt(b * b + 1.0))**(-2 * order)


def test_bound_is_that_of_8_nodes_on_half_a_unit():
    assert _LOG_BOUND == pytest.approx(bernstein_bound(0.5, 8), rel=1e-14)
    assert _LOG_BOUND == pytest.approx(2.339e-18, rel=1e-3)


def test_sizing_meets_the_bound_with_the_fewest_nodes():
    widths = np.geomspace(1e-3, 20.0, 4001)
    orders, panels = log_sizing(widths)
    assert set(orders.tolist()) == set(ORDERS)
    for width, order, n_panels in zip(widths, orders.tolist(), panels.tolist()):
        assert bernstein_bound(width / n_panels, order) <= _LOG_BOUND * (1 + 1e-12)
        for other in ORDERS:
            # the fewest panels of `other` that meet the bound
            fewest = next(p for p in range(1, 10**4)
                          if bernstein_bound(width / p, other) <= _LOG_BOUND * (1 - 1e-12))
            assert order * n_panels <= other * fewest, (width, other)


@pytest.mark.parametrize("width, sized", [
    (0.0765, (5, 1)),                  # a segment of the bundled data
    (0.108, (5, 1)), (0.11, (8, 1)), (0.5, (8, 1)),
    (0.51, (8, 2)),                    # 16 nodes either way: the lower order
    (1.15, (16, 1)),                   # data at 2 points per decade
    (0.8 * math.log(10.0), (16, 1)),   # a zero-T log panel
    (1.93, (8, 4)), (4.6, (32, 1)), (4.7, (16, 3)), (9.7, (64, 1)),
    (6 * math.log(10.0), (32, 3)),     # the dispersion rule's tail
    (20.0, (32, 5))])
def test_sizing_of_known_widths(width, sized):
    orders, panels = log_sizing([width])
    assert (int(orders[0]), int(panels[0])) == sized


@pytest.mark.parametrize("shape", [(1,), (3, 5), (5, 7168), (48, 676)])
def test_aligned_empty_starts_on_a_64_byte_boundary(shape):
    for _ in range(4):
        work = aligned_empty(shape)
        assert work.shape == shape and work.dtype == np.float64
        assert work.flags.c_contiguous and work.flags.writeable
        assert work.ctypes.data % 64 == 0


def counted(f):
    """f, and the list of the arguments it has been called with."""
    calls = []

    def wrapper(x):
        calls.append(x)
        return f(x)
    return wrapper, calls


def check_root(f, calls, lo, hi):
    """bisect(f, lo, hi) is a float where f changes sign, found in a bounded
    number of halvings of the bracket."""
    x = bisect(f, lo, hi)
    n_calls = len(calls)
    after = math.nextafter(x, math.inf)
    assert lo <= x <= hi
    sign_lo = np.sign(f(lo))
    assert f(x) == 0 or (np.sign(f(x)) == sign_lo and after <= hi
                         and np.sign(f(after)) != sign_lo)
    # each halving keeps half the bracket, to rounding, and the last one
    # leaves two neighbouring floats
    assert n_calls <= 2 + math.log2((hi - lo) / (after - x)) + 2
    return x


class TestBisect:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.floats(1e-9, 1e6),
           st.floats(1e-3, 1e3), st.booleans())
    def test_linear(self, root, below, above, slope, rising):
        lo, hi = root - below, root + above
        f, calls = counted(lambda x: (slope if rising else -slope) * (x - root))
        if lo < hi:
            x = check_root(f, calls, lo, hi)
            assert x == pytest.approx(root, rel=1e-15, abs=1e-15 * (hi - lo))
        # a bracket on one side of the root has no sign change
        for ends in ((root + 1.0, root + 2.0 + above), (lo - 1.0, root - 1.0)):
            with pytest.raises(ConvergenceError, match="no sign change"):
                bisect(f, *ends)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(0.0, 0.49), st.floats(0.51, 1.0), st.floats(0.0, 1.0))
    def test_monotone_alpha_of_lambda(self, t_lo, t_hi, t_root):
        # alpha_lower_limit falls with lambda: the boundary's function, on a
        # bracket inside LAMBDA_BRACKET
        ratio = LAMBDA_BRACKET[1] / LAMBDA_BRACKET[0]
        lo, hi = (LAMBDA_BRACKET[0] * ratio**t for t in (t_lo, t_hi))
        root = lo + t_root * (hi - lo)
        ceiling = alpha_lower_limit(root)
        f, calls = counted(lambda lam: alpha_lower_limit(lam) - ceiling)
        x = check_root(f, calls, lo, hi)
        assert x == pytest.approx(root, rel=1e-14)
        with pytest.raises(ConvergenceError, match="no sign change"):
            bisect(f, root * 1.01, hi * 1.02)

    def test_zero_at_an_end_is_the_root(self):
        f, calls = counted(lambda x: x - 2.0)
        assert bisect(f, 2.0, 3.0) == 2.0 and bisect(f, 1.0, 2.0) == 2.0
        assert len(calls) == 4


if __name__ == "__main__":
    print(rules_literal())
