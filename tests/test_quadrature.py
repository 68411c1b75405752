"""The Gauss-Legendre tables of `aucasimir._quadrature` against numpy's
`leggauss`, bit for bit, its aligned work arrays and its root finder.  To
add an order, add it to ORDERS and paste the printed literal over `_RULES`:

    PYTHONPATH=src python tests/test_quadrature.py
"""

import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from aucasimir import ConvergenceError, alpha_lower_limit
from aucasimir._quadrature import _RULES, aligned_empty, bisect, legendre
from aucasimir.yukawa import LAMBDA_BRACKET

#: the orders the package asks for: 8 and 16 for the zeta panels, 8 for
#: the dispersion integral, 8 to 64 for the p-rules
ORDERS = (8, 16, 32, 64)


def rules_literal() -> str:
    """The `_RULES` literal: for each order the positive nodes of leggauss,
    ascending, and their weights, each float as its exact repr."""
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


@pytest.mark.parametrize("order", ORDERS)
def test_rule_equals_leggauss_bitwise(order):
    x, w = legendre(order)
    ref_x, ref_w = leggauss(order)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(w, ref_w)
    assert not x.flags.writeable and not w.flags.writeable


def test_order_not_held_names_the_held_orders():
    with pytest.raises(ValueError, match=r"order 12.*\[8, 16, 32, 64\]"):
        legendre(12)


@pytest.mark.parametrize("shape", [(1,), (3, 5), (5, 7168), (28, 1152)])
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
