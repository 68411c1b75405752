"""The Gauss-Legendre tables of `aucasimir._quadrature` against numpy's
`leggauss`, bit for bit, and its aligned work arrays.  To add an order, add
it to ORDERS and paste the printed literal over `_RULES`:

    PYTHONPATH=src python tests/test_quadrature.py
"""

import textwrap

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from aucasimir._quadrature import _RULES, aligned_empty, legendre

#: the orders the package asks for: 8 and 16 for the zeta panels, 16 for
#: the dispersion integral, 16 to 64 for the p-rules, 4 and 8 in the tests
ORDERS = (4, 8, 16, 32, 64)


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
    with pytest.raises(ValueError, match=r"order 12.*\[4, 8, 16, 32, 64\]"):
        legendre(12)


@pytest.mark.parametrize("shape", [(1,), (3, 5), (5, 7168), (15, 2080)])
def test_aligned_empty_starts_on_a_64_byte_boundary(shape):
    for _ in range(4):
        work = aligned_empty(shape)
        assert work.shape == shape and work.dtype == np.float64
        assert work.flags.c_contiguous and work.flags.writeable
        assert work.ctypes.data % 64 == 0


if __name__ == "__main__":
    print(rules_literal())
