"""The package's one quadrature: composite Gauss-Legendre on fixed panels."""

from __future__ import annotations

import functools

import numpy as np
# imported here, not looked up on first use: the lookup would import
# numpy.polynomial inside whichever command builds the first rule
from numpy.polynomial.legendre import leggauss


@functools.lru_cache(maxsize=8)
def legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: every force
    needs a few rules, and building one costs more than a Drude force's
    arithmetic."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-node rule on every panel between
    consecutive `edges`, flattened."""
    x, w = legendre(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()
