"""Thin wrapper around QUADPACK with an error-estimate sanity check.

For tests only: the adaptive reference integrals of the test oracles.
The library itself uses the fixed Gauss-Legendre rule of
`aucasimir._quadrature`.
"""

from __future__ import annotations

from scipy import integrate

from aucasimir.errors import ConvergenceError

# If QUADPACK reports trouble, the returned estimate is still accepted as
# long as its own error bound is far below anything the callers resolve.
_ABSERR_SLACK = 1e-6


def checked_quad(func, a, b, *, epsrel, points=None, limit=200, what="integral"):
    """scipy.integrate.quad with epsabs=0 and a convergence check.

    Raises ConvergenceError when QUADPACK flags the result and the error
    estimate is not comfortably below the requested relative tolerance.
    """
    if points is not None:
        points = [x for x in points if a < x < b]
        if not points:
            points = None
    out = integrate.quad(func, a, b, epsabs=0.0, epsrel=epsrel,
                         limit=limit, points=points, full_output=1)
    result, abserr = out[0], out[1]
    if len(out) > 3:
        # out[3] is the QUADPACK explanation string
        if result != 0.0 and abserr > _ABSERR_SLACK * abs(result):
            raise ConvergenceError(f"{what} did not converge: {out[3].strip()}")
    return result
