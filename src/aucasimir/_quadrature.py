"""The package's numerical kernels: its one quadrature, composite
Gauss-Legendre on fixed panels, with one sizing rule for panels in a log
variable (`log_sizing`), the aligned work arrays its sums run in, and its
one root finder, `bisect`, which the Drude fit and the Yukawa boundary
share."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

#: order -> (non-negative nodes, ascending; their weights) of the
#: Gauss-Legendre rule on [-1, 1], equal to numpy's leggauss bit for bit; an
#: odd order's middle node, 0, is held once.  To add an order, paste the
#: literal that `PYTHONPATH=src python tests/test_quadrature.py` prints.
_RULES = {
    5: (
        (0.0, 0.5384693101056831, 0.906179845938664),
        (0.5688888888888887, 0.4786286704993663, 0.23692688505618928),
    ),
    8: (
        (0.18343464249564978, 0.525532409916329, 0.7966664774136267,
         0.9602898564975362),
        (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
         0.10122853629037706),
    ),
    16: (
        (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499),
        (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176),
    ),
    32: (
        (0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
         0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
         0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
         0.7944837959679424, 0.84936761373257, 0.8963211557660521,
         0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
         0.9972638618494816),
        (0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
         0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
         0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
         0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
         0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
         0.007018610009470506),
    ),
    64: (
        (0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
         0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
         0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
         0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
         0.571895646202634, 0.6111553551723933, 0.6489654712546573,
         0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
         0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
         0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
         0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
         0.973326827789911, 0.983336253884626, 0.9910133714767443,
         0.9963401167719552, 0.9993050417357722),
        (0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
         0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
         0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
         0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
         0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
         0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
         0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
         0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
         0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
         0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
         0.004147033260564499, 0.00178328072169414),
    ),
}


#: every log-panel rule (`log_sizing`) keeps the Bernstein bound
#: rho(h)^(-2n) of n nodes on a panel h wide at or below this one.  In the
#: log variable the integrand's nearest complex singularity lies pi/2 off
#: the real axis, which is pi / h in the panel's [-1, 1], so rho(h) =
#: pi / h + sqrt((pi / h)^2 + 1); the bound is that of 8 nodes on a panel
#: 0.5 wide, rho(0.5)^-16 ~ 2.3e-18 (notes/decisions.md)
_LOG_BOUND = (2.0 * math.pi + math.sqrt(4.0 * math.pi**2 + 1.0))**-16
#: the widest panel on which each held order meets _LOG_BOUND, 2 pi /
#: (rho_n - 1 / rho_n) with rho_n = _LOG_BOUND^(-1 / (2 n)): 0.108 for 5
#: nodes, 0.5 for 8, 1.92 for 16, 4.64 for 32 and 9.74 for 64
_LOG_ORDERS = np.array(sorted(_RULES))
_LOG_WIDEST = np.array([2.0 * math.pi / (rho - 1.0 / rho) for rho in
                        (_LOG_BOUND**(-0.5 / n) for n in _LOG_ORDERS.tolist())])


def legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: the held
    non-negative half mirrored, as leggauss symmetrises its own rule."""
    if order not in _RULES:
        raise ValueError(f"no Gauss-Legendre rule of order {order}; the held "
                         f"orders are {sorted(_RULES)}")
    half_x, half_w = map(np.array, _RULES[order])
    mirror = slice(None, 0 if order % 2 else None, -1)
    x = np.concatenate((-half_x[mirror], half_x))
    w = np.concatenate((half_w[mirror], half_w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, orders) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on the panels
    between consecutive `edges`, in panel order: `orders` nodes on every
    panel, or orders[k] on panel k (an int array).  The only code that
    places nodes."""
    edges = np.asarray(edges, dtype=float)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    if np.ndim(orders) == 0:        # one broadcast, in half the time of the loop
        x, w = legendre(orders)
        return (mid + half * x).ravel(), (half * w).ravel()
    start = np.cumsum(orders) - orders
    nodes, weights = np.empty((2, start[-1] + orders[-1]))
    # set, not np.unique, which imports numpy.ma at its first call
    for n in set(orders.tolist()):
        on = orders == n
        x, w = legendre(n)
        at = start[on, None] + np.arange(n)
        nodes[at] = mid[on] + half[on] * x
        weights[at] = half[on] * w
    return nodes, weights


def log_sizing(widths) -> tuple[np.ndarray, np.ndarray]:
    """(orders, panels): for each segment of `widths` in a log variable, the
    held order and number of equal panels with the fewest nodes, order
    times panels, that keep the Bernstein bound at or below _LOG_BOUND; of
    two with as few nodes, the lower order."""
    widths = np.asarray(widths, dtype=float)
    panels = np.maximum(1.0, np.ceil(widths / _LOG_WIDEST[:, None]))
    best = np.argmin(_LOG_ORDERS[:, None] * panels, axis=0)
    return _LOG_ORDERS[best], panels[best, np.arange(widths.size)].astype(int)


def log_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule, in a log
    variable, on the segments between consecutive `edges`, an ascending
    float array, each split into the equal panels of the order that
    `log_sizing` gives it, placed by `gauss_legendre`.  The nodes
    ascend."""
    lo, width = edges[:-1], np.diff(edges)
    orders, panels = log_sizing(width)
    seg = np.repeat(np.arange(panels.size), panels)
    k = np.arange(seg.size) - (np.cumsum(panels) - panels)[seg]
    # np.linspace's own arithmetic, for every segment at once
    cuts = k * (width / panels)[seg] + lo[seg]
    return gauss_legendre(np.append(cuts, edges[-1]), orders[seg])


def aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array of `shape` whose data start on a 64-byte
    boundary.  numpy puts a large array 16 bytes past one, and AVX-512 adds
    and multiplies on it then run about 1.8 times slower (a 224 x 32 add:
    5.0 us against 2.8 us); the bits of every result are the same."""
    size = int(np.prod(shape))
    buffer = np.empty(size + 7)
    start = -buffer.ctypes.data % 64 // buffer.itemsize
    return buffer[start:start + size].reshape(shape)


def bisect(f, lo: float, hi: float) -> float:
    """The float x in [lo, hi] (lo < hi) at which f changes sign: f(x) is 0,
    or f(x) has the sign of f(lo) and f at the next float above x that of
    f(hi).  The bracket is halved until its midpoint equals one of its ends,
    so there is no tolerance and no step cap: there are about
    log2((hi - lo) / ulp(x)) halvings, 56 for the Yukawa boundary.  Raises
    ConvergenceError unless f(lo) and f(hi) are of opposite signs or one of
    them is 0."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    if not (f_lo < 0 < f_hi or f_hi < 0 < f_lo):
        raise ConvergenceError(f"no sign change in bracket [{lo:.6g}, {hi:.6g}]: "
                               f"f = {f_lo:.3e} and {f_hi:.3e} at its ends")
    while (mid := 0.5 * (lo + hi)) != lo and mid != hi:
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return lo
