"""Experiment-theory comparison for measured force curves.

Residuals delta_F(a_i) = F_exp(a_i) - F_theor(a_i) are the quantity of
interest: their size in units of the measurement error decides whether the
data and the prediction agree, and their lower confidence bound feeds the
new-force constraint.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._table import read_table
from ._value import validated
from .errors import DataFormatError, DomainError


@validated
class ExperimentRecord(NamedTuple):
    """One measured point: separation [m], force [pN], one-sigma error [pN]."""

    separation: float
    force_measured: float
    sigma: float

    def _validate(self):
        if not 0 < self.separation < math.inf:
            raise ValueError("separation must be finite and positive")
        if not math.isfinite(self.force_measured):
            raise ValueError("force_measured must be finite")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and positive")


class ResidualRow(NamedTuple):
    separation: float
    force_measured: float
    force_theory: float
    delta_f: float
    sigma_ratio: float


class ResidualReport(NamedTuple):
    """Per-point residuals plus rms deviation and worst sigma exceedance."""

    rows: tuple[ResidualRow, ...]
    rms_deviation: float
    max_sigma_exceedance: float


def load_experiment(path) -> list[ExperimentRecord]:
    """Read (a [nm], F [pN], sigma [pN]) rows; returns records sorted by a.

    Lines starting with '#' are comments; columns may be separated by
    commas or whitespace.  Separations are converted to meters.  Duplicate
    separations are kept (stable order).
    """
    values, lines, _ = read_table(path, 3, "experiment")
    records = []
    for (a_nm, f_pn, sigma), lineno in zip(values.tolist(), lines):
        try:
            records.append(ExperimentRecord(a_nm * 1e-9, f_pn, sigma))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    records.sort(key=lambda r: r.separation)
    return records


def residual_report(records: Sequence[ExperimentRecord],
                    theory: Callable[[np.ndarray], object],
                    range_filter: tuple[float, float] | None = None
                    ) -> ResidualReport:
    """Residuals of the records against a theory evaluator, in pN.

    `theory` is called once, with the array of the selected separations
    [m], and returns their forces; a scalar applies to every separation.
    `range_filter` = (a_lo, a_hi) in meters restricts the included rows
    (inclusive).  Raises ValueError if no record survives the filter and
    DomainError if a theory force is not finite.
    """
    selected = list(records)
    if range_filter is not None:
        a_lo, a_hi = range_filter
        selected = [r for r in selected if a_lo <= r.separation <= a_hi]
    if not selected:
        raise ValueError("no experiment records in the requested range")
    separations = np.array([r.separation for r in selected])
    forces = np.broadcast_to(np.asarray(theory(separations), dtype=float),
                             separations.shape)
    bad = ~np.isfinite(forces)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"theory force {forces[i]} pN at a = "
                          f"{separations[i] * 1e9:.6g} nm is not finite")
    rows = []
    for rec, f_th in zip(selected, forces.tolist()):
        delta = rec.force_measured - f_th
        rows.append(ResidualRow(rec.separation, rec.force_measured, f_th,
                                delta, delta / rec.sigma))
    rms = math.sqrt(sum(r.delta_f**2 for r in rows) / len(rows))
    worst = max(abs(r.sigma_ratio) for r in rows)
    return ResidualReport(tuple(rows), rms, worst)


def residual_lower_bound(delta_f: float, sigma: float,
                         confidence_sigmas: float) -> float:
    """delta_f minus confidence_sigmas standard deviations, floored at zero."""
    if not (0 < delta_f < math.inf and 0 < sigma < math.inf
            and 0 <= confidence_sigmas < math.inf):
        raise ValueError("delta_f and sigma must be finite and positive, "
                         "confidence_sigmas finite and non-negative")
    return max(0.0, delta_f - confidence_sigmas * sigma)
