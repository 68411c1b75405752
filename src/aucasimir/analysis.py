"""Experiment-theory comparison for measured force curves.

Residuals delta_F(a_i) = F_exp(a_i) - F_theor(a_i) are the quantity of
interest: their size in units of the measurement error decides whether the
data and the prediction agree, and their lower confidence bound feeds the
new-force constraint.

The module compares numbers it is given: `residual_report` takes the
records and their theory forces, and the caller picks the rows and
computes the forces (the CLI's `residuals` makes one `force_scan` over the
rows in its `--a-min`/`--a-max` range).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from ._table import read_table
from ._value import validated
from .errors import DataFormatError, DomainError

#: the largest residual whose square is a finite float; Python's ** raises
#: OverflowError for a larger one
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


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
                    forces) -> ResidualReport:
    """Residuals of the records against their theory forces, in pN.

    `forces` holds one theory force [pN] per record, in the records' order,
    or one scalar for every record.  Raises ValueError if there are no
    records or the number of forces differs from theirs, and DomainError,
    naming the separation, if a theory force is not finite or a residual
    overflows its ratio to sigma or the rms.
    """
    if not records:
        raise ValueError("no experiment records")
    separations = np.array([r.separation for r in records])
    forces = np.asarray(forces, dtype=float)
    if forces.shape not in ((), separations.shape):
        raise ValueError(f"{forces.size} theory forces for {separations.size} "
                         f"experiment records")
    forces = np.broadcast_to(forces, separations.shape)
    bad = ~np.isfinite(forces)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"theory force {forces[i]} pN at a = "
                          f"{separations[i] * 1e9:.6g} nm is not finite")
    rows = []
    for rec, f_th in zip(records, forces.tolist()):
        delta = rec.force_measured - f_th
        rows.append(ResidualRow(rec.separation, rec.force_measured, f_th,
                                delta, delta / rec.sigma))
    worst = max(rows, key=lambda r: abs(r.sigma_ratio))
    if not math.isfinite(worst.sigma_ratio):
        raise _overflow(worst, "dF/sigma")
    largest = max(rows, key=lambda r: abs(r.delta_f))
    squares = (sum(r.delta_f**2 for r in rows)
               if abs(largest.delta_f) < _SQRT_FLOAT_MAX else math.inf)
    if squares == math.inf:
        raise _overflow(largest, "the rms residual")
    rms = math.sqrt(squares / len(rows))
    return ResidualReport(tuple(rows), rms, abs(worst.sigma_ratio))


def _overflow(row: ResidualRow, what: str) -> DomainError:
    return DomainError(f"residual dF = {row.delta_f:.6g} pN at a = "
                       f"{row.separation * 1e9:.6g} nm overflows {what}")


def residual_lower_bound(delta_f: float, sigma: float,
                         confidence_sigmas: float) -> float:
    """delta_f minus confidence_sigmas standard deviations, floored at zero."""
    if not (0 < delta_f < math.inf and 0 < sigma < math.inf
            and 0 <= confidence_sigmas < math.inf):
        raise ValueError("delta_f and sigma must be finite and positive, "
                         "confidence_sigmas finite and non-negative")
    return max(0.0, delta_f - confidence_sigmas * sigma)
