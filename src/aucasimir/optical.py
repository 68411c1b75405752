"""Tabulated optical data handling.

The absorptive part of the dielectric function, eps''(omega), is the
empirical input to every dispersion integral in this package.  Handbook
tables come in different units and from different sources, so this module
covers loading, merging (one dataset wins where two overlap), interpolation
(linear on a log-log scale, the standard choice for optical tables) and
the Drude eps'' that `dielectric.fit_drude` matches to the data.
demos/make_gold_synthetic.py writes the bundled synthetic table.

Internal canonical frequency unit is rad/s; file inputs may be in eV.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._table import read_table
from ._value import validated
from .constants import e as _e_charge, hbar as _hbar
from .errors import DataFormatError

#: photon energy in eV -> angular frequency in rad/s
EV_TO_RAD_S = _e_charge / _hbar

#: handbook tables start at 0.1 eV
OMEGA0_DEFAULT = 0.1 * EV_TO_RAD_S

#: boundary between defect-dominated and interband absorption for gold
OMEGA1_DEFAULT = 3.2e15


@validated
class FrequencyBoundaries(NamedTuple):
    """Edges of the three spectral regions used by the dispersion transform.

    omega0 is the low-frequency end of the tabulated data (below it a Drude
    extrapolation is used analytically); omega1 is the boundary above which
    interband absorption dominates and the data are sample independent.
    """

    omega0: float = OMEGA0_DEFAULT
    omega1: float = OMEGA1_DEFAULT

    def _validate(self):
        if not 0 < self.omega0 < self.omega1:
            raise ValueError(
                f"need 0 < omega0 < omega1, got ({self.omega0}, {self.omega1})")


@validated
class OpticalDataset(NamedTuple):
    """Table of eps''(omega) samples as read-only columns, ascending in omega.

    `omega` [rad/s] and `eps2` are float arrays; `source` holds one tag per
    sample, and a single string tags every sample.  The constructor sorts
    by omega (stable) and rejects an empty table, columns of unequal
    length, non-finite or non-positive values and repeated frequencies.
    """

    omega: np.ndarray
    eps2: np.ndarray
    source: np.ndarray = ""

    # a table is its own value: equal only to itself, hashed by identity
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def _validate(self):
        omega = np.array(self.omega, dtype=float)
        eps2 = np.array(self.eps2, dtype=float)
        source = np.array(self.source, dtype=object)
        if source.ndim == 0:
            source = np.full(omega.shape, self.source, dtype=object)
        if omega.ndim != 1 or omega.size == 0:
            raise ValueError("dataset must contain at least one sample")
        if eps2.shape != omega.shape or source.shape != omega.shape:
            raise ValueError(f"columns differ in length: omega {omega.shape}, "
                             f"eps2 {eps2.shape}, source {source.shape}")
        for name, column in (("omega", omega), ("eps2", eps2)):
            if not np.all((column > 0) & (column < np.inf)):
                raise ValueError(f"{name} must be finite and positive")
        order = np.argsort(omega, kind="stable")
        omega, eps2, source = omega[order], eps2[order], source[order]
        repeated = np.flatnonzero(omega[1:] == omega[:-1])
        if repeated.size:
            raise ValueError(f"repeated frequency omega={omega[repeated[0]]}: "
                             f"samples must be strictly ascending in omega")
        for column in (omega, eps2, source):
            column.flags.writeable = False
        return omega, eps2, source

    @property
    def omega_min(self) -> float:
        return float(self.omega[0])

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])

    def __repr__(self):
        return (f"OpticalDataset(n={self.omega.size}, "
                f"omega=[{self.omega_min:.4g}, {self.omega_max:.4g}] rad/s)")


def load_dataset(path) -> OpticalDataset:
    """Load an optical dataset from a delimited text file.

    Expected layout: a header comment ``# unit=<eV|rad_s> source=<label>``,
    further ``#`` comment lines, then two numeric columns (frequency, eps2)
    separated by whitespace or commas.  eV frequencies are converted to
    rad/s.
    """
    values, lines, comments = read_table(path, 2, "optical data")
    header = next(((n, c) for n, c in comments if "unit=" in c), None)
    if header is None:
        raise DataFormatError(
            f"{path}: frequency unit not declared (header '# unit=eV' or "
            f"'# unit=rad_s')")
    tokens = dict(chunk.split("=", 1) for chunk in header[1].lstrip("#").split()
                  if "=" in chunk)
    unit, source = tokens.get("unit"), tokens.get("source", "")
    if unit not in ("rad_s", "eV"):
        raise DataFormatError(f"{path}:{header[0]}: unknown unit {unit!r}")
    bad = np.flatnonzero(np.any(values <= 0, axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{lines[bad[0]]}: values must be positive")
    scale = EV_TO_RAD_S if unit == "eV" else 1.0
    try:
        return OpticalDataset(values[:, 0] * scale, values[:, 1], source)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def merge_datasets(winner: OpticalDataset, other: OpticalDataset) -> OpticalDataset:
    """Merge two datasets: `winner` keeps all of its samples and `other`
    contributes only its samples outside the winner's frequency span."""
    lo = np.searchsorted(other.omega, winner.omega_min, side="left")
    hi = np.searchsorted(other.omega, winner.omega_max, side="right")
    return OpticalDataset(*(np.concatenate((rest[:lo], win, rest[hi:]))
                            for win, rest in ((winner.omega, other.omega),
                                              (winner.eps2, other.eps2),
                                              (winner.source, other.source))))


def interpolate_eps2(ds: OpticalDataset, omega):
    """eps''(omega) by linear interpolation on a log-log scale.

    Exact at sample nodes.  `omega` is an array (a scalar is a 0-d array);
    every value must lie inside [omega_min, omega_max] (no extrapolation
    here).
    """
    w = np.asarray(omega, dtype=float)
    if not np.all((w >= ds.omega_min) & (w <= ds.omega_max)):
        raise ValueError(
            f"omega outside data range [{ds.omega_min:.6g}, {ds.omega_max:.6g}]")
    out = np.exp(np.interp(np.log(w), np.log(ds.omega), np.log(ds.eps2)))
    # return the stored value verbatim when omega hits a node
    idx = np.clip(np.searchsorted(ds.omega, w), 0, ds.omega.size - 1)
    return np.where(ds.omega[idx] == w, ds.eps2[idx], out)[()]


def drude_eps2(omega_p: float, omega_tau: float, omega):
    """Drude absorptive part: omega_p^2 omega_tau / (omega (omega^2 + omega_tau^2))."""
    w = np.asarray(omega, dtype=float)
    return omega_p**2 * omega_tau / (w * (w * w + omega_tau**2))
