"""Tabulated optical data handling.

The absorptive part of the dielectric function, eps''(omega), is the
empirical input to every dispersion integral in this package.  Handbook
tables come in different units and from different sources, so this module
covers loading, merging with a source precedence, interpolation (linear on
a log-log scale, the standard choice for optical tables), gap filling, and
a synthetic Drude + Lorentz generator used as a hermetic test fixture.

Internal canonical frequency unit is rad/s; file inputs may be in eV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.constants import e as _e_charge, hbar as _hbar

from .errors import DataFormatError

if TYPE_CHECKING:
    from .dielectric import DrudeParameters

#: photon energy in eV -> angular frequency in rad/s
EV_TO_RAD_S = _e_charge / _hbar

#: handbook tables start at 0.1 eV
OMEGA0_DEFAULT = 0.1 * EV_TO_RAD_S

#: boundary between defect-dominated and interband absorption for gold
OMEGA1_DEFAULT = 3.2e15


@dataclass(frozen=True)
class OpticalSample:
    """One tabulated point: angular frequency [rad/s], eps''(omega), source tag."""

    omega: float
    eps2: float
    source_label: str = ""

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.eps2 > 0:
            raise ValueError(f"eps2 must be positive (absorptive medium), got {self.eps2}")


@dataclass(frozen=True)
class FrequencyBoundaries:
    """Edges of the three spectral regions used by the dispersion transform.

    omega0 is the low-frequency end of the tabulated data (below it a Drude
    extrapolation is used analytically); omega1 is the boundary above which
    interband absorption dominates and the data are sample independent.
    """

    omega0: float = OMEGA0_DEFAULT
    omega1: float = OMEGA1_DEFAULT

    def __post_init__(self):
        if not 0 < self.omega0 < self.omega1:
            raise ValueError(
                f"need 0 < omega0 < omega1, got ({self.omega0}, {self.omega1})")


@dataclass(frozen=True)
class OpticalDataset:
    """Immutable, strictly ascending table of (omega, eps2) samples."""

    samples: tuple[OpticalSample, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("dataset must contain at least one sample")
        omega = np.array([s.omega for s in self.samples], dtype=float)
        if np.any(np.diff(omega) <= 0):
            raise ValueError("samples must be strictly ascending in omega")
        eps2 = np.array([s.eps2 for s in self.samples], dtype=float)
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_eps2", eps2)
        object.__setattr__(self, "_ln_omega", np.log(omega))
        object.__setattr__(self, "_ln_eps2", np.log(eps2))

    @classmethod
    def from_arrays(cls, omega: Iterable[float], eps2: Iterable[float],
                    source_label: str = "") -> "OpticalDataset":
        pairs = sorted(zip(omega, eps2))
        return cls(tuple(OpticalSample(w, e, source_label) for w, e in pairs))

    @property
    def omega_min(self) -> float:
        return self.samples[0].omega

    @property
    def omega_max(self) -> float:
        return self.samples[-1].omega

    @property
    def omega(self) -> np.ndarray:
        return self._omega

    @property
    def eps2(self) -> np.ndarray:
        return self._eps2

    def __repr__(self):
        return (f"OpticalDataset(n={len(self.samples)}, "
                f"omega=[{self.omega_min:.4g}, {self.omega_max:.4g}] rad/s)")


@dataclass(frozen=True)
class ColumnFormat:
    """Column schema for optical data files: frequency unit and source tag."""

    frequency_unit: str  # "rad_s" or "eV"
    source: str = ""

    def __post_init__(self):
        if self.frequency_unit not in ("rad_s", "eV"):
            raise ValueError(f"unknown frequency unit {self.frequency_unit!r}")


def _parse_header_tokens(line: str) -> dict:
    tokens = {}
    for chunk in line.lstrip("#").split():
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            tokens[key] = value
    return tokens


def load_dataset(path, fmt: ColumnFormat | None = None) -> OpticalDataset:
    """Load an optical dataset from a delimited text file.

    Expected layout: an optional header comment ``# unit=<eV|rad_s>
    source=<label>``, further ``#`` comment lines, then two numeric columns
    (frequency, eps2) separated by whitespace or commas.  An explicit `fmt`
    overrides the file header.  eV frequencies are converted to rad/s.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"optical data file not found: {path}")

    unit = fmt.frequency_unit if fmt is not None else None
    source = fmt.source if fmt is not None else ""
    rows: list[tuple[float, float]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if fmt is None and unit is None and "unit=" in line:
                tokens = _parse_header_tokens(line)
                unit = tokens.get("unit")
                source = tokens.get("source", "")
                if unit not in ("rad_s", "eV"):
                    raise DataFormatError(f"{path}:{lineno}: unknown unit {unit!r}")
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
        try:
            freq, eps2 = float(parts[0]), float(parts[1])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-numeric value") from None
        if freq <= 0 or eps2 <= 0:
            raise DataFormatError(f"{path}:{lineno}: values must be positive")
        rows.append((freq, eps2))

    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if unit is None:
        raise DataFormatError(
            f"{path}: frequency unit not declared (header '# unit=eV' or "
            f"'# unit=rad_s', or pass a ColumnFormat)")

    scale = EV_TO_RAD_S if unit == "eV" else 1.0
    rows.sort(key=lambda r: r[0])
    for (w1, _), (w2, _) in zip(rows, rows[1:]):
        if w1 == w2:
            raise DataFormatError(f"{path}: duplicate frequency {w1}")
    return OpticalDataset(
        tuple(OpticalSample(w * scale, e, source) for w, e in rows))


def merge_datasets(a: OpticalDataset, b: OpticalDataset,
                   precedence: str = "a") -> OpticalDataset:
    """Merge two datasets.

    With precedence "a" or "b" the winning dataset keeps all of its samples
    and the other contributes only samples outside the winner's frequency
    span.  With "equal", identical duplicate samples collapse and
    conflicting duplicates (same omega, different eps2) are an error.
    """
    if precedence == "equal":
        by_omega: dict[float, OpticalSample] = {}
        for s in a.samples + b.samples:
            prev = by_omega.get(s.omega)
            if prev is not None and prev.eps2 != s.eps2:
                raise DataFormatError(
                    f"conflicting duplicate at omega={s.omega}: "
                    f"{prev.eps2} vs {s.eps2} (equal precedence)")
            by_omega[s.omega] = s
        merged = sorted(by_omega.values(), key=lambda s: s.omega)
        return OpticalDataset(tuple(merged))

    if precedence == "a":
        winner, loser = a, b
    elif precedence == "b":
        winner, loser = b, a
    else:
        raise ValueError(f"precedence must be 'a', 'b' or 'equal', got {precedence!r}")
    kept = [s for s in loser.samples
            if not winner.omega_min <= s.omega <= winner.omega_max]
    merged = sorted(winner.samples + tuple(kept), key=lambda s: s.omega)
    return OpticalDataset(tuple(merged))


def interpolate_eps2(ds: OpticalDataset, omega):
    """eps''(omega) by linear interpolation on a log-log scale.

    Exact at sample nodes.  `omega` may be a scalar or an array; every value
    must lie inside [omega_min, omega_max] (no extrapolation here).
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < ds.omega_min) or np.any(w > ds.omega_max):
        raise ValueError(
            f"omega outside data range [{ds.omega_min:.6g}, {ds.omega_max:.6g}]")
    out = np.exp(np.interp(np.log(w), ds._ln_omega, ds._ln_eps2))
    # return the stored value verbatim when omega hits a node
    idx = np.clip(np.searchsorted(ds._omega, w), 0, len(ds._omega) - 1)
    out = np.where(ds._omega[idx] == w, ds._eps2[idx], out)
    return float(out) if np.isscalar(omega) else out


def fill_gap(ds: OpticalDataset, gap_lo: float, gap_hi: float,
             points_per_decade: int = 20) -> OpticalDataset:
    """Insert synthetic samples across an empty interval of the dataset.

    New samples lie on the log-log chord joining the nearest sample at or
    below `gap_lo` to the nearest sample at or above `gap_hi`, spaced
    log-uniformly, and carry the source label "gapfill".
    """
    if not gap_lo < gap_hi:
        raise ValueError("gap_lo must be < gap_hi")
    if gap_lo < ds.omega_min or gap_hi > ds.omega_max:
        raise ValueError("gap endpoints must lie inside the dataset range")
    if points_per_decade < 0:
        raise ValueError("points_per_decade must be >= 0")

    left = max((s for s in ds.samples if s.omega <= gap_lo), key=lambda s: s.omega)
    right = min((s for s in ds.samples if s.omega >= gap_hi), key=lambda s: s.omega)
    if any(left.omega < s.omega < right.omega for s in ds.samples):
        raise ValueError("gap interval is not empty of samples")

    decades = math.log10(right.omega / left.omega)
    n_nodes = int(round(points_per_decade * decades)) + 1
    if n_nodes < 2:
        return ds
    grid = np.exp(np.linspace(math.log(left.omega), math.log(right.omega), n_nodes))
    inner = grid[1:-1]
    new = [OpticalSample(float(w), float(e), "gapfill")
           for w, e in zip(inner, interpolate_eps2(ds, inner))]
    merged = sorted(ds.samples + tuple(new), key=lambda s: s.omega)
    return OpticalDataset(tuple(merged))


def drude_eps2(omega_p: float, omega_tau: float, omega):
    """Drude absorptive part: omega_p^2 omega_tau / (omega (omega^2 + omega_tau^2))."""
    w = np.asarray(omega, dtype=float)
    out = omega_p**2 * omega_tau / (w * (w * w + omega_tau**2))
    return float(out) if np.isscalar(omega) else out


def lorentz_eps2(strength: float, center: float, width: float, omega):
    """Lorentz oscillator absorptive part."""
    w = np.asarray(omega, dtype=float)
    out = strength * center**2 * width * w / ((center**2 - w * w)**2 + (width * w)**2)
    return float(out) if np.isscalar(omega) else out


def generate_synthetic_dataset(
        drude: "DrudeParameters",
        oscillators: Sequence[tuple[float, float, float]] = (),
        omega_range: tuple[float, float] = (OMEGA0_DEFAULT, 1e18),
        points_per_decade: int = 20,
        source_label: str = "synthetic") -> OpticalDataset:
    """Drude + Lorentz eps''(omega) sampled log-uniformly over `omega_range`.

    Stands in for the copyrighted handbook tables so that tests and the
    bundled sample file are self-contained.  `oscillators` is a sequence of
    (strength, center, width) triples, all positive.
    """
    lo, hi = omega_range
    if not 0 < lo < hi:
        raise ValueError("omega_range must satisfy 0 < lo < hi")
    for strength, center, width in oscillators:
        if strength <= 0 or center <= 0 or width <= 0:
            raise ValueError("oscillator parameters must be positive")
    n_nodes = int(round(points_per_decade * math.log10(hi / lo))) + 1
    n_nodes = max(n_nodes, 2)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_nodes))
    grid[0], grid[-1] = lo, hi  # exp(log(.)) can drift by an ulp
    eps2 = drude_eps2(drude.omega_p, drude.omega_tau, grid)
    for strength, center, width in oscillators:
        eps2 = eps2 + lorentz_eps2(strength, center, width, grid)
    return OpticalDataset(
        tuple(OpticalSample(float(w), float(e), source_label)
              for w, e in zip(grid, eps2)))
