"""Run configuration: a flat key-value file with sections (INI syntax).

The grammar (`_read_ini`): `[section]` header lines, `key = value` or
`key: value` lines split at the first delimiter (keys lower-cased),
full-line `#`/`;` comments and inline ones after a space or tab.  There
are no continuation lines and no [DEFAULT] section; a line's leading
blanks are ignored.

A config pins the physics a computation depends on -- dielectric model,
geometry, temperature and prescription -- so that a run is reproducible
from the file alone; the numerical rules are the library's fixed defaults.
The Drude parameters are given (omega_p, omega_tau) or fitted to the data
(fit_range, optionally fit_fixed_omega_p), never both.
`RunConfig.build_evaluator` returns the dielectric model, a
`DrudeParameters` or a `DielectricModel`; both answer `epsilon(zeta)` and
`decompose(zeta)`.  Dataset paths are resolved against the config file
directory, the working directory, the CASIMIR_DATA_DIR environment
variable, and finally the bundled package data, in that order.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import NamedTuple

from .dielectric import DielectricModel, DrudeParameters, fit_drude
from .errors import ConfigError
from .lifshitz import check_prescription
from .optical import FrequencyBoundaries, OpticalDataset, load_dataset, merge_datasets

DATA_DIR_ENV = "CASIMIR_DATA_DIR"

#: the keys of each section; kk_epsrel and every [numerics] key are retired
#: and load with no effect
_KEYS = {
    "dielectric": {"model", "omega_p", "omega_tau", "dataset", "fit_range",
                   "fit_fixed_omega_p", "omega0", "omega1", "tail_exponent",
                   "kk_epsrel"},
    "geometry": {"sphere_radius"},
    "thermal": {"temperature"},
    "force": {"prescription"},
    "numerics": {"zeta_min", "panels_per_decade", "sum_rel_tol", "n_max",
                 "p_epsrel", "zeta_epsrel", "sum_consecutive", "zeta_max"},
}


def package_data_dir() -> Path:
    return Path(__file__).parent / "data"


def resolve_data_path(name, search_dirs: tuple[Path, ...] = ()) -> Path:
    """Locate a data file: absolute path, given dirs, cwd, $CASIMIR_DATA_DIR,
    then the bundled package data."""
    p = Path(name)
    if p.is_absolute():
        if not p.is_file():
            raise FileNotFoundError(f"data file not found: {p}")
        return p
    candidates = [d / p for d in search_dirs]
    candidates.append(Path.cwd() / p)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        candidates.append(Path(env_dir) / p)
    candidates.append(package_data_dir() / p)
    for cand in candidates:
        if cand.is_file():
            return cand
    raise FileNotFoundError(
        f"data file not found: {name} (searched {', '.join(str(c.parent) for c in candidates)})")


class RunConfig(NamedTuple):
    """Validated run configuration."""

    model_kind: str                      # "drude" or "tabulated"
    drude: DrudeParameters | None        # None -> fit from data
    fit_range: tuple[float, float] | None
    fit_fixed_omega_p: float | None
    dataset_paths: tuple[Path, ...]
    boundaries: FrequencyBoundaries
    tail_exponent: float
    sphere_radius: float
    temperature: float
    prescription: str

    def load_dataset(self) -> OpticalDataset | None:
        """Merged optical dataset; earlier paths take precedence on overlap."""
        if not self.dataset_paths:
            return None
        merged = load_dataset(self.dataset_paths[0])
        for path in self.dataset_paths[1:]:
            merged = merge_datasets(merged, load_dataset(path))
        return merged

    def build_evaluator(self) -> DrudeParameters | DielectricModel:
        """The dielectric model: `epsilon(zeta)` is the eps(i zeta) evaluator
        (an array of zeta in, an array out) and `decompose(zeta)` its split
        by spectral region.  The dataset is parsed only when the model or a
        Drude fit reads it.
        """
        dataset = None
        if self.model_kind == "tabulated" or self.drude is None:
            dataset = self.load_dataset()
        drude = self.drude
        if drude is None:
            drude = fit_drude(dataset, self.fit_range,
                              omega_p_fixed=self.fit_fixed_omega_p).parameters
        if self.model_kind == "drude":
            return drude
        return DielectricModel(drude, dataset, self.boundaries,
                               self.tail_exponent)


def _read_ini(path: Path) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of an INI file, in the grammar of this
    module's docstring; a line outside it is a ConfigError naming the line."""
    sections, section = {}, None
    for lineno, line in enumerate(path.read_text().split("\n"), 1):
        # an inline comment starts at '#' or ';' after a space or tab
        for mark in (" #", "\t#", " ;", "\t;"):
            line = line.partition(mark)[0]
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        if text[0] == "[" and text[-1] == "]":
            name = text[1:-1]
            if name in sections:
                raise ConfigError(f"{path}: line {lineno}: section [{name}] appears twice")
            section = sections[name] = {}
            continue
        if section is None:
            raise ConfigError(f"{path}: line {lineno}: no [section] header above it")
        # split at the first delimiter: ':' if one comes before any '='
        first = ":" if ":" in text.partition("=")[0] else "="
        key, delimiter, value = text.partition(first)
        key = key.strip().lower()
        if not (delimiter and key):
            raise ConfigError(f"{path}: line {lineno}: not a 'key = value' line")
        if key in section:
            raise ConfigError(f"{path}: line {lineno}: key [{name}] {key} appears twice")
        section[key] = value.strip()
    return sections


def _get_float(ini, section, key, default=None):
    raw = ini.get(section, {}).get(key, "")
    if raw == "":
        if default is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def load_run_config(path) -> RunConfig:
    """Parse and fully validate a config file (fail fast, before computing)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    ini = _read_ini(path)
    if "dielectric" not in ini:
        raise ConfigError(f"{path}: missing [dielectric] section")
    for section, keys in ini.items():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in keys:
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
    dielectric = ini["dielectric"]

    dataset_paths = tuple(resolve_data_path(name.strip(), (path.parent,))
                          for name in dielectric.get("dataset", "").split(",") if name.strip())

    model_kind = dielectric.get("model", "tabulated" if dataset_paths else "drude")
    if model_kind not in ("drude", "tabulated"):
        raise ConfigError(f"[dielectric] model must be 'drude' or 'tabulated', "
                          f"got {model_kind!r}")
    if model_kind == "tabulated" and not dataset_paths:
        raise ConfigError("[dielectric] model=tabulated needs a dataset")

    fit_raw = dielectric.get("fit_range", "").split()
    fit_range = None
    if fit_raw:
        if len(fit_raw) != 2:
            raise ConfigError("[dielectric] fit_range needs two values (rad/s)")
        try:
            fit_range = (float(fit_raw[0]), float(fit_raw[1]))
        except ValueError:
            raise ConfigError(f"[dielectric] fit_range: not a number: "
                              f"{' '.join(fit_raw)!r}") from None
        if not 0 < fit_range[0] < fit_range[1] < math.inf:
            raise ConfigError("[dielectric] fit_range must be finite with 0 < lo < hi")
    fit_fixed = (_get_float(ini, "dielectric", "fit_fixed_omega_p")
                 if dielectric.get("fit_fixed_omega_p") else None)
    if fit_fixed is not None and fit_fixed <= 0:
        raise ConfigError("[dielectric] fit_fixed_omega_p must be positive")

    drude = None
    if "omega_p" in dielectric:
        for key in ("fit_range", "fit_fixed_omega_p"):
            if key in dielectric:
                raise ConfigError(f"[dielectric] {key} conflicts with omega_p: "
                                  f"give omega_p/omega_tau or a fit_range, not both")
        omega_p = _get_float(ini, "dielectric", "omega_p")
        omega_tau = _get_float(ini, "dielectric", "omega_tau")
        try:
            drude = DrudeParameters(omega_p, omega_tau)
        except ValueError as exc:
            raise ConfigError(f"[dielectric] {exc}") from None
    elif fit_range is None:
        raise ConfigError("[dielectric] needs omega_p/omega_tau or fit_range")
    elif not dataset_paths:
        raise ConfigError("[dielectric] fit_range needs a dataset to fit")
    elif "omega_tau" in dielectric:
        raise ConfigError("[dielectric] omega_tau conflicts with fit_range, "
                          "which fits it: give omega_p/omega_tau or a "
                          "fit_range, not both")

    try:
        boundaries = FrequencyBoundaries(
            _get_float(ini, "dielectric", "omega0", FrequencyBoundaries().omega0),
            _get_float(ini, "dielectric", "omega1", FrequencyBoundaries().omega1))
    except ValueError as exc:
        raise ConfigError(f"[dielectric] boundaries: {exc}") from None
    tail_exponent = _get_float(ini, "dielectric", "tail_exponent", 3.0)
    if tail_exponent <= 1:
        raise ConfigError("[dielectric] tail_exponent must exceed 1")

    sphere_radius = _get_float(ini, "geometry", "sphere_radius")
    if sphere_radius <= 0:
        raise ConfigError("[geometry] sphere_radius must be positive")

    temperature = _get_float(ini, "thermal", "temperature", 300.0)
    if temperature < 0:
        raise ConfigError("[thermal] temperature must be non-negative")

    prescription = ini.get("force", {}).get("prescription", "schwinger")
    try:
        check_prescription(prescription)
    except ValueError as exc:
        raise ConfigError(f"[force] {exc}") from None

    return RunConfig(model_kind=model_kind, drude=drude, fit_range=fit_range,
                     fit_fixed_omega_p=fit_fixed, dataset_paths=dataset_paths,
                     boundaries=boundaries, tail_exponent=tail_exponent,
                     sphere_radius=sphere_radius,
                     temperature=temperature, prescription=prescription)
