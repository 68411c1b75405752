"""Run configuration: a flat key-value file with sections (INI syntax).

A config pins the physics a computation depends on -- dielectric model,
geometry, temperature and prescription -- so that a run is reproducible
from the file alone; the numerical rules are the library's fixed defaults.  Dataset paths are resolved
against the config file directory, the working directory, the
CASIMIR_DATA_DIR environment variable, and finally the bundled package
data, in that order.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

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
    return Path(str(resources.files("aucasimir") / "data"))


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


@dataclass(frozen=True)
class RunConfig:
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

    def drude_parameters(self, dataset: OpticalDataset | None) -> DrudeParameters:
        if self.drude is not None:
            return self.drude
        fit = fit_drude(dataset, self.fit_range,
                        omega_p_fixed=self.fit_fixed_omega_p)
        return fit.parameters

    def build_evaluator(self) -> tuple[Callable, DrudeParameters,
                                       DielectricModel | None]:
        """(eps(i zeta) evaluator, Drude parameters, model or None).

        The evaluator takes an array of zeta (a scalar is a 0-d array).  The
        dataset is parsed only when the model or a Drude fit reads it.
        """
        dataset = None
        if self.model_kind == "tabulated" or self.drude is None:
            dataset = self.load_dataset()
        drude = self.drude_parameters(dataset)
        if self.model_kind == "drude":
            return drude.epsilon, drude, None
        model = DielectricModel(drude, dataset, self.boundaries,
                                self.tail_exponent)
        return model.epsilon, drude, model


def _get_float(cp, section, key, default=None):
    raw = cp.get(section, key, fallback=None)
    if raw is None or raw.strip() == "":
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


def _read_error(path: Path, exc: configparser.Error) -> str:
    """One line for an error of configparser's read: file, line and cause."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        cause = "no [section] header above it"
    elif isinstance(exc, configparser.DuplicateSectionError):
        cause = f"section [{exc.section}] appears twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        cause = f"key [{exc.section}] {exc.option} appears twice"
    else:
        cause = "not a 'key = value' line"
    lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
    return f"{path}: line {lineno}: {cause}"


def load_run_config(path) -> RunConfig:
    """Parse and fully validate a config file (fail fast, before computing)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    # no interpolation: a '%' in a value is a plain character
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(_read_error(path, exc)) from None
    if not cp.has_section("dielectric"):
        raise ConfigError(f"{path}: missing [dielectric] section")
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")

    dataset_raw = cp.get("dielectric", "dataset", fallback="").strip()
    dataset_names = [s.strip() for s in dataset_raw.split(",") if s.strip()]
    dataset_paths = tuple(resolve_data_path(n, (path.parent,))
                          for n in dataset_names)

    model_kind = cp.get("dielectric", "model",
                        fallback="tabulated" if dataset_paths else "drude").strip()
    if model_kind not in ("drude", "tabulated"):
        raise ConfigError(f"[dielectric] model must be 'drude' or 'tabulated', "
                          f"got {model_kind!r}")
    if model_kind == "tabulated" and not dataset_paths:
        raise ConfigError("[dielectric] model=tabulated needs a dataset")

    fit_raw = cp.get("dielectric", "fit_range", fallback="").split()
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
    fixed_raw = cp.get("dielectric", "fit_fixed_omega_p", fallback="").strip()
    fit_fixed = _get_float(cp, "dielectric", "fit_fixed_omega_p") if fixed_raw else None
    if fit_fixed is not None and fit_fixed <= 0:
        raise ConfigError("[dielectric] fit_fixed_omega_p must be positive")

    drude = None
    if cp.has_option("dielectric", "omega_p"):
        omega_p = _get_float(cp, "dielectric", "omega_p")
        omega_tau = _get_float(cp, "dielectric", "omega_tau")
        try:
            drude = DrudeParameters(omega_p, omega_tau)
        except ValueError as exc:
            raise ConfigError(f"[dielectric] {exc}") from None
    elif fit_range is None:
        raise ConfigError("[dielectric] needs omega_p/omega_tau or fit_range")
    elif not dataset_paths:
        raise ConfigError("[dielectric] fit_range needs a dataset to fit")

    try:
        boundaries = FrequencyBoundaries(
            _get_float(cp, "dielectric", "omega0", FrequencyBoundaries().omega0),
            _get_float(cp, "dielectric", "omega1", FrequencyBoundaries().omega1))
    except ValueError as exc:
        raise ConfigError(f"[dielectric] boundaries: {exc}") from None
    tail_exponent = _get_float(cp, "dielectric", "tail_exponent", 3.0)
    if tail_exponent <= 1:
        raise ConfigError("[dielectric] tail_exponent must exceed 1")

    sphere_radius = _get_float(cp, "geometry", "sphere_radius")
    if sphere_radius <= 0:
        raise ConfigError("[geometry] sphere_radius must be positive")

    temperature = _get_float(cp, "thermal", "temperature", 300.0)
    if temperature < 0:
        raise ConfigError("[thermal] temperature must be non-negative")

    prescription = cp.get("force", "prescription", fallback="schwinger").strip()
    try:
        check_prescription(prescription)
    except ValueError as exc:
        raise ConfigError(f"[force] {exc}") from None

    return RunConfig(model_kind=model_kind, drude=drude, fit_range=fit_range,
                     fit_fixed_omega_p=fit_fixed, dataset_paths=dataset_paths,
                     boundaries=boundaries, tail_exponent=tail_exponent,
                     sphere_radius=sphere_radius,
                     temperature=temperature, prescription=prescription)
