"""Command line front end: reproducible runs emitting CSV/JSON tables.

Commands mirror the pipeline: `fit-drude`, `epsilon`, `force`, `residuals`,
`yukawa-limit`.  Identical config and inputs give byte-identical output
(fixed column order, fixed float formatting, fixed summation order).

Exit codes: 0 success, 1 compute error, 2 input or config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import load_experiment, residual_report
from .config import load_run_config, resolve_data_path
from .dielectric import fit_drude, resistivity
from .errors import ConfigError, ConvergenceError, DataFormatError, DomainError
from .lifshitz import _A_RANGE, force_scan, ideal_force
from .optical import load_dataset
from .yukawa import (ASTRO_ALPHA_CEILING, BASELINE_RESIDUAL_BOUND_PN,
                     LAMBDA_BRACKET, ConstraintGeometry, allowed_lambda_boundary,
                     alpha_lower_limit)


def _fmt(value, spec=".9e", missing="") -> str:
    """One output cell: a float in `spec` (machine format: 10 significant
    digits), an integer or a string as it is, `missing` for None."""
    if value is None:
        return missing
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:{spec}}"


#: one-line C encoders for json.dumps(..., indent=2, sort_keys=True)'s
#: items at depth 2 and 3: json takes its pure-Python encoder whenever
#: `indent` is set, and that one leaves its closures to the collector
_ITEMS_2 = json.JSONEncoder(separators=(",\n    ", ": "), sort_keys=True).encode
_ITEMS_3 = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _render(columns, rows, summary, fmt):
    if fmt == "json":
        # json.dumps({"columns", "rows", "summary"}, indent=2,
        # sort_keys=True) byte for byte.  All rows go through one encoder
        # call and the row brackets are spliced in after: a cell is a
        # number or None, so no "]" or "[" appears inside one
        table = _ITEMS_3(rows).replace("],\n      [", "\n    ],\n    [\n      ")
        table = f"[\n    [\n      {table[2:-2]}\n    ]\n  ]" if rows else "[]"
        text = f'{{\n  "columns": [\n    {_ITEMS_2(columns)[1:-1]}\n  ],\n  "rows": {table}'
        if summary:
            text += f',\n  "summary": {{\n    {_ITEMS_2(summary)[1:-1]}\n  }}'
        return text + "\n}\n"
    if fmt == "table":
        width = max(len(name) for name in (*columns, *(summary or {})))
        lines = []
        for row in rows:
            for name, value in zip(columns, row):
                lines.append(f"{name:<{width}}  {_fmt(value, '.4g', '-')}")
        for key, value in (summary or {}).items():
            lines.append(f"{key:<{width}}  {_fmt(value, '.4g', '-')}")
        return "\n".join(lines) + "\n"
    # csv
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    for key, value in (summary or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def _emit(args, columns, rows, summary=None, default_fmt="csv"):
    fmt = args.output or default_fmt
    text = _render(columns, rows, summary, fmt)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_config(args):
    if not args.config:
        raise ConfigError("this command needs --config <file>")
    return load_run_config(args.config)


def _typed(*values) -> str:
    """Flag values as typed: each as the shortest %g text that reads back
    as it (a nan as nan)."""
    return " ".join(min((t for p in range(1, 18) if float(t := f"{x:.{p}g}") == x),
                        key=len, default="nan") for x in values)


def _require_positive(flag, value, wanted, finite=True):
    """A flag's value must be positive, and finite unless `finite` is
    False; anything else is an input error naming the flag and the value
    as typed."""
    if not (value > 0 and (value < math.inf or not finite)):
        raise ConfigError(f"{flag} needs {wanted}, got {_typed(value)}")


def _metres(flag, nm, bounds=(sys.float_info.min, sys.float_info.max), what="length"):
    """The positive lengths `nm` that `flag` gives in nm, in m: every length
    flag is converted here, before any file is read.  Metres outside
    `bounds`, by default the normal floats, are an input error naming the
    flag and the value as typed: the least if it is below, else the
    greatest."""
    (low, high), metres = bounds, [x * 1e-9 for x in nm]
    if not low <= min(metres) <= max(metres) <= high:
        x = min(nm) if min(metres) < low else max(nm)
        raise ConfigError(f"{flag} {_typed(x)} nm: {what} {x * 1e-9:.4g} m is "
                          f"outside [{low:g}, {high:g}] m")
    return metres


def cmd_fit_drude(args) -> int:
    fit_range = _grid_bounds("--range", *args.range)
    if args.fixed_omega_p is not None:
        _require_positive("--fixed-omega-p", args.fixed_omega_p,
                          "a finite positive frequency [rad/s]")
    if args.dataset:
        ds = load_dataset(resolve_data_path(args.dataset))
    else:
        cfg = _require_config(args)
        ds = cfg.load_dataset()
        if ds is None:
            raise ConfigError("config declares no dataset to fit")
    fit = fit_drude(ds, fit_range, omega_p_fixed=args.fixed_omega_p)
    p = fit.parameters
    columns = ("omega_p_1e16_s", "omega_tau_1e13_s", "rho_micro_ohm_cm",
               "rms_log_residual", "n_points")
    rows = [(p.omega_p / 1e16, p.omega_tau / 1e13, resistivity(p),
             fit.rms_log_residual, fit.n_points)]
    _emit(args, columns, rows, default_fmt="table")
    return 0


def _require_temperature(cfg, command):
    """A finite-T command needs T > 0 (at T = 0 it would repeat the zero-T
    force): fail before the dielectric model is built."""
    if cfg.temperature == 0:
        raise ConfigError(f"{command} needs [thermal] temperature > 0, the "
                          f"config sets 0; the zero-temperature force is "
                          f"'force --mode zero_T'")


def _grid_bounds(flag, lo, hi, *n):
    """(LO, HI) of a range option, and N of a grid option, checked: finite
    0 < LO < HI and an integral N >= 2."""
    if not (0 < lo < hi < math.inf and all(k >= 2 and float(k).is_integer() for k in n)):
        count = " and an integral N >= 2" if n else ""
        raise ConfigError(f"{flag} needs finite 0 < LO < HI{count}, got "
                          f"{_typed(lo, hi, *n)}")
    return (lo, hi, *map(int, n))


def _allocated(flag, typed, spacing, *bounds):
    """spacing(*bounds), the grid that `flag` asks for: one too large to
    allocate (numpy raises MemoryError, or ValueError past its maximum
    size) is an input error naming the flag and the values `typed`."""
    try:
        return spacing(*bounds)
    except (MemoryError, ValueError):
        raise ConfigError(f"{flag} {_typed(*typed)}: the grid is too large to "
                          f"allocate") from None


def _grid(args, name, spacing):
    """The values of the grid `name`, as Python floats: its point `--NAME`,
    which must be finite and positive, or its range `--NAME-range LO HI N`,
    checked by `_grid_bounds` and spread by `spacing(LO, HI, N)`.  Commands
    read their grid before the config, so a bad one fails first."""
    point, bounds = getattr(args, name), getattr(args, f"{name}_range")
    if point is not None:
        _require_positive(f"--{name}", point, "a finite positive value")
        return [point]
    flag = f"--{name}-range"
    return _allocated(flag, bounds, spacing, *_grid_bounds(flag, *bounds)).tolist()


def cmd_epsilon(args) -> int:
    zetas = np.array(_grid(args, "zeta", lambda lo, hi, n: np.logspace(
        math.log10(lo), math.log10(hi), n)))
    dec = _require_config(args).build_evaluator().decompose(zetas)
    rows = list(zip(zetas, dec.eps1, dec.eps2_part, dec.eps3_part, dec.total))
    _emit(args, ("zeta_rad_s", "eps1", "eps2_part", "eps3_part", "total"), rows)
    return 0


def cmd_force(args) -> int:
    separations = _metres("--a" if args.a_range is None else "--a-range",
                          _grid(args, "a", np.linspace), _A_RANGE, "separation")
    cfg = _require_config(args)
    if args.mode != "zero_T":
        _require_temperature(cfg, f"force --mode {args.mode}")
    eps = cfg.build_evaluator().epsilon
    temperatures = {"finite_T": (cfg.temperature,), "zero_T": (0.0,),
                    "both": (cfg.temperature, 0.0)}[args.mode]
    # one call site for every temperature: an R/a warning shows once
    scans = [force_scan(cfg.sphere_radius, separations, t, eps, cfg.prescription)
             for t in temperatures]
    force = [r.total for r in scans[0]]
    n0 = dtf = [None] * len(separations)
    if args.mode != "zero_T":
        n0 = [r.n0_term for r in scans[0]]
    if args.mode == "both":
        dtf = [f - z.total for f, z in zip(force, scans[1])]
    rows = []
    for a, f, n, d in zip(separations, force, n0, dtf):
        ideal = ideal_force(cfg.sphere_radius, a)    # 0 at a radius of 5e-324 m
        eta = f / ideal if ideal else math.inf
        if not abs(eta) < math.inf:
            raise DomainError(f"eta = F / ideal force at a = {a * 1e9:.6g} nm overflows "
                              f"(ideal force {ideal:.3g} pN)")
        rows.append((a * 1e9, f, n, d, eta))
    _emit(args, ("a_nm", "F_pN", "n0_pN", "dTF_pN", "eta"), rows)
    return 0


def cmd_residuals(args) -> int:
    cfg = _require_config(args)
    _require_temperature(cfg, "residuals")
    if not args.a_min <= args.a_max:
        raise ConfigError(f"--a-min/--a-max need A_MIN <= A_MAX [nm], got "
                          f"{_typed(args.a_min, args.a_max)}")
    records = [r for r in load_experiment(resolve_data_path(args.experiment))
               if args.a_min * 1e-9 <= r.separation <= args.a_max * 1e-9]
    if not records:
        raise ConfigError("no experiment records in the requested range")
    scan = force_scan(cfg.sphere_radius, [r.separation for r in records],
                      cfg.temperature, cfg.build_evaluator().epsilon,
                      cfg.prescription)
    report = residual_report(records, [r.total for r in scan])
    rows = [(r.separation * 1e9, r.force_measured, r.force_theory, r.delta_f,
             r.sigma_ratio) for r in report.rows]
    summary = {"rms_pN": report.rms_deviation,
               "max_sigma_exceedance": report.max_sigma_exceedance,
               "n_rows": len(rows)}
    _emit(args, ("a_nm", "F_exp_pN", "F_theor_pN", "dF_pN", "dF_over_sigma"),
          rows, summary)
    if args.plot_out:
        lines = [f"{_fmt(r[0])} {_fmt(r[3])}" for r in rows]
        Path(args.plot_out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_yukawa_limit(args) -> int:
    _require_positive("--residual-bound", args.residual_bound,
                      "a finite positive force [pN]")
    _require_positive("--alpha-ceiling", args.alpha_ceiling,
                      "a positive coupling", finite=False)
    geom = ConstraintGeometry()
    for flag, field, length in (("--separation", "separation_min", args.separation),
                                ("--film-thickness", "film_thickness", args.film_thickness)):
        if length is not None:
            _require_positive(flag, length, "a finite positive length [nm]")
            geom = geom._replace(**{field: _metres(flag, [length])[0]})
    flag = "--lambda-min/--lambda-max/--points"
    typed = (args.lambda_min, args.lambda_max, args.points)
    lo, hi, n = _grid_bounds(flag, *typed)
    lo, hi = _metres("--lambda-min/--lambda-max", [lo, hi])
    grid = _allocated(flag, typed, np.logspace, math.log10(lo), math.log10(hi), n)
    rows = [(lam * 1e9, alpha_lower_limit(float(lam), geom, args.residual_bound))
            for lam in grid]
    summary = {}
    try:
        boundary = allowed_lambda_boundary(geom, args.alpha_ceiling,
                                           args.residual_bound)
        summary["lambda_star_nm"] = boundary.lambda_star * 1e9
        summary["boson_mass_ev"] = boundary.boson_mass_ev
    except ConvergenceError:
        if (alpha_lower_limit(LAMBDA_BRACKET[0], geom, args.residual_bound)
                < args.alpha_ceiling):
            summary["status"] = "unconstrained: limit below ceiling over the whole bracket"
        else:
            summary["status"] = "excluded: limit above ceiling over the whole bracket"
    _emit(args, ("lambda_nm", "alpha_min"), rows, summary)
    return 0


def _add_grid(parser, name, unit, spacing):
    """Declare the grid `name` of a command: `--NAME X` or `--NAME-range LO
    HI N`, exactly one of them (else argparse's usage error naming both)."""
    grid = parser.add_mutually_exclusive_group(required=True)
    grid.add_argument(f"--{name}", type=float, help=f"single {name} [{unit}]")
    grid.add_argument(f"--{name}-range", nargs=3, type=float, metavar=("LO", "HI", "N"),
                      help=f"{spacing} {name} grid [{unit}]")


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("csv", "json", "table"),
                        help="output format (default csv; fit-drude: table)")
    output.add_argument("--out", help="write output to this file instead of stdout")
    # yukawa-limit reads no config, so it takes `output` alone
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--config", help="run configuration file (INI)")

    parser = argparse.ArgumentParser(
        prog="aucasimir",
        description="Casimir force between gold surfaces and residual-force "
                    "analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-drude", parents=[common],
                       help="fit Drude parameters to optical data")
    p.add_argument("--dataset", help="optical data file (else from config)")
    p.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"),
                   required=True, help="fit range in rad/s")
    p.add_argument("--fixed-omega-p", type=float, default=None,
                   help="hold the plasma frequency fixed [rad/s]")
    p.set_defaults(func=cmd_fit_drude)

    p = sub.add_parser("epsilon", parents=[common],
                       help="eps(i zeta) table with decomposition")
    _add_grid(p, "zeta", "rad/s", "log-spaced")
    p.set_defaults(func=cmd_epsilon)

    p = sub.add_parser("force", parents=[common],
                       help="sphere-plate force table")
    _add_grid(p, "a", "nm", "linear")
    p.add_argument("--mode", choices=("finite_T", "zero_T", "both"),
                   default="finite_T")
    p.set_defaults(func=cmd_force)

    p = sub.add_parser("residuals", parents=[common],
                       help="experiment-theory residual report")
    p.add_argument("--experiment", required=True,
                   help="experiment CSV (a_nm, F_pN, sigma_pN)")
    p.add_argument("--a-min", type=float, default=0.0, help="lowest separation [nm]")
    p.add_argument("--a-max", type=float, default=math.inf, help="highest separation [nm]")
    p.add_argument("--plot-out", help="also write two-column (a_nm, dF_pN) file")
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("yukawa-limit", parents=[output],
                       help="Yukawa coupling lower limit vs wavelength")
    p.add_argument("--residual-bound", type=float, default=BASELINE_RESIDUAL_BOUND_PN,
                   help=f"residual force floor [pN] (default "
                        f"{BASELINE_RESIDUAL_BOUND_PN:g})")
    p.add_argument("--alpha-ceiling", type=float, default=ASTRO_ALPHA_CEILING,
                   help="astrophysical ceiling on alpha")
    p.add_argument("--separation", type=float, help="minimal separation [nm]")
    p.add_argument("--film-thickness", type=float, help="gold film thickness [nm]")
    p.add_argument("--lambda-min", type=float, default=10.0,
                   help="grid low edge [nm]")
    p.add_argument("--lambda-max", type=float, default=1000.0,
                   help="grid high edge [nm]")
    p.add_argument("--points", type=int, default=30, help="grid size")
    p.set_defaults(func=cmd_yukawa_limit)
    return parser


# built once, at import: argparse's first build imports `locale` (through
# gettext), which would otherwise load inside the first command
_PARSER = build_parser()


def main(argv=None) -> int:
    # a command makes no reference cycles, so a collection inside it would
    # only scan live objects: the collector is off for the command and then
    # as it was
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (ConvergenceError, DomainError, ArithmeticError, RuntimeError) as exc:
        print(f"aucasimir: compute error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # numpy's own wording ("Unable to allocate ...") names an array, not
        # what the command was asked for
        print("aucasimir: compute error: out of memory", file=sys.stderr)
        return 1
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"aucasimir: error: {exc}", file=sys.stderr)
        return 2
    finally:
        (gc.enable if enabled else gc.disable)()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
