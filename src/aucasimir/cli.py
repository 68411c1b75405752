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
from .lifshitz import force_scan, ideal_force
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


def _require_positive(flag, value, wanted, scale=1.0, finite=True):
    """A flag's value must be positive, and finite unless `finite` is
    False; anything else is an input error naming the flag and the value
    as typed (value * scale, where argparse converted it)."""
    if not (value > 0 and (value < math.inf or not finite)):
        raise ConfigError(f"{flag} needs {wanted}, got {value * scale:g}")


def cmd_fit_drude(args) -> int:
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
    fit = fit_drude(ds, (args.range[0], args.range[1]),
                    omega_p_fixed=args.fixed_omega_p)
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


def _grid_bounds(flag, lo, hi, n):
    """(LO, HI, N) of a grid option, checked: finite 0 < LO < HI and an
    integral N >= 2."""
    if not (0 < lo < hi < math.inf and n >= 2 and float(n).is_integer()):
        raise ConfigError(f"{flag} needs finite 0 < LO < HI and an integral "
                          f"N >= 2, got {lo:g} {hi:g} {n:g}")
    return lo, hi, int(n)


def _zeta_grid(args):
    if args.zeta is not None:
        return [args.zeta]
    if args.zeta_range is None:
        raise ConfigError("epsilon needs --zeta or --zeta-range LO HI N")
    lo, hi, n = _grid_bounds("--zeta-range", *args.zeta_range)
    return list(np.logspace(math.log10(lo), math.log10(hi), n))


def cmd_epsilon(args) -> int:
    cfg = _require_config(args)
    zetas = np.array(_zeta_grid(args))
    dec = cfg.build_evaluator().decompose(zetas)
    rows = list(zip(zetas, dec.eps1, dec.eps2_part, dec.eps3_part, dec.total))
    _emit(args, ("zeta_rad_s", "eps1", "eps2_part", "eps3_part", "total"), rows)
    return 0


def _separations_m(args):
    if args.a is not None:
        return [args.a * 1e-9]
    if args.a_range is None:
        raise ConfigError("force needs --a NM or --a-range LO_NM HI_NM N")
    lo, hi, n = _grid_bounds("--a-range", *args.a_range)
    return [a * 1e-9 for a in np.linspace(lo, hi, n)]


def cmd_force(args) -> int:
    cfg = _require_config(args)
    if args.mode != "zero_T":
        _require_temperature(cfg, f"force --mode {args.mode}")
    eps = cfg.build_evaluator().epsilon
    separations = _separations_m(args)
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
    rows = [(a * 1e9, f, n, d, f / ideal_force(cfg.sphere_radius, a))
            for a, f, n, d in zip(separations, force, n0, dtf)]
    for row in rows:
        if not abs(row[4]) < math.inf:
            raise DomainError(f"eta = F / ideal force at a = {row[0]:.6g} nm overflows")
    _emit(args, ("a_nm", "F_pN", "n0_pN", "dTF_pN", "eta"), rows)
    return 0


def cmd_residuals(args) -> int:
    cfg = _require_config(args)
    _require_temperature(cfg, "residuals")
    if not args.a_min <= args.a_max:
        raise ConfigError(f"--a-min/--a-max need A_MIN <= A_MAX [nm], got "
                          f"{args.a_min:g} {args.a_max:g}")
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
    for flag, length in (("--separation", args.separation),
                         ("--film-thickness", args.film_thickness)):
        _require_positive(flag, length, "a finite positive length [nm]", 1e9)
    geom = ConstraintGeometry(args.separation, args.film_thickness)
    lo, hi, n = _grid_bounds("--lambda-min/--lambda-max/--points",
                             args.lambda_min, args.lambda_max, args.points)
    grid = np.logspace(math.log10(lo * 1e-9), math.log10(hi * 1e-9), n)
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


def length_nm(text: str) -> float:
    """A length given in nm, in m.  argparse converts only a flag's text, so
    a default in m is used as it is."""
    return float(text) * 1e-9


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
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--zeta", type=float, help="single zeta [rad/s]")
    grid.add_argument("--zeta-range", nargs=3, type=float, metavar=("LO", "HI", "N"),
                      help="log-spaced zeta grid [rad/s]")
    p.set_defaults(func=cmd_epsilon)

    p = sub.add_parser("force", parents=[common],
                       help="sphere-plate force table")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--a", type=float, help="separation [nm]")
    grid.add_argument("--a-range", nargs=3, type=float, metavar=("LO", "HI", "N"),
                      help="linear separation grid [nm]")
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
    geom = ConstraintGeometry()
    p.add_argument("--residual-bound", type=float, default=BASELINE_RESIDUAL_BOUND_PN,
                   help=f"residual force floor [pN] (default "
                        f"{BASELINE_RESIDUAL_BOUND_PN:g})")
    p.add_argument("--alpha-ceiling", type=float, default=ASTRO_ALPHA_CEILING,
                   help="astrophysical ceiling on alpha")
    p.add_argument("--separation", type=length_nm, default=geom.separation_min,
                   help="minimal separation [nm]")
    p.add_argument("--film-thickness", type=length_nm, default=geom.film_thickness,
                   help="gold film thickness [nm]")
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
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"aucasimir: error: {exc}", file=sys.stderr)
        return 2
    finally:
        (gc.enable if enabled else gc.disable)()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
