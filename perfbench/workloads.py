"""Seeded inputs for the four benchmark workloads and the checks on their outputs.

Every value a workload hands the program is drawn from a fixed lattice
(whole or half nanometres, twentieths of a decade in zeta, the CLI's default
lambda grid), so `reference.json`, written by `make_reference.py`, holds the
expected output of every seed.  On top of the reference comparison each
output is checked against physical invariants that hold for any input.

A workload is a list of steps run one after another in one fresh process
(closed loop, one client).  A step is one CLI command or one library call
of the residual chain; it is the unit counted as attempted or failed.
"""

from __future__ import annotations

import functools
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
TABULATED_CONFIG = ROOT / "src" / "aucasimir" / "data" / "sample_config.ini"
DRUDE_CONFIG = BENCH_DIR / "drude_config.ini"
DATASET = ROOT / "src" / "aucasimir" / "data" / "gold_synthetic.csv"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("tabulated_scan", "drude_scan", "residual_chain", "epsilon_table")

# tabulated_scan: 63 nm plus one far separation.  The far one is kept in
# 150-200 nm so that the Matsubara term count of a run (and so its cost)
# changes by a few percent between seeds, not by a factor of two.
TAB_ANCHOR_NM = 63.0
TAB_FAR_NM = tuple(float(a) for a in range(150, 201))

# drude_scan and residual_chain separations: half nanometres in 60-200 nm
DRUDE_LATTICE_NM = tuple(60.0 + 0.5 * k for k in range(281))
DRUDE_SCAN_POINTS = 8

RESIDUAL_ROWS = 100
RESIDUAL_NOISE = 0.01          # sigma as a share of the synthetic curve
CONFIDENCE_SIGMAS = 2.0
SPHERE_RADIUS_M = 95.65e-6     # as in both configs
ORACLE_ALPHA = 1e-24
ORACLE_LAMBDAS = 3
ORACLE_RANGE_NM = (20.0, 100.0)  # where the oracle meets the closed form within the band
ORACLE_BAND = 0.25               # the band tests/test_yukawa.py uses

# epsilon_table: 41 zeta values two lattice steps (a tenth of a decade) apart
ZETA_LATTICE_STEPS = 20        # per decade
ZETA_LATTICE = (13.0, 18.0)    # log10 range of the reference table
EPS_POINTS = 41
EPS_STRIDE = 2

REL_TOL = 1e-6                 # allowed deviation from the reference values
EXACT_TOL = 1e-12              # identities the program computes exactly
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
HC_EV_NM = 1239.841984332003   # h c in eV nm


def ideal_force_pn(a_nm: float) -> float:
    """Perfect-conductor sphere-plate force pi^3 hbar c R / (360 a^3), in pN."""
    a = a_nm * 1e-9
    return math.pi**3 * HBAR * C_LIGHT / 360.0 * SPHERE_RADIUS_M / a**3 * 1e12


def zeta_lattice() -> list[float]:
    lo, hi = ZETA_LATTICE
    n = int(round((hi - lo) * ZETA_LATTICE_STEPS)) + 1
    return [10.0 ** (lo + m / ZETA_LATTICE_STEPS) for m in range(n)]


# ---------------------------------------------------------------- generation

def make(workload: str, seed: int, work_dir: Path) -> dict:
    """Inputs of one workload for one seed: child steps and what to expect.

    Writes the input files the steps name into `work_dir`.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, work_dir)


def _cli(step_id: str, *argv: str) -> dict:
    return {"id": step_id, "kind": "cli", "argv": list(argv) + ["--output", "json"]}


def _make_tabulated(rng, work_dir):
    far = rng.choice(TAB_FAR_NM)
    steps = [_cli("force", "force", "--config", str(TABULATED_CONFIG),
                  "--mode", "finite_T", "--a-range", repr(TAB_ANCHOR_NM), repr(far), "2")]
    return {"steps": steps, "expect": {"a_nm": [TAB_ANCHOR_NM, far]}}


def _make_drude(rng, work_dir):
    lo = rng.choice(DRUDE_LATTICE_NM[:41])                     # 60-80 nm
    span = DRUDE_SCAN_POINTS - 1
    stride = rng.randint(30, min(40, int((200.0 - lo) / (0.5 * span))))
    hi = lo + 0.5 * stride * span                              # 165-200 nm
    steps = [_cli("force", "force", "--config", str(DRUDE_CONFIG),
                  "--mode", "both", "--a-range", repr(lo), repr(hi),
                  str(DRUDE_SCAN_POINTS))]
    a_nm = [lo + 0.5 * stride * j for j in range(DRUDE_SCAN_POINTS)]
    return {"steps": steps, "expect": {"a_nm": a_nm}}


def _make_residual(rng, work_dir):
    rows = []
    for _ in range(RESIDUAL_ROWS):
        a = rng.choice(DRUDE_LATTICE_NM)
        curve = ideal_force_pn(a)
        z = max(-3.0, min(3.0, rng.gauss(0.0, 1.0)))
        rows.append((a, curve * (1.0 + RESIDUAL_NOISE * z), curve * RESIDUAL_NOISE))
    csv = work_dir / "experiment.csv"
    csv.write_text("# columns=a_nm,F_pN,sigma_pN\n"
                   + "".join(f"{a!r},{f!r},{s!r}\n" for a, f, s in rows))
    rows.sort(key=lambda r: r[0])     # the program sorts stably by separation
    grid = _lambda_grid_nm()
    inside = [lam for lam in grid if ORACLE_RANGE_NM[0] <= lam <= ORACLE_RANGE_NM[1]]
    lambdas = sorted(rng.sample(inside, ORACLE_LAMBDAS))
    steps = [
        _cli("residuals", "residuals", "--config", str(DRUDE_CONFIG),
             "--experiment", str(csv)),
        {"id": "floor", "kind": "floor", "source": "residuals",
         "sigma": rows[0][2], "confidence_sigmas": CONFIDENCE_SIGMAS},
        _cli("yukawa", "yukawa-limit", "--residual-bound", "{floor}"),
        {"id": "oracle", "kind": "oracle", "alpha": ORACLE_ALPHA,
         "lambdas_nm": lambdas, "sphere_radius_m": SPHERE_RADIUS_M},
    ]
    return {"steps": steps, "expect": {"rows": rows, "lambdas_nm": lambdas}}


def _lambda_grid_nm() -> list[float]:
    """The CLI's default yukawa-limit grid (10-1000 nm, 30 points), from the reference."""
    return [row[0] for row in load_reference()["alpha_bound10"]]


def _make_epsilon(rng, work_dir):
    first = rng.randint(0, ZETA_LATTICE_STEPS)                  # 1e13-1e14
    last = first + EPS_STRIDE * (EPS_POINTS - 1)
    lo = 10.0 ** (ZETA_LATTICE[0] + first / ZETA_LATTICE_STEPS)
    hi = 10.0 ** (ZETA_LATTICE[0] + last / ZETA_LATTICE_STEPS)
    steps = [_cli("epsilon", "epsilon", "--config", str(TABULATED_CONFIG),
                  "--zeta-range", repr(lo), repr(hi), str(EPS_POINTS))]
    return {"steps": steps,
            "expect": {"lattice": list(range(first, last + 1, EPS_STRIDE))}}


_MAKERS = {"tabulated_scan": _make_tabulated, "drude_scan": _make_drude,
           "residual_chain": _make_residual, "epsilon_table": _make_epsilon}


# ---------------------------------------------------------------- checks

@functools.cache
def load_reference() -> dict:
    """reference.json, read once; callers only read it."""
    return json.loads(REFERENCE.read_text())


class Check:
    """Collects the problems and the reference deviations of one step."""

    def __init__(self):
        self.problems: list[str] = []
        self.max_rel_dev = 0.0

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def close(self, value: float, expected: float, what: str, tol: float,
              scale: float | None = None) -> float:
        """|value - expected| relative to |expected| (or to `scale`) must stay within tol."""
        dev = abs(value - expected) / abs(scale if scale is not None else expected)
        self.require(dev <= tol, f"{what}: {value!r} vs {expected!r} (rel dev {dev:.3g})")
        return dev

    def reference(self, value: float, ref: float, what: str, scale: float | None = None):
        """A value against reference.json; counts towards max_rel_dev."""
        dev = self.close(value, ref, what, REL_TOL, scale)
        self.max_rel_dev = max(self.max_rel_dev, dev)


def table(stdout: str) -> tuple[list[dict], dict]:
    """Rows of a CLI --output json table as dicts, plus its summary."""
    payload = json.loads(stdout)
    cols = payload["columns"]
    return [dict(zip(cols, row)) for row in payload["rows"]], payload.get("summary", {})


def check_step(workload: str, step: dict, rec: dict, expect: dict,
               outputs: dict) -> Check:
    """Check one step's output; `outputs` maps earlier step ids to their output."""
    chk = Check()
    if rec.get("error") is not None or rec.get("rc") not in (0, None):
        chk.require(False, f"{step['id']}: rc={rec.get('rc')} error={rec.get('error')} "
                           f"stderr={rec.get('stderr', '')[-300:]!r}")
        return chk
    try:
        _CHECKS[(workload, step["id"])](chk, rec, expect, outputs)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        chk.require(False, f"{step['id']}: output not usable: {exc!r}")
    return chk


def _ref_row(ref_table: dict, a_nm: float, chk: Check) -> dict:
    key = repr(round(a_nm * 2.0) / 2.0)
    chk.require(abs(float(key) - a_nm) <= 1e-9, f"separation {a_nm!r} not on the lattice")
    return ref_table[key]


def _force_rows(chk: Check, rows: list[dict], a_expected: list[float], ref_table: dict,
                both: bool):
    chk.require(len(rows) == len(a_expected), f"{len(rows)} rows, expected {len(a_expected)}")
    for row, a in zip(rows, a_expected):
        chk.require(abs(row["a_nm"] - a) <= 1e-9 * a, f"a_nm {row['a_nm']!r} != {a!r}")
        f, eta = row["F_pN"], row["eta"]
        chk.require(f > 0, f"F <= 0 at {a} nm")
        chk.require(0.0 < eta < 1.0, f"eta={eta} outside (0, 1) at {a} nm")
        chk.close(eta * ideal_force_pn(row["a_nm"]), f, f"eta x ideal force = F at {a} nm", 1e-9)
        ref = _ref_row(ref_table, a, chk)
        chk.reference(f, ref["F_pN"], f"F at {a} nm")
        chk.reference(row["n0_pN"], ref["n0_pN"], f"n0 at {a} nm")
        chk.reference(eta, ref["eta"], f"eta at {a} nm")
        if both:
            chk.require(row["dTF_pN"] > 0, f"dTF <= 0 at {a} nm")
            # a difference of two forces is as accurate as the forces
            chk.reference(row["dTF_pN"], ref["dTF_pN"], f"dTF at {a} nm", scale=ref["F_pN"])
    forces = [r["F_pN"] for r in rows]
    chk.require(all(x > y for x, y in zip(forces, forces[1:])), "F not decreasing in a")


def _check_tabulated_force(chk, rec, expect, outputs):
    rows, _ = table(rec["stdout"])
    _force_rows(chk, rows, expect["a_nm"], load_reference()["tabulated_finite_T"], False)


def _check_drude_force(chk, rec, expect, outputs):
    rows, _ = table(rec["stdout"])
    _force_rows(chk, rows, expect["a_nm"], load_reference()["drude_both"], True)


def _check_residuals(chk, rec, expect, outputs):
    rows, summary = table(rec["stdout"])
    exp_rows = expect["rows"]
    ref = load_reference()["drude_both"]
    chk.require(len(rows) == len(exp_rows), f"{len(rows)} rows, expected {len(exp_rows)}")
    for row, (a, f_exp, sigma) in zip(rows, exp_rows):
        chk.require(abs(row["a_nm"] - a) <= 1e-9 * a, f"a_nm {row['a_nm']!r} != {a!r}")
        chk.require(row["F_exp_pN"] == f_exp, f"F_exp {row['F_exp_pN']!r} != {f_exp!r}")
        f_th, d_f = row["F_theor_pN"], row["dF_pN"]
        chk.require(f_th > 0, f"F_theor <= 0 at {a} nm")
        chk.close(d_f, f_exp - f_th, f"dF = F_exp - F_theor at {a} nm", EXACT_TOL, f_exp)
        chk.close(row["dF_over_sigma"], d_f / sigma, f"dF/sigma at {a} nm", 1e-9)
        chk.reference(f_th, _ref_row(ref, a, chk)["F_pN"], f"F_theor at {a} nm")
    pairs = [(r["a_nm"], r["F_theor_pN"]) for r in rows]
    chk.require(all(fa > fb for (aa, fa), (ab, fb) in zip(pairs, pairs[1:]) if ab > aa),
                "F_theor not decreasing in a")
    rms = math.sqrt(sum(r["dF_pN"] ** 2 for r in rows) / len(rows))
    chk.close(summary["rms_pN"], rms, "rms_pN", 1e-9)


def _check_floor(chk, rec, expect, outputs):
    rows, _ = table(outputs["residuals"]["stdout"])
    d_f, sigma = rows[0]["dF_pN"], expect["rows"][0][2]
    floor = rec["value"]
    chk.require(floor > 0, f"residual floor {floor} not positive")
    chk.close(floor, max(0.0, d_f - CONFIDENCE_SIGMAS * sigma), "residual floor", EXACT_TOL)


def _check_yukawa(chk, rec, expect, outputs):
    rows, summary = table(rec["stdout"])
    floor = outputs["floor"]["value"]
    ref = load_reference()["alpha_bound10"]
    chk.require(len(rows) == len(ref), f"{len(rows)} lambda rows, expected {len(ref)}")
    for row, (lam, alpha10) in zip(rows, ref):
        chk.require(abs(row["lambda_nm"] - lam) <= 1e-9 * lam, f"lambda {row['lambda_nm']!r}")
        chk.require(row["alpha_min"] > 0, f"alpha_min <= 0 at {lam} nm")
        chk.reference(row["alpha_min"], alpha10 * floor / 10.0, f"alpha_min at {lam:.4g} nm")
    if "lambda_star_nm" in summary:
        lam_star = summary["lambda_star_nm"]
        chk.require(5.0 <= lam_star <= 500.0, f"lambda_star {lam_star} outside the bracket")
        chk.close(summary["boson_mass_ev"] * lam_star, HC_EV_NM, "boson mass x lambda_star", 1e-6)
    else:
        chk.require("status" in summary, "neither lambda_star nor status reported")


def _check_oracle(chk, rec, expect, outputs):
    forces = rec["value"]
    ref = dict((round(lam, 6), f) for lam, f in load_reference()["oracle_alpha1e-24"])
    rows, _ = table(outputs["yukawa"]["stdout"])
    alpha_cli = {round(r["lambda_nm"], 6): r["alpha_min"] for r in rows}
    floor = outputs["floor"]["value"]
    chk.require(len(forces) == len(expect["lambdas_nm"]), "oracle forces missing")
    for lam, f in zip(expect["lambdas_nm"], forces):
        key = round(lam, 6)
        chk.require(f > 0, f"oracle force <= 0 at {lam:.4g} nm")
        chk.reference(f, ref[key], f"oracle force at {lam:.4g} nm")
        alpha_star = ORACLE_ALPHA * floor / f
        chk.close(alpha_star, alpha_cli[key], f"oracle alpha vs alpha_min at {lam:.4g} nm",
                  ORACLE_BAND)


def _check_epsilon(chk, rec, expect, outputs):
    rows, _ = table(rec["stdout"])
    ref = load_reference()["epsilon"]
    lattice = expect["lattice"]
    chk.require(len(rows) == len(lattice), f"{len(rows)} rows, expected {len(lattice)}")
    for row, m in zip(rows, lattice):
        zeta, total = row["zeta_rad_s"], row["total"]
        ref_row = dict(zip(("zeta_rad_s", "eps1", "eps2_part", "eps3_part", "total"), ref[m]))
        chk.require(abs(zeta - ref_row["zeta_rad_s"]) <= 1e-9 * zeta,
                    f"zeta {zeta!r} not on the lattice")
        parts = (row["eps1"], row["eps2_part"], row["eps3_part"])
        chk.require(all(p > 0 for p in parts), f"non-positive eps part at zeta={zeta:.4g}")
        chk.close(total, 1.0 + sum(parts), f"eps total = 1 + parts at zeta={zeta:.4g}",
                  EXACT_TOL)
        for name in ("eps1", "eps2_part", "eps3_part", "total"):
            chk.reference(row[name], ref_row[name], f"{name} at zeta={zeta:.4g}")
    totals = [r["total"] for r in rows]
    chk.require(all(x > y for x, y in zip(totals, totals[1:])), "eps not decreasing in zeta")


_CHECKS = {
    ("tabulated_scan", "force"): _check_tabulated_force,
    ("drude_scan", "force"): _check_drude_force,
    ("residual_chain", "residuals"): _check_residuals,
    ("residual_chain", "floor"): _check_floor,
    ("residual_chain", "yukawa"): _check_yukawa,
    ("residual_chain", "oracle"): _check_oracle,
    ("epsilon_table", "epsilon"): _check_epsilon,
}
