"""Write reference.json: the program's outputs on every lattice point a seed can draw.

Run from the repository root:

    python3 perfbench/make_reference.py

The values come from the CLI (`aucasimir.cli.main`, JSON output, so floats
keep all their digits) and from `yukawa_force_oracle`, called exactly as the
benchmark's steps call them.  Regenerate only when a change is meant to
move these numbers, and say so in its description.  The tabulated lattice
takes several minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

from aucasimir import cli  # noqa: E402
from aucasimir.yukawa import ConstraintGeometry, YukawaHypothesis, yukawa_force_oracle  # noqa: E402


def run(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv) + ["--output", "json"])
    if rc != 0:
        raise SystemExit(f"reference command failed ({rc}): {argv}")
    return json.loads(buf.getvalue())


def by_separation(payload: dict, keys: tuple[str, ...]) -> dict:
    cols = payload["columns"]
    out = {}
    for row in payload["rows"]:
        rec = dict(zip(cols, row))
        out[repr(round(rec["a_nm"] * 2.0) / 2.0)] = {k: rec[k] for k in keys}
    return out


def main() -> None:
    tab_cfg, drude_cfg = str(wl.TABULATED_CONFIG), str(wl.DRUDE_CONFIG)
    far = wl.TAB_FAR_NM
    tabulated = by_separation(
        run("force", "--config", tab_cfg, "--mode", "finite_T", "--a", repr(wl.TAB_ANCHOR_NM)),
        ("F_pN", "n0_pN", "eta"))
    tabulated.update(by_separation(
        run("force", "--config", tab_cfg, "--mode", "finite_T",
            "--a-range", repr(far[0]), repr(far[-1]), str(len(far))),
        ("F_pN", "n0_pN", "eta")))
    lattice = wl.DRUDE_LATTICE_NM
    drude = by_separation(
        run("force", "--config", drude_cfg, "--mode", "both",
            "--a-range", repr(lattice[0]), repr(lattice[-1]), str(len(lattice))),
        ("F_pN", "n0_pN", "dTF_pN", "eta"))
    zetas = wl.zeta_lattice()
    epsilon = run("epsilon", "--config", tab_cfg,
                  "--zeta-range", repr(zetas[0]), repr(zetas[-1]), str(len(zetas)))["rows"]
    alpha10 = run("yukawa-limit", "--residual-bound", "10")["rows"]
    lo, hi = wl.ORACLE_RANGE_NM
    oracle = [[lam, yukawa_force_oracle(YukawaHypothesis(wl.ORACLE_ALPHA, lam * 1e-9),
                                        ConstraintGeometry(), wl.SPHERE_RADIUS_M)]
              for lam, _ in alpha10 if lo <= lam <= hi]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, text=True,
                            capture_output=True).stdout.strip() or "unknown"
    reference = {
        "note": "outputs of the program at `commit` on every lattice point; "
                "made by perfbench/make_reference.py",
        "commit": commit,
        "tabulated_finite_T": tabulated,
        "drude_both": drude,
        "epsilon": epsilon,
        "alpha_bound10": alpha10,
        "oracle_alpha1e-24": oracle,
    }
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
