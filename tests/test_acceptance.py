"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) and then asserts.  Criterion 8 needs externally supplied
digitized handbook data and is skipped unless CASIMIR_HANDBOOK_DATA points
at the file(s); see the README for the procedure.
"""

import os

import numpy as np
import pytest
from scipy.constants import c, epsilon_0

from aucasimir import (DielectricModel, DrudeParameters, ExperimentRecord,
                       allowed_lambda_boundary, epsilon1_analytic, force_scan,
                       ideal_force, load_dataset, load_experiment,
                       residual_report, resistivity)
from aucasimir.config import package_data_dir
from aucasimir.optical import OMEGA0_DEFAULT

import lifshitz_oracle
from conftest import SINGLE_CRYSTAL, SPHERE_RADIUS


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_c1_resistivity_identity():
    rows = [((1.38e16, 5.38e13), 3.19),
            ((1.37e16, 4.06e13), 2.44),
            ((1.28e16, 3.29e13), 2.27)]
    values = [resistivity(DrudeParameters(*params)) for params, _ in rows]
    ok = all(abs(v / expected - 1) < 0.01
             for v, (_, expected) in zip(values, rows))
    report("C1 resistivity identity", ok,
           "rho = " + ", ".join(f"{v:.4f}" for v in values)
           + " vs 3.19/2.44/2.27 within 1%")


def test_c2_analytic_eps1_anchor():
    zeta = c / (2 * 63e-9)
    eps1 = epsilon1_analytic(DrudeParameters(1.38e16, 5.38e13),
                             OMEGA0_DEFAULT, zeta)
    ok = abs(eps1 - 26.6) <= 0.5
    report("C2 analytic eps1 anchor", ok, f"eps1 = {eps1:.3f} vs 26.6 +- 0.5")


def test_c3_temperature_correction_100nm(single_crystal):
    finite, zero = (force_scan(SPHERE_RADIUS, [100e-9], t,
                               single_crystal.epsilon)[0].total
                    for t in (300.0, 0.0))
    dtf = finite - zero
    ok = abs(dtf - 4.0) <= 1.0
    report("C3a temperature correction at 100 nm", ok,
           f"dTF = {dtf:.3f} pN vs 4 +- 1")


def test_c3_temperature_correction_60nm(single_crystal):
    # The published 14 pN is a round figure that the pinned inputs do not
    # give (12.41 pN; it needs R ~ 108 um, see notes/decisions.md).  The
    # reference is an independent k-space Lifshitz computation run here;
    # the paper's claim checked is that dTF exceeds the experimental error.
    finite, zero = (force_scan(SPHERE_RADIUS, [60e-9], t,
                               single_crystal.epsilon)[0].total
                    for t in (300.0, 0.0))
    dtf = finite - zero
    oracle, shift = lifshitz_oracle.temperature_correction(
        SPHERE_RADIUS, 60e-9, 300.0,
        lifshitz_oracle.drude_chi(*SINGLE_CRYSTAL))
    (point,) = load_experiment(package_data_dir() / "experiment_sample.csv")
    ok = (shift < 1e-6 and abs(dtf - oracle) <= 1e-3
          and dtf > 3.0 * point.sigma)
    report("C3b temperature correction at 60 nm", ok,
           f"dTF = {dtf:.5f} pN vs oracle {oracle:.5f} +- 1e-3 "
           f"(node-doubling shift {shift:.1e}), > 3 sigma = "
           f"{3.0 * point.sigma:.1f} pN; published 14")


def test_c4_perfect_conductor_limits(ideal_eps):
    finite, zero = (force_scan(SPHERE_RADIUS, [63e-9], t, ideal_eps)[0].total
                    for t in (300.0, 0.0))
    reference = ideal_force(SPHERE_RADIUS, 63e-9)
    rel_zero = abs(zero / reference - 1)
    rel_finite = abs(finite / reference - 1)
    ok = rel_zero < 1e-4 and rel_finite < 1.5e-2
    report("C4 perfect-conductor limits", ok,
           f"zero-T dev {rel_zero:.2e} < 1e-4, finite-T dev {rel_finite:.2e} < 1.5e-2")


def test_c5_kk_round_trip(row2, pure_drude_dataset):
    model = DielectricModel(row2, pure_drude_dataset, tail_exponent=3.0)
    worst = 0.0
    for zeta in np.logspace(14, 16, 9):
        closed = 1.0 + row2.omega_p**2 / (zeta * (zeta + row2.omega_tau))
        worst = max(worst, abs(model.epsilon(float(zeta)) / closed - 1))
    ok = worst < 5e-3
    report("C5 KK round trip", ok,
           f"worst deviation {worst:.2e} < 0.5% over zeta in [1e14, 1e16]")


def test_c6_yukawa_boundary():
    boundary = allowed_lambda_boundary(alpha_ceiling=1.5e-22)
    lam_nm = boundary.lambda_star * 1e9
    ok = 31.0 <= lam_nm <= 34.0 and 36.0 <= boundary.boson_mass_ev <= 40.0
    report("C6 Yukawa boundary", ok,
           f"lambda* = {lam_nm:.2f} nm in [31, 34], "
           f"m = {boundary.boson_mass_ev:.2f} eV in [36, 40]")


def test_c7_residual_anchor():
    records = [ExperimentRecord(63e-9, 491.0, 3.5)]
    rep = residual_report(records, 477.0)
    row = rep.rows[0]
    ok = (abs(row.delta_f - 14.0) < 1e-9 and abs(row.sigma_ratio - 4.0) < 1e-9)
    report("C7 residual anchor", ok,
           f"dF = {row.delta_f:.3f} pN, dF/sigma = {row.sigma_ratio:.3f}")


HANDBOOK_ENV = "CASIMIR_HANDBOOK_DATA"


@pytest.mark.skipif(not os.environ.get(HANDBOOK_ENV),
                    reason="needs user-supplied digitized handbook data; "
                           "set CASIMIR_HANDBOOK_DATA=row1.csv[,row2.csv,row3.csv]")
def test_c8_handbook_forces():
    """Conditional: reproduce the published forces from digitized data.

    The file list pairs with the Drude rows (1.38e16, 5.38e13),
    (1.37e16, 4.06e13), (1.28e16, 3.29e13); expected finite-T forces at
    63 nm are 477, 474, 459 pN within 2 pN, and the zero-T reduction
    factor at 100 nm is 0.547 (row-1 resistivity) / 0.559 (2.3 uohm cm)
    within 0.005.
    """
    paths = [p.strip() for p in os.environ[HANDBOOK_ENV].split(",") if p.strip()]
    rows = [((1.38e16, 5.38e13), 477.0),
            ((1.37e16, 4.06e13), 474.0),
            ((1.28e16, 3.29e13), 459.0)]
    results = []
    for path, (params, expected) in zip(paths, rows):
        ds = load_dataset(path)
        drude = DrudeParameters(*params)
        model = DielectricModel(drude, ds)
        force = force_scan(SPHERE_RADIUS, [63e-9], 300.0, model.epsilon)[0].total
        results.append((force, expected))
        assert force == pytest.approx(expected, abs=2.0)

    ds1 = load_dataset(paths[0])
    # the second row's omega_tau matches a resistivity of 2.3 micro-ohm cm
    eta_rows = [(DrudeParameters(1.38e16, 5.38e13), 0.547),
                (DrudeParameters(1.37e16, 2.3 / 1e8 * epsilon_0 * 1.37e16**2),
                 0.559)]
    for drude, expected in eta_rows:
        model = DielectricModel(drude, ds1)
        (zero,) = force_scan(SPHERE_RADIUS, [100e-9], 0.0, model.epsilon)
        eta = zero.total / ideal_force(SPHERE_RADIUS, 100e-9)
        assert eta == pytest.approx(expected, abs=0.005)
    report("C8 handbook forces", True,
           "forces " + ", ".join(f"{f:.1f}/{e:.0f}" for f, e in results))


def test_c9_oracle_stability(row1):
    finite_default, finite_tight, zero_default, zero_tight = (
        force_scan(SPHERE_RADIUS, [63e-9], t, row1.epsilon,
                   tightened=tightened)[0].total
        for t in (300.0, 0.0) for tightened in (False, True))
    d_finite = abs(finite_tight - finite_default)
    d_zero = abs(zero_tight - zero_default)
    ok = d_finite < 0.1 and d_zero < 0.1
    report("C9 oracle stability", ok,
           f"finite-T shift {d_finite:.2e} pN, zero-T shift {d_zero:.2e} pN, "
           f"both < 0.1 pN")
