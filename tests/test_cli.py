import configparser
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from aucasimir import (ConstraintGeometry, DielectricModel, DrudeParameters,
                       alpha_lower_limit, fit_drude, force_scan, ideal_force,
                       load_dataset)
from aucasimir import config
from aucasimir.cli import _render, entry, main
from aucasimir.config import RunConfig, _read_ini, load_run_config, package_data_dir
from aucasimir.errors import ConfigError

from conftest import drude_dataset, drude_rows

DRUDE_INI = """\
[dielectric]
model = drude
omega_p = 1.37e16
omega_tau = 3.7e13

[geometry]
sphere_radius = 95.65e-6

[thermal]
temperature = 300.0
"""

TABULATED_INI = """\
[dielectric]
model = tabulated
omega_p = 1.38e16
omega_tau = 5.38e13
dataset = gold_synthetic.csv
omega0 = 1.519267448e14
omega1 = 3.2e15

[geometry]
sphere_radius = 95.65e-6
"""


@pytest.fixture
def drude_config(tmp_path):
    path = tmp_path / "drude.ini"
    path.write_text(DRUDE_INI)
    return str(path)


@pytest.fixture
def built_models(monkeypatch):
    """The configs whose dielectric model a command builds, in order."""
    build = RunConfig.build_evaluator
    built = []

    def tracked(config):
        built.append(config)
        return build(config)
    monkeypatch.setattr(RunConfig, "build_evaluator", tracked)
    return built


@pytest.fixture
def tabulated_config(tmp_path):
    path = tmp_path / "tabulated.ini"
    path.write_text(TABULATED_INI)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) if v else None for v in line.split(",")]
            for line in lines[1:]]
    return header, rows


def summary_of(text):
    out = {}
    for line in text.strip().splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            out[key] = value
    return out


class TestFitDrude:
    def test_recovers_parameters_from_pure_drude_file(self, tmp_path, capsys):
        params = DrudeParameters(1.37e16, 4.06e13)
        ds = drude_dataset(params, (1e14, 1e16), points_per_decade=25)
        data = tmp_path / "pure.csv"
        data.write_text("# unit=rad_s source=fixture\n" + "\n".join(
            f"{w:.12e} {e:.12e}" for w, e in zip(ds.omega, ds.eps2)) + "\n")
        code, out, _ = run(capsys, ["fit-drude", "--dataset", str(data),
                                    "--range", "2e14", "2e15",
                                    "--output", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        values = dict(zip(header, rows[0]))
        assert values["omega_p_1e16_s"] == pytest.approx(1.37, rel=1e-6)
        assert values["omega_tau_1e13_s"] == pytest.approx(4.06, rel=1e-6)
        assert values["rho_micro_ohm_cm"] == pytest.approx(2.443, rel=1e-3)

    def test_table_output_includes_resistivity(self, tmp_path, capsys):
        params = DrudeParameters(1.37e16, 4.06e13)
        ds = drude_dataset(params, (1e14, 1e16), points_per_decade=10)
        data = tmp_path / "pure.csv"
        data.write_text("# unit=rad_s\n" + "\n".join(
            f"{w:.12e} {e:.12e}" for w, e in zip(ds.omega, ds.eps2)) + "\n")
        code, out, _ = run(capsys, ["fit-drude", "--dataset", str(data),
                                    "--range", "2e14", "2e15"])
        assert code == 0
        assert "rho_micro_ohm_cm" in out
        assert "omega_p_1e16_s" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, ["fit-drude", "--dataset", "missing.csv",
                                    "--range", "1e14", "1e15"])
        assert code == 2
        assert "missing.csv" in err

    @pytest.mark.parametrize("extra, fragment", [
        (["--range", "2e14", "2e15", "--fixed-omega-p", "-1"],
         "--fixed-omega-p needs a finite positive frequency [rad/s], got -1"),
        (["--range", "1e13", "2e15"],
         "not within data coverage [1.519e+14, 1e+18]"),
    ], ids=["negative-fixed-omega-p", "range-beyond-the-data"])
    def test_bad_fit_argument_is_input_error(self, capsys, extra, fragment):
        data = str(package_data_dir() / "gold_synthetic.csv")
        code, out, err = run(capsys, ["fit-drude", "--dataset", data, *extra])
        assert code == 2
        assert out == ""
        assert fragment in err

    def test_unknown_unit_names_the_header_line(self, tmp_path, capsys):
        data = tmp_path / "thz.csv"
        data.write_text("# unit=THz\n1 2\n2 1\n3 0.5\n")
        code, out, err = run(capsys, ["fit-drude", "--dataset", str(data),
                                      "--range", "1", "2"])
        assert code == 2
        assert out == ""
        assert f"{data}:1: unknown unit 'THz'" in err


@pytest.mark.parametrize("argv", [
    ["residuals", "--config", str(package_data_dir() / "sample_config.ini"),
     "--experiment", "experiment_sample.csv"],
    ["yukawa-limit", "--points", "3"]], ids=["residuals", "yukawa-limit"])
def test_table_output_aligns_summary_keys_with_columns(capsys, argv):
    # the summary keys max_sigma_exceedance and lambda_star_nm are longer
    # than every column name
    code, out, _ = run(capsys, argv + ["--output", "table"])
    assert code == 0
    starts = {len(line) - len(line.split(None, 1)[1]) for line in out.splitlines()}
    assert len(starts) == 1, out


#: a cell of an output table: floats (numpy's too) with their special
#: values, integers and None
table_cells = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(), st.none(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@st.composite
def output_tables(draw):
    """(columns, rows, summary) as the commands hand them to `_render`."""
    width = draw(st.integers(1, 6))
    columns = draw(st.lists(st.text(), min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[table_cells] * width), max_size=25))
    summary = draw(st.none() | st.dictionaries(
        st.text(), table_cells | st.text() | st.just("unconstrained: a, b"),
        max_size=4))
    return columns, rows, summary


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(output_tables())
    @example((("a",), [], None))
    @example((("a", "b"), [(-0.0, None), (math.nan, 2)], {}))
    @example((("a", "b"), [(math.inf, -math.inf)], {"status": "excluded: a, b"}))
    def test_equals_indented_json_dumps(self, table):
        # the writer splices C-encoded pieces; json.dumps with indent=2 is
        # the format it reproduces
        columns, rows, summary = table
        payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        if summary:
            payload["summary"] = summary
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert _render(columns, rows, summary, "json") == expected


class TestEpsilon:
    def test_drude_model_single_zeta(self, drude_config, capsys):
        code, out, _ = run(capsys, ["epsilon", "--config", drude_config,
                                    "--zeta", "1e15"])
        assert code == 0
        header, rows = parse_csv(out)
        values = dict(zip(header, rows[0]))
        closed = 1.0 + 1.37e16**2 / (1e15 * (1e15 + 3.7e13))
        assert values["total"] == pytest.approx(closed, rel=1e-9)
        assert values["eps2_part"] == 0.0

    @pytest.mark.parametrize("zeta", ["1e20", "1e22"])
    def test_drude_eps1_keeps_its_digits_far_above_omega_p(self, drude_config,
                                                           capsys, zeta):
        # eps1 = omega_p^2 / (zeta (zeta + omega_tau)) is far below the
        # rounding of 1 + eps1 here
        code, out, _ = run(capsys, ["epsilon", "--config", drude_config,
                                    "--zeta", zeta, "--output", "json"])
        assert code == 0
        payload = json.loads(out)
        values = dict(zip(payload["columns"], payload["rows"][0]))
        z = Fraction(float(zeta))
        exact = Fraction(1.37e16)**2 / (z * (z + Fraction(3.7e13)))
        assert values["eps1"] == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_tabulated_model_decomposition(self, tabulated_config, capsys):
        code, out, _ = run(capsys, ["epsilon", "--config", tabulated_config,
                                    "--zeta", "2.3793052e15"])
        assert code == 0
        header, rows = parse_csv(out)
        values = dict(zip(header, rows[0]))
        assert values["eps1"] == pytest.approx(26.33, rel=1e-2)
        total = 1 + values["eps1"] + values["eps2_part"] + values["eps3_part"]
        # parts and total are rounded independently to 9 digits in the CSV
        assert values["total"] == pytest.approx(total, rel=1e-8)

    def test_zeta_grid_increasing(self, drude_config, capsys):
        code, out, _ = run(capsys, ["epsilon", "--config", drude_config,
                                    "--zeta-range", "1e14", "1e16", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        zetas = [r[0] for r in rows]
        assert zetas == sorted(zetas) and len(zetas) == 5

    def test_requires_config(self, capsys):
        code, _, err = run(capsys, ["epsilon", "--zeta", "1e15"])
        assert code == 2
        assert "--config" in err

    def test_zeta_above_tail_limit_is_compute_error(self, tabulated_config, capsys):
        # the closed-form tail of the bundled data (omega_max = 1e18) holds
        # up to sqrt(1/2) 1e24 rad/s
        code, _, _ = run(capsys, ["epsilon", "--config", tabulated_config,
                                  "--zeta", "7e23"])
        assert code == 0
        code, out, err = run(capsys, ["epsilon", "--config", tabulated_config,
                                      "--zeta", "1e24"])
        assert code == 1
        assert out == ""
        assert "zeta=1e+24 rad/s" in err and "7.071e+23 rad/s" in err

    def test_zeta_with_zeta_range_is_usage_error(self, drude_config, capsys):
        # one zeta grid per command: argparse refuses the second
        with pytest.raises(SystemExit) as exit_info:
            main(["epsilon", "--config", drude_config, "--zeta", "1e15",
                  "--zeta-range", "1e13", "1e18", "3"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--zeta-range: not allowed with argument --zeta" in err

    def test_drude_eps1_rounding_to_zero_is_compute_error(self):
        # zeta (zeta + omega_tau) overflows, so eps1 would read 0 and eps 1
        root = Path(__file__).resolve().parents[1]
        config = root / "perfbench" / "drude_config.ini"
        done = subprocess.run(
            [sys.executable, "-m", "aucasimir.cli", "epsilon", "--config",
             str(config), "--zeta", "1e200"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "compute error: zeta=1e+200 rad/s" in done.stderr
        assert "Warning" not in done.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("config", [
        package_data_dir() / "sample_config.ini",
        Path(__file__).resolve().parents[1] / "perfbench" / "drude_config.ini"],
        ids=["tabulated", "drude"])
    @pytest.mark.parametrize("zeta", ["1e-300", "5e-324"])
    def test_tiny_zeta_is_compute_error(self, capsys, config, zeta):
        # omega_p^2 / (zeta (zeta + omega_tau)) overflows: eps1 would read inf
        code, out, err = run(capsys, ["epsilon", "--config", str(config),
                                      "--zeta", zeta])
        assert code == 1
        assert out == ""
        assert (f"compute error: zeta={float(zeta):.4g} rad/s is out of range: "
                f"omega_p^2 / (zeta (zeta + omega_tau)) = inf") in err
        assert err.count("\n") == 1

    def test_infinite_zeta_rejected(self, drude_config, capsys):
        code, out, err = run(capsys, ["epsilon", "--config", drude_config,
                                      "--zeta", "inf"])
        assert code == 2
        assert out == ""
        assert "--zeta needs a finite positive value, got inf" in err


class TestForce:
    def test_finite_T_matches_library(self, drude_config, capsys):
        code, out, _ = run(capsys, ["force", "--config", drude_config,
                                    "--a", "100"])
        assert code == 0
        _, rows = parse_csv(out)
        a_nm, force, n0, dtf, eta = rows[0]
        params = DrudeParameters(1.37e16, 3.7e13)
        (expected,) = force_scan(95.65e-6, [100e-9], 300.0, params.epsilon)
        assert force == pytest.approx(expected.total, rel=1e-9)
        assert n0 == pytest.approx(expected.n0_term, rel=1e-9)
        assert dtf is None
        assert 0 < eta < 1

    def test_both_mode_dtf_column_identity(self, drude_config, capsys):
        code, out, _ = run(capsys, ["force", "--config", drude_config,
                                    "--a", "150", "--mode", "both"])
        assert code == 0
        _, rows = parse_csv(out)
        _, force, n0, dtf, _ = rows[0]
        params = DrudeParameters(1.37e16, 3.7e13)
        (zero,) = force_scan(95.65e-6, [150e-9], 0.0, params.epsilon)
        assert dtf == pytest.approx(force - zero.total, rel=1e-6)

    def test_range_monotone_decreasing(self, drude_config, capsys):
        code, out, _ = run(capsys, ["force", "--config", drude_config,
                                    "--a-range", "60", "200", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        forces = [r[1] for r in rows]
        assert len(forces) == 5
        assert all(a > b for a, b in zip(forces, forces[1:]))

    def test_byte_identical_reruns(self, drude_config, capsys):
        _, out1, _ = run(capsys, ["force", "--config", drude_config, "--a", "120"])
        _, out2, _ = run(capsys, ["force", "--config", drude_config, "--a", "120"])
        assert out1 == out2

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(drude_rows, st.floats(10.0, 400.0),
           st.sampled_from(["schwinger", "halved"]))
    def test_byte_identical_reruns_over_generated_configs(
            self, tmp_path_factory, row, temperature, prescription):
        path = tmp_path_factory.mktemp("generated") / "run.ini"
        path.write_text(
            f"[dielectric]\nmodel = drude\nomega_p = {row.omega_p!r}\n"
            f"omega_tau = {row.omega_tau!r}\n\n[geometry]\n"
            f"sphere_radius = 95.65e-6\n\n[thermal]\n"
            f"temperature = {temperature!r}\n\n[force]\n"
            f"prescription = {prescription}\n")
        argv = ["force", "--config", str(path), "--mode", "both",
                "--a-range", "60", "200", "3"]
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(argv) == 0
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 4

    def test_json_output(self, drude_config, capsys):
        code, out, _ = run(capsys, ["force", "--config", drude_config,
                                    "--a", "150", "--output", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "a_nm"
        assert payload["rows"][0][0] == pytest.approx(150.0)

    def test_sample_config_anchor(self, capsys):
        # the bundled tabulated config: data-based eps(i zeta), 300 K
        code, out, _ = run(capsys, ["force", "--config",
                                    str(package_data_dir() / "sample_config.ini"),
                                    "--a-range", "63", "175", "2"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [63.0, 175.0]
        assert rows[0][1] == pytest.approx(446.4266475, rel=1e-8)
        assert rows[1][1] == pytest.approx(32.71968280, rel=1e-8)

    def test_eps_below_one_is_compute_error(self, drude_config, monkeypatch,
                                            capsys):
        # eps(i zeta) <= 1 is found while computing, not in the input
        monkeypatch.setattr(DrudeParameters, "epsilon", lambda self, zeta: 0.5)
        code, out, err = run(capsys, ["force", "--config", drude_config,
                                      "--a", "100"])
        assert code == 1
        assert out == ""
        assert "compute error" in err and "exceed 1" in err

    def test_near_perfect_conductor_eps_gives_the_ideal_force(self, tmp_path,
                                                              capsys):
        # eps(i zeta) ~ 1e170 enters the kernel capped, which is exact: the
        # zero-T force is the perfect-conductor one, and no RuntimeWarning
        # escapes (pytest makes it an error)
        path = tmp_path / "huge.ini"
        path.write_text(DRUDE_INI.replace("omega_p = 1.37e16", "omega_p = 1e100"))
        code, out, err = run(capsys, ["force", "--config", str(path),
                                      "--mode", "both", "--a", "63"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        zero_T = row["F_pN"] - row["dTF_pN"]
        assert zero_T == pytest.approx(ideal_force(95.65e-6, 63e-9), rel=1e-9)

    @pytest.mark.parametrize("a_nm", ["1e-191", "1e290"])
    def test_separation_beyond_the_float_range_is_input_error(self, capsys,
                                                               a_nm):
        # a^2 or a^3 would leave the float range: a ZeroDivisionError or
        # OverflowError, were the separation not checked
        config = str(package_data_dir() / "sample_config.ini")
        code, out, err = run(capsys, ["force", "--config", config, "--a", a_nm])
        assert code == 2
        assert out == ""
        assert f"separation {float(a_nm) * 1e-9:.4g} m is outside" in err

    def test_overflowing_n0_term_is_compute_error(self, tmp_path, capsys):
        # at 20 um the frequency sum of a 1.7e308 m sphere is finite, its
        # n=0 term is not
        path = tmp_path / "huge.ini"
        path.write_text(DRUDE_INI.replace("95.65e-6", "1.7e308"))
        code, out, err = run(capsys, ["force", "--config", str(path),
                                      "--a", "20000"])
        assert code == 1
        assert out == ""
        assert "force at a = 20000 nm, T = 300 K is not finite" in err

    @pytest.mark.filterwarnings("ignore:sphere_radius / separation < 100")
    def test_overflowing_eta_is_compute_error(self, tmp_path, capsys):
        # F / ideal_force overflows: a 1e300 K force at 1e6 m against a
        # perfect-conductor force of order 1e-37 pN
        path = tmp_path / "hot.ini"
        path.write_text(DRUDE_INI.replace("300.0", "1e300"))
        code, out, err = run(capsys, ["force", "--config", str(path), "--mode",
                                      "finite_T", "--a", "1e15"])
        assert code == 1
        assert out == ""
        assert "compute error: eta = F / ideal force at a = 1e+15 nm overflows" in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:sphere_radius / separation < 100")
    @pytest.mark.parametrize("mode", ["zero_T", "both"])
    @pytest.mark.parametrize("a_nm", ["1e9", "1e12"], ids=["1 m", "1 km"])
    def test_zero_T_beyond_the_reach_is_compute_error(self, drude_config, capsys,
                                                      mode, a_nm):
        code, out, err = run(capsys, ["force", "--config", drude_config, "--mode",
                                      mode, "--a", a_nm])
        assert code == 1
        assert out == ""
        assert err == (f"aucasimir: compute error: zero-T force at a = {float(a_nm):.6g} "
                       f"nm is beyond its frequency rule's reach, 4796.68 nm\n")

    @pytest.mark.parametrize("mode", ["finite_T", "zero_T"])
    def test_underflowing_ideal_force_is_compute_error(self, tmp_path, capsys, mode):
        # pi^3 hbar c R / (360 a^3) underflows to 0 at the smallest radius;
        # the R/a warning is the only one
        path = tmp_path / "tiny.ini"
        path.write_text(DRUDE_INI.replace("95.65e-6", "5e-324"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["force", "--config", str(path), "--mode",
                                          mode, "--a", "100"])
        assert [str(w.message) for w in caught] == [
            "sphere_radius / separation < 100: the proximity force treatment "
            "assumes R >> a"]
        assert code == 1
        assert out == ""
        assert err == ("aucasimir: compute error: eta = F / ideal force at a = 100 nm "
                       "overflows (ideal force 0 pN)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_denormal_temperature_is_compute_error(self, tmp_path, capsys):
        # zeta_1 = 2 pi k T / hbar underflows to 0, so the sum needs inf terms
        path = tmp_path / "cold.ini"
        path.write_text(DRUDE_INI.replace("300.0", "5e-324"))
        code, out, err = run(capsys, ["force", "--config", str(path), "--a", "100"])
        assert code == 1
        assert out == ""
        assert "Matsubara sum at a = 100 nm" in err and "needs inf terms" in err
        assert err.count("\n") == 1

    def test_both_mode_warns_once_about_curvature(self):
        # a 2 um separation is R/a < 100 at both temperatures; the warning
        # names the CLI's line, so Python's default filter shows it once
        root = Path(__file__).resolve().parents[1]
        config = root / "perfbench" / "drude_config.ini"
        done = subprocess.run(
            [sys.executable, "-m", "aucasimir.cli", "force", "--config",
             str(config), "--mode", "both", "--a", "2000"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr.count("UserWarning") == 1
        assert "cli.py" in done.stderr and "R >> a" in done.stderr

    def test_a_with_a_range_is_usage_error(self, drude_config, capsys):
        # one separation grid per command: argparse refuses the second
        with pytest.raises(SystemExit) as exit_info:
            main(["force", "--config", drude_config, "--a", "63",
                  "--a-range", "100", "200", "2"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--a-range: not allowed with argument --a" in err

    def test_out_file(self, drude_config, tmp_path, capsys):
        target = tmp_path / "force.csv"
        code, out, _ = run(capsys, ["force", "--config", drude_config,
                                    "--a", "150", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("a_nm,")


class TestResiduals:
    def test_known_offset_reproduced(self, drude_config, tmp_path, capsys):
        params = DrudeParameters(1.37e16, 3.7e13)
        theory = force_scan(95.65e-6, [100e-9], 300.0, params.epsilon)[0].total
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("# columns=a_nm,F_pN,sigma_pN\n"
                            f"100,{theory + 14.0:.9e},3.5\n")
        code, out, _ = run(capsys, ["residuals", "--config", drude_config,
                                    "--experiment", str(exp_file)])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][3] == pytest.approx(14.0, abs=1e-6)
        assert rows[0][4] == pytest.approx(4.0, abs=1e-6)
        summary = summary_of(out)
        assert float(summary["rms_pN"]) == pytest.approx(14.0, abs=1e-6)

    def test_empty_filter_is_error(self, drude_config, built_models, tmp_path,
                                   capsys):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("100,120,3.5\n")
        code, _, err = run(capsys, ["residuals", "--config", drude_config,
                                    "--experiment", str(exp_file),
                                    "--a-min", "200", "--a-max", "300"])
        assert code == 2
        assert "no experiment records" in err
        assert built_models == []

    @pytest.mark.parametrize("bounds, rows", [
        (["--a-min", "60", "--a-max", "80"], [60.0, 80.0]),
        (["--a-min", "80"], [80.0, 120.0]),
        (["--a-max", "60"], [60.0])], ids=["both", "a-min", "a-max"])
    def test_bounds_are_inclusive(self, drude_config, tmp_path, capsys,
                                  bounds, rows):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("120,30,1\n60,300,3\n80,120,2\n")
        code, out, _ = run(capsys, ["residuals", "--config", drude_config,
                                    "--experiment", str(exp_file), *bounds])
        assert code == 0
        assert [r[0] for r in parse_csv(out)[1]] == rows

    @pytest.mark.parametrize("bounds, fragment", [
        (["--a-min", "nan"], "--a-min/--a-max need A_MIN <= A_MAX [nm], got nan inf"),
        (["--a-max", "nan"], "--a-min/--a-max need A_MIN <= A_MAX [nm], got 0 nan"),
        (["--a-min", "300", "--a-max", "100"],
         "--a-min/--a-max need A_MIN <= A_MAX [nm], got 300 100"),
    ], ids=["nan-a-min", "nan-a-max", "reversed"])
    def test_bad_bounds_fail_before_the_model_is_built(
            self, drude_config, built_models, capsys, bounds, fragment):
        code, out, err = run(capsys, ["residuals", "--config", drude_config,
                                      "--experiment", "experiment_sample.csv",
                                      *bounds])
        assert code == 2
        assert out == ""
        assert fragment in err
        assert err.count("\n") == 1
        assert built_models == []

    @pytest.mark.parametrize("row, message", [
        ("63,1e10,1e-300", "dF = 1e+10 pN at a = 63 nm overflows dF/sigma"),
        ("63,1e200,3.5", "dF = 1e+200 pN at a = 63 nm overflows the rms residual"),
    ], ids=["ratio", "rms"])
    def test_overflow_is_compute_error(self, drude_config, tmp_path, capsys,
                                       row, message):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text(row + "\n")
        code, out, err = run(capsys, ["residuals", "--config", drude_config,
                                      "--experiment", str(exp_file)])
        assert code == 1
        assert out == ""
        assert err == f"aucasimir: compute error: residual {message}\n"

    def test_empty_field_is_input_error(self, drude_config, built_models,
                                        tmp_path, capsys):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("63,3.5,,0.1\n")
        code, out, err = run(capsys, ["residuals", "--config", drude_config,
                                      "--experiment", str(exp_file)])
        assert code == 2
        assert out == ""
        assert err == f"aucasimir: error: {exp_file}:1: empty field\n"
        assert built_models == []

    def test_plot_out_two_columns(self, drude_config, tmp_path, capsys):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("100,120,3.5\n")
        plot = tmp_path / "plot.dat"
        code, _, _ = run(capsys, ["residuals", "--config", drude_config,
                                  "--experiment", str(exp_file),
                                  "--plot-out", str(plot)])
        assert code == 0
        fields = plot.read_text().split()
        assert len(fields) == 2
        assert float(fields[0]) == pytest.approx(100.0)


class TestOneEpsCall:
    """A command evaluates eps(i zeta) in one array call per temperature,
    whatever the number of separations: a count, so it needs no timing."""

    SAMPLE = str(package_data_dir() / "sample_config.ini")
    EXPERIMENT = str(package_data_dir() / "experiment_sample.csv")

    @pytest.fixture
    def eps_calls(self, monkeypatch):
        calls = []
        epsilon = DielectricModel.epsilon

        def counted(model, zeta):
            calls.append(zeta)
            return epsilon(model, zeta)

        monkeypatch.setattr(DielectricModel, "epsilon", counted)
        return calls

    def test_force_scan(self, eps_calls, capsys):
        code, out, _ = run(capsys, ["force", "--config", self.SAMPLE,
                                    "--mode", "finite_T",
                                    "--a-range", "60", "200", "15"])
        assert code == 0
        assert len(parse_csv(out)[1]) == 15
        assert len(eps_calls) == 1

    @pytest.mark.parametrize("mode, calls", [("both", 2), ("zero_T", 1)])
    def test_force_scan_with_zero_T(self, eps_calls, capsys, mode, calls):
        code, out, _ = run(capsys, ["force", "--config", self.SAMPLE,
                                    "--mode", mode,
                                    "--a-range", "60", "200", "15"])
        assert code == 0
        assert len(parse_csv(out)[1]) == 15
        assert len(eps_calls) == calls

    def test_residuals(self, eps_calls, capsys):
        code, _, _ = run(capsys, ["residuals", "--config", self.SAMPLE,
                                  "--experiment", self.EXPERIMENT])
        assert code == 0
        assert len(eps_calls) == 1

    def test_residuals_over_repeated_separations(self, eps_calls, tmp_path,
                                                 capsys):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text("63,491,3.5\n100,150,2\n63,489,3.5\n150,45,1\n")
        code, out, _ = run(capsys, ["residuals", "--config", self.SAMPLE,
                                    "--experiment", str(exp_file)])
        assert code == 0
        rows = parse_csv(out)[1]
        assert [r[0] for r in rows] == [63.0, 63.0, 100.0, 150.0]
        assert rows[0][2] == rows[1][2]
        assert len(eps_calls) == 1


class TestYukawaLimit:
    def test_defaults_boundary_and_mass(self, capsys):
        code, out, _ = run(capsys, ["yukawa-limit", "--points", "5"])
        assert code == 0
        summary = summary_of(out)
        assert 31.0 <= float(summary["lambda_star_nm"]) <= 34.0
        assert 36.0 <= float(summary["boson_mass_ev"]) <= 40.0
        _, rows = parse_csv(out)
        lambdas = [r[0] for r in rows]
        assert lambdas == sorted(lambdas)

    def test_defaults_are_the_library_constraint(self, capsys):
        # with no flag the limit is computed at ConstraintGeometry() itself:
        # 63 nm converted from nm would be 6.300000000000001e-08 m
        code, out, _ = run(capsys, ["yukawa-limit", "--points", "7",
                                    "--output", "json"])
        assert code == 0
        grid = np.logspace(math.log10(10e-9), math.log10(1000e-9), 7)
        expected = [alpha_lower_limit(float(lam), ConstraintGeometry())
                    for lam in grid]
        assert [row[1] for row in json.loads(out)["rows"]] == expected

    def test_huge_ceiling_reports_unconstrained(self, capsys):
        code, out, _ = run(capsys, ["yukawa-limit", "--points", "3",
                                    "--alpha-ceiling", "1.0"])
        assert code == 0
        assert "unconstrained" in out

    def test_tiny_ceiling_reports_excluded(self, capsys):
        code, out, _ = run(capsys, ["yukawa-limit", "--points", "3",
                                    "--alpha-ceiling", "1e-40"])
        assert code == 0
        assert "# status=excluded: " in out

    def test_zero_ceiling_is_input_error(self, capsys):
        code, out, err = run(capsys, ["yukawa-limit", "--points", "3",
                                      "--alpha-ceiling", "0"])
        assert code == 2
        assert out == ""
        assert "--alpha-ceiling needs a positive coupling, got 0" in err

    def test_infinite_ceiling_reports_unconstrained(self, capsys):
        code, out, _ = run(capsys, ["yukawa-limit", "--points", "3",
                                    "--alpha-ceiling", "inf"])
        assert code == 0
        assert "# status=unconstrained: " in out

    @pytest.mark.parametrize("flag, value", [("--separation", "-5"),
                                             ("--film-thickness", "0")])
    def test_bad_geometry_flag_is_input_error(self, capsys, flag, value):
        code, out, err = run(capsys, ["yukawa-limit", "--points", "3",
                                      flag, value])
        assert code == 2
        assert out == ""
        assert f"{flag} needs a finite positive length [nm], got {value}" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, ["yukawa-limit", "--points", "7"])
        _, out2, _ = run(capsys, ["yukawa-limit", "--points", "7"])
        assert out1 == out2

    def test_infinite_separation_rejected(self, capsys):
        code, out, err = run(capsys, ["yukawa-limit", "--separation", "inf",
                                      "--points", "3"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_short_lambda_names_lambda_and_separation(self, capsys):
        # exp(a / lambda) overflows below a / 709.78, 0.0888 nm at 63 nm
        code, out, err = run(capsys, ["yukawa-limit", "--lambda-min", "0.05"])
        assert code == 1
        assert out == ""
        assert "lambda = 0.05 nm and a = 63 nm" in err

    @pytest.mark.parametrize("argv, fragment", [
        (["--lambda-min", "1e290", "--lambda-max", "1e300"],
         "lambda = 1e+290 nm and a = 63 nm, for a 10 pN bound"),
        (["--lambda-min", "1e80", "--lambda-max", "1e100", "--points", "3"],
         "lambda = 1e+100 nm and a = 63 nm, for a 10 pN bound"),
        (["--residual-bound", "1e-300"], "lambda = 10 nm and a = 63 nm, for a 1e-300 pN bound"),
        (["--residual-bound", "5e-324"], "for a 4.94066e-324 pN bound"),
    ], ids=["lambda-1e290", "lambda-1e100-subnormal", "bound-1e-300", "bound-5e-324"])
    def test_underflowing_limit_is_compute_error(self, capsys, argv, fragment):
        # alpha_min below the smallest normal float was printed as 0 or as
        # a subnormal with lost digits, and a 0 limit read "unconstrained"
        code, out, err = run(capsys, ["yukawa-limit", *argv])
        assert code == 1
        assert out == ""
        assert fragment in err and "outside the range of normal floats" in err
        assert err.count("\n") == 1

    def test_takes_no_config(self, drude_config, capsys):
        # yukawa-limit reads no config: --config is a usage error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["yukawa-limit", "--config", drude_config])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["inf", "nan", "0"])
    def test_residual_bound_must_be_finite_and_positive(self, capsys, bound):
        code, out, err = run(capsys, ["yukawa-limit", "--residual-bound", bound,
                                      "--points", "2"])
        assert code == 2
        assert out == ""
        assert "--residual-bound" in err


@pytest.mark.parametrize("argv, flag", [
    (["force", "--a-range", "63", "175", "2.5"], "--a-range"),
    (["force", "--a-range", "60", "inf", "3"], "--a-range"),
    (["force", "--a-range", "60", "200", "nan"], "--a-range"),
    (["epsilon", "--zeta-range", "1e14", "1e15", "3.9"], "--zeta-range"),
    (["epsilon", "--zeta-range", "1e14", "1e15", "inf"], "--zeta-range"),
    (["yukawa-limit", "--lambda-max", "inf"], "--lambda-max"),
], ids=["fractional-count", "infinite-bound", "nan-count", "fractional-zeta-count",
        "infinite-zeta-count", "infinite-lambda"])
def test_bad_grid_names_flag(drude_config, capsys, argv, flag):
    # finite 0 < LO < HI and an integral N >= 2, or an input error naming
    # the option; nothing is rounded or computed from a non-finite bound
    # (yukawa-limit reads no config and takes no --config)
    config = [] if argv[0] == "yukawa-limit" else ["--config", drude_config]
    code, out, err = run(capsys, argv + config)
    assert code == 2
    assert out == ""
    assert flag in err and "integral N >= 2" in err


@pytest.mark.parametrize("argv, flags", [
    (["epsilon"], "--zeta --zeta-range"),
    (["force"], "--a --a-range"),
], ids=["epsilon-without-zeta", "force-without-separation"])
def test_missing_grid_is_usage_error(drude_config, capsys, argv, flags):
    # each grid pair is a required group: argparse names both flags
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--config", drude_config])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"one of the arguments {flags} is required" in err


@pytest.mark.parametrize("argv, message", [
    *[([command, flag, value], f"{flag} needs a finite positive value, got {value}")
      for command, flag in (("force", "--a"), ("epsilon", "--zeta"))
      for value in ("-1", "0", "nan", "inf")],
    (["force", "--a-range", "200", "60", "3"], "--a-range needs finite 0 < LO < HI"),
    (["epsilon", "--zeta-range", "1e14", "1e15", "1"], "--zeta-range needs finite 0 < LO < HI"),
    # a length is checked in metres where it is converted, against the
    # normal floats or the library's separation range, and named as typed
    (["yukawa-limit", "--lambda-min", "5e-324"],
     "--lambda-min/--lambda-max 5e-324 nm: length 0 m is outside"),
    (["yukawa-limit", "--lambda-min", "1e-315", "--lambda-max", "1e-314", "--points", "2"],
     "--lambda-min/--lambda-max 1e-315 nm: length 0 m is outside"),
    (["yukawa-limit", "--separation", "5e-324"], "--separation 5e-324 nm: length 0 m is outside"),
    (["yukawa-limit", "--film-thickness", "1e-320"],
     "--film-thickness 1e-320 nm: length 0 m is outside"),
    (["force", "--a", "5e-324"], "--a 5e-324 nm: separation 0 m is outside [1e-30, 1e+30] m"),
    (["force", "--a-range", "5e-324", "1e-323", "2"],
     "--a-range 5e-324 nm: separation 0 m is outside [1e-30, 1e+30] m"),
    (["force", "--a", "1e-25"], "--a 1e-25 nm: separation 1e-34 m is outside [1e-30, 1e+30] m"),
    (["force", "--a", "1e40"], "--a 1e+40 nm: separation 1e+31 m is outside [1e-30, 1e+30] m"),
    (["fit-drude", "--range", "nan", "1e15"], "--range needs finite 0 < LO < HI, got nan 1e+15"),
    (["fit-drude", "--range", "2e15", "1e15"],
     "--range needs finite 0 < LO < HI, got 2e+15 1e+15"),
], ids=[*(f"{flag}={value}" for flag in ("a", "zeta") for value in ("-1", "0", "nan", "inf")),
        "reversed-a-range", "one-point-zeta-range", "lambda-min=5e-324", "lambda-min=1e-315",
        "separation=5e-324", "film-thickness=1e-320", "a=5e-324", "a-range-from-5e-324",
        "a=1e-25", "a=1e40", "fit-range-nan", "reversed-fit-range"])
def test_bad_grid_fails_before_config_is_read(tmp_path, capsys, argv, message):
    # grids, ranges and lengths are checked first: the missing config is
    # never opened (yukawa-limit reads no file and takes no --config)
    config = [] if argv[0] == "yukawa-limit" else ["--config", str(tmp_path / "missing.ini")]
    code, out, err = run(capsys, argv + config)
    assert code == 2
    assert out == ""
    assert err.startswith(f"aucasimir: error: {message}") and err.count("\n") == 1


class TestConfigHandling:
    def test_retired_numerics_keys_still_load(self, drude_config, tmp_path,
                                              capsys):
        # every retired key, each far from its former default, loads and
        # leaves the output as it is without them
        path = tmp_path / "old.ini"
        path.write_text(
            DRUDE_INI.replace("[geometry]", "kk_epsrel = 1e-3\n\n[geometry]")
            + "\n[numerics]\nzeta_min = 1e13\npanels_per_decade = 1\n"
            "sum_rel_tol = 1e-6\nn_max = 5\np_epsrel = 1e-3\n"
            "zeta_epsrel = 1e-3\nsum_consecutive = 1\nzeta_max = 1e15\n")
        argv = ["force", "--mode", "both", "--a-range", "60", "200", "3"]
        code, out, _ = run(capsys, argv + ["--config", str(path)])
        assert code == 0
        assert out == run(capsys, argv + ["--config", drude_config])[1]

    def test_bad_prescription_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(DRUDE_INI + "\n[force]\nprescription = wrong\n")
        code, _, err = run(capsys, ["force", "--config", str(path), "--a", "100"])
        assert code == 2
        assert "prescription" in err

    def test_missing_dataset_fails_at_load(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        # a relative name is searched for; an absolute path is taken as it is
        for dataset in ("gone.csv", str(tmp_path / "gone.csv")):
            path.write_text(TABULATED_INI.replace("gold_synthetic.csv", dataset))
            code, _, err = run(capsys, ["epsilon", "--config", str(path),
                                        "--zeta", "1e15"])
            assert code == 2
            assert dataset in err

    def test_drude_model_leaves_its_dataset_unread(self, tmp_path,
                                                   monkeypatch):
        # the dataset path still resolves at load; with explicit Drude
        # parameters nothing reads the file
        path = tmp_path / "drude.ini"
        path.write_text(DRUDE_INI.replace(
            "omega_tau = 3.7e13", "omega_tau = 3.7e13\ndataset = gold_synthetic.csv"))
        cfg = load_run_config(path)
        assert cfg.model_kind == "drude" and cfg.dataset_paths

        def unread(path):
            raise AssertionError(f"dataset {path} parsed")
        monkeypatch.setattr(config, "load_dataset", unread)
        assert cfg.build_evaluator() == cfg.drude

    def test_data_dir_env_resolution(self, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "store"
        data_dir.mkdir()
        params = DrudeParameters(1.38e16, 5.38e13)
        ds = drude_dataset(params, (1.5e14, 1e17), points_per_decade=10)
        (data_dir / "env_only.csv").write_text(
            "# unit=rad_s\n" + "\n".join(
                f"{w:.9e} {e:.9e}" for w, e in zip(ds.omega, ds.eps2)) + "\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TABULATED_INI
                       .replace("gold_synthetic.csv", "env_only.csv")
                       .replace("omega0 = 1.519267448e14", "omega0 = 1.5e14"))
        monkeypatch.setenv("CASIMIR_DATA_DIR", str(data_dir))
        loaded = load_run_config(cfg)
        assert loaded.dataset_paths[0] == data_dir / "env_only.csv"

    def test_malformed_fit_range_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[dielectric]\nmodel = tabulated\n"
                        "dataset = gold_synthetic.csv\nfit_range = 2e14 oops\n\n"
                        "[geometry]\nsphere_radius = 95.65e-6\n")
        code, _, err = run(capsys, ["epsilon", "--config", str(path),
                                    "--zeta", "1e15"])
        assert code == 2
        assert "[dielectric] fit_range" in err

    def test_malformed_fixed_omega_p_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[dielectric]\nmodel = tabulated\n"
                        "dataset = gold_synthetic.csv\nfit_range = 2e14 2e15\n"
                        "fit_fixed_omega_p = 1.37e16x\n\n"
                        "[geometry]\nsphere_radius = 95.65e-6\n")
        code, _, err = run(capsys, ["epsilon", "--config", str(path),
                                    "--zeta", "1e15"])
        assert code == 2
        assert "[dielectric] fit_fixed_omega_p" in err

    def test_drude_needs_parameters_or_fit(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[dielectric]\nmodel = drude\n\n"
                        "[geometry]\nsphere_radius = 95.65e-6\n")
        code, _, err = run(capsys, ["epsilon", "--config", str(path),
                                    "--zeta", "1e15"])
        assert code == 2
        assert "omega_p" in err

    @pytest.mark.parametrize("section, key, value", [
        ("geometry", "sphere_radius", "inf"),
        ("thermal", "temperature", "nan"),
        ("thermal", "temperature", "inf")])
    def test_non_finite_value_names_key(self, tmp_path, capsys, section, key,
                                        value):
        path = tmp_path / "bad.ini"
        path.write_text(DRUDE_INI.replace(f"{key} = ", f"{key} = {value} #"))
        code, out, err = run(capsys, ["force", "--config", str(path),
                                      "--a", "100"])
        assert code == 2
        assert out == ""
        assert f"[{section}] {key}" in err and "finite" in err

    def test_mistyped_key_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(DRUDE_INI + "\n[numerics]\nsum_rel_tl = 1e-14\n")
        code, _, err = run(capsys, ["force", "--config", str(path), "--a", "100"])
        assert code == 2
        assert "unknown key [numerics] sum_rel_tl" in err

    def test_mistyped_section_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(DRUDE_INI + "\n[numeric]\nsum_rel_tol = 1e-14\n")
        code, _, err = run(capsys, ["force", "--config", str(path), "--a", "100"])
        assert code == 2
        assert "unknown section [numeric]" in err


#: the oracle of `_read_ini`: configparser with inline comments and no
#: interpolation
def configparser_sections(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    cp.read(path)
    return {name: dict(cp[name]) for name in cp.sections()}


_INI_TEXT = "abcXYZ019_.-+%/"
_INI_BLANK = st.sampled_from(["", " ", "\t", "  "])
_INI_COMMENT = st.tuples(st.sampled_from(["#", ";"]),
                         st.text(max_size=10).filter(lambda t: not {"\n", "\r"} & set(t)))
_INI_INLINE = st.none() | st.tuples(st.sampled_from([" ", "\t", "  "]),
                                    st.sampled_from(["#", ";"]),
                                    st.text(_INI_TEXT + " #;=:", max_size=8))


@st.composite
def ini_files(draw):
    """Well-formed INI text: unique sections, keys unique up to case, either
    delimiter, blanks around it, full-line and inline comments."""
    def line(text):
        return text + "".join(draw(_INI_INLINE) or ())

    lines = ["".join(draw(_INI_COMMENT)) for _ in range(draw(st.integers(0, 2)))]
    names = draw(st.lists(st.text(_INI_TEXT + " ]=:", min_size=1, max_size=8)
                          .filter(lambda n: n.strip() and n != "DEFAULT"),
                          unique=True, max_size=4))
    for name in names:
        lines.append(line(f"[{name}]"))
        keys = draw(st.lists(st.text(_INI_TEXT + " ", min_size=1, max_size=8)
                             .map(str.strip).filter(bool),
                             unique_by=str.lower, max_size=5))
        for key in keys:
            lines.append(line(f"{key}{draw(_INI_BLANK)}{draw(st.sampled_from('=:'))}"
                              f"{draw(_INI_BLANK)}{draw(st.text(_INI_TEXT + ' =:[]', max_size=10))}"))
            if draw(st.booleans()):
                lines.append(draw(st.just("") | _INI_COMMENT.map("".join)))
    return "\n".join(lines) + "\n"


class TestIniReader:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ini_files())
    def test_matches_configparser(self, tmp_path, text):
        path = tmp_path / "generated.ini"
        path.write_text(text)
        assert _read_ini(path) == configparser_sections(path)

    def test_bundled_configs_match_configparser(self):
        root = Path(__file__).resolve().parents[1]
        for path in (package_data_dir() / "sample_config.ini",
                     root / "perfbench" / "drude_config.ini"):
            assert _read_ini(path) == configparser_sections(path)

    @pytest.mark.parametrize("text, lineno, cause", [
        ("# a comment\n\nsphere_radius = 1\n", 3, "no [section] header above it"),
        ("[geometry]\nsphere_radius = 1\n[thermal]\n[geometry]\n", 4,
         "section [geometry] appears twice"),
        ("[geometry]\nsphere_radius = 1\nSphere_Radius: 2\n", 3,
         "key [geometry] sphere_radius appears twice"),
        ("[geometry]\nsphere_radius 1\n", 2, "not a 'key = value' line"),
        ("[geometry]\n= 1\n", 2, "not a 'key = value' line"),
        ("[dielectric]\nfit_range = 2e14\n    2e15\n", 3,
         "not a 'key = value' line")],
        ids=["no-header", "section-twice", "key-twice", "no-delimiter",
             "no-key", "continuation-line"])
    def test_error_names_the_line(self, tmp_path, text, lineno, cause):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            _read_ini(path)
        assert str(info.value) == f"{path}: line {lineno}: {cause}"

    def test_default_section_is_an_unknown_section(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\ntemperature = 300\n\n" + DRUDE_INI)
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_run_config(path)


#: a tabulated config whose Drude parameters come from a fit to its dataset
FIT_INI = TABULATED_INI.replace("omega_p = 1.38e16\nomega_tau = 5.38e13\n",
                                "fit_range = 2e14 2e15\n")


class TestConfigDrudeFit:
    def test_force_uses_the_fitted_parameters(self, tmp_path, capsys):
        path = tmp_path / "fit.ini"
        path.write_text(FIT_INI)
        code, out, err = run(capsys, ["force", "--config", str(path), "--a", "63"])
        assert code == 0, err
        ds = load_dataset(package_data_dir() / "gold_synthetic.csv")
        model = DielectricModel(fit_drude(ds, (2e14, 2e15)).parameters, ds,
                                omega0=1.519267448e14, omega1=3.2e15)
        (expected,) = force_scan(95.65e-6, [63e-9], 300.0, model.epsilon)
        assert out.splitlines()[1].split(",")[1] == f"{expected.total:.9e}"

    def test_fit_drude_from_config_equals_from_dataset(self, tmp_path, capsys):
        path = tmp_path / "fit.ini"
        path.write_text(FIT_INI)
        argv = ["fit-drude", "--range", "2e14", "2e15"]
        code, out, err = run(capsys, argv + ["--config", str(path)])
        assert code == 0, err
        assert out == run(capsys, argv + ["--dataset", "gold_synthetic.csv"])[1]


@pytest.mark.parametrize("ini, argv, fragment", [
    (TABULATED_INI.replace("model = tabulated", "model = lorentz"),
     ["force", "--a", "63"], "[dielectric] model"),
    (TABULATED_INI.replace("dataset = gold_synthetic.csv\n", ""),
     ["force", "--a", "63"], "model=tabulated needs a dataset"),
    (FIT_INI.replace("fit_range = 2e14 2e15", "fit_range = 2e14"),
     ["force", "--a", "63"], "[dielectric] fit_range"),
    (FIT_INI.replace("fit_range = 2e14 2e15", "fit_range = 2e15 2e14"),
     ["force", "--a", "63"], "[dielectric] fit_range"),
    (TABULATED_INI.replace("omega1 = 3.2e15", "omega1 = 1e14"),
     ["force", "--a", "63"], "[dielectric] boundaries"),
    (TABULATED_INI.replace("omega1 = 3.2e15", "omega1 = 3.2e15\ntail_exponent = 1"),
     ["force", "--a", "63"], "[dielectric] tail_exponent"),
    (TABULATED_INI.replace("sphere_radius = 95.65e-6", "sphere_radius = 0"),
     ["force", "--a", "63"], "[geometry] sphere_radius"),
    (TABULATED_INI + "\n[thermal]\ntemperature = -1\n",
     ["force", "--a", "63"], "[thermal] temperature"),
    ("[geometry]" + TABULATED_INI.split("[geometry]")[1],
     ["force", "--a", "63"], "[dielectric] section"),
    (TABULATED_INI.replace("sphere_radius = 95.65e-6", ""),
     ["force", "--a", "63"], "[geometry] sphere_radius"),
    ("sphere_radius = 95.65e-6\n", ["force", "--a", "63"],
     "bad.ini: line 1: no [section] header"),
    (TABULATED_INI.replace("[geometry]", "[geometry]\nsphere_radius = 1"),
     ["force", "--a", "63"], "line 11: key [geometry] sphere_radius appears twice"),
    (TABULATED_INI.replace("omega_p = 1.38e16", "omega_p = -1.38e16"),
     ["force", "--a", "63"], "[dielectric] omega_p must be positive"),
    (TABULATED_INI.replace("omega_p = 1.38e16", "omega_p = 1e200"),
     ["force", "--a", "63"],
     "[dielectric] omega_p must be positive, with a finite square"),
    (FIT_INI.replace("fit_range = 2e14 2e15", "fit_range = 2e14 2e15\n"
                     "fit_fixed_omega_p = -3"),
     ["force", "--a", "63"], "[dielectric] fit_fixed_omega_p"),
    (FIT_INI.replace("model = tabulated\n", "").replace(
        "dataset = gold_synthetic.csv\n", ""),
     ["force", "--a", "63"], "[dielectric] fit_range needs a dataset"),
    (TABULATED_INI + "\n[force]\nprescription = 50%\n",
     ["force", "--a", "63"], "got '50%'"),
    (TABULATED_INI.replace("omega1", "fit_range = 2e14 2e15\nomega1"),
     ["force", "--a", "63"], "[dielectric] fit_range conflicts with omega_p"),
    (TABULATED_INI.replace("omega1", "fit_fixed_omega_p = 1.38e16\nomega1"),
     ["force", "--a", "63"], "[dielectric] fit_fixed_omega_p conflicts with omega_p"),
    (FIT_INI.replace("omega1", "omega_tau = 5.38e13\nomega1"),
     ["force", "--a", "63"], "[dielectric] omega_tau conflicts with fit_range"),
    (DRUDE_INI, ["fit-drude", "--range", "2e14", "2e15"],
     "config declares no dataset to fit"),
], ids=["unknown-model", "tabulated-without-dataset", "one-value-fit-range",
        "reversed-fit-range", "omega1-below-omega0", "tail-exponent-1",
        "zero-radius", "negative-temperature", "no-dielectric-section",
        "no-sphere-radius", "unparsable", "repeated-key", "negative-omega-p",
        "overflowing-omega-p", "negative-fixed-omega-p", "fit-without-dataset", "percent-in-value",
        "fit-range-with-omega-p", "fixed-omega-p-with-omega-p",
        "omega-tau-with-fit-range", "fit-drude-without-dataset"])
def test_input_error_names_key_or_flag(tmp_path, capsys, ini, argv, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(ini)
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert fragment in err
    # one line, with no repr of a path in it
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "PosixPath" not in err


def test_missing_config_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "absent.ini"
    code, out, err = run(capsys, ["force", "--a", "63", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"aucasimir: error: config file not found: {path}\n"


class TestZeroTemperature:
    """A finite-T command needs T > 0; with [thermal] temperature = 0 the
    finite-T commands fail before the dielectric model is built."""

    @pytest.fixture
    def zero_config(self, tmp_path, built_models):
        path = tmp_path / "cold.ini"
        path.write_text(DRUDE_INI.replace("temperature = 300.0",
                                          "temperature = 0"))
        return str(path), built_models

    @pytest.mark.parametrize("argv", [
        ["force", "--a", "100"],
        ["force", "--a", "100", "--mode", "both"],
        ["residuals", "--experiment",
         str(package_data_dir() / "experiment_sample.csv")]],
        ids=["force-finite_T", "force-both", "residuals"])
    def test_finite_T_command_names_key_and_zero_T_mode(self, zero_config,
                                                        capsys, argv):
        path, built = zero_config
        code, out, err = run(capsys, argv + ["--config", path])
        assert code == 2
        assert out == ""
        assert "[thermal] temperature" in err and "--mode zero_T" in err
        assert "force_scan" not in err
        assert built == []

    def test_zero_T_mode_runs(self, zero_config, capsys):
        path, built = zero_config
        code, out, _ = run(capsys, ["force", "--config", path, "--a", "100",
                                    "--mode", "zero_T"])
        assert code == 0
        assert len(parse_csv(out)[1]) == 1
        assert len(built) == 1


def write_optical(path, omega, eps2):
    path.write_text("# unit=rad_s\n" + "".join(
        f"{w:.17g} {e:.17g}\n" for w, e in zip(omega, eps2)))


def test_earlier_dataset_wins_on_overlap(tmp_path, capsys):
    # dataset = low.csv, high.csv: the earlier file keeps every sample and
    # the later adds only those outside its span
    low = drude_dataset(DrudeParameters(1.38e16, 5.38e13), (1.5e14, 1e16))
    high = drude_dataset(DrudeParameters(1.28e16, 3.29e13), (1e15, 1e18))
    write_optical(tmp_path / "low.csv", low.omega, low.eps2)
    write_optical(tmp_path / "high.csv", high.omega, high.eps2)
    above = high.omega > low.omega_max
    write_optical(tmp_path / "merged.csv",
                  np.concatenate((low.omega, high.omega[above])),
                  np.concatenate((low.eps2, high.eps2[above])))
    outputs = {}
    for name, datasets in (("merged", "merged.csv"),
                           ("low first", "low.csv, high.csv"),
                           ("high first", "high.csv, low.csv")):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TABULATED_INI
                       .replace("gold_synthetic.csv", datasets)
                       .replace("omega0 = 1.519267448e14", "omega0 = 1.5e14"))
        code, outputs[name], err = run(capsys, ["epsilon", "--config", str(cfg),
                                              "--zeta-range", "1e13", "1e17", "5"])
        assert code == 0, err
    assert outputs["low first"] == outputs["merged"]
    assert outputs["high first"] != outputs["merged"]


def bundled_data_with_row(tmp_path, lineno, row):
    """Copy of the bundled optical data with line `lineno` replaced by `row`."""
    lines = (package_data_dir() / "gold_synthetic.csv").read_text().splitlines()
    lines[lineno - 1] = row
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestNonFiniteInput:
    """Non-finite table values are input errors that name file and line."""

    @pytest.mark.parametrize("row", ["inf,3.0", "1.0e15,nan"])
    def test_optical_data(self, tmp_path, capsys, row):
        data = bundled_data_with_row(tmp_path, 40, row)
        path = tmp_path / "cfg.ini"
        path.write_text(TABULATED_INI.replace("gold_synthetic.csv", str(data)))
        code, out, err = run(capsys, ["force", "--config", str(path), "--a", "100"])
        assert code == 2
        assert out == ""
        assert f"{data}:40: non-finite" in err

    @pytest.mark.parametrize("row", ["150,nan,3.5", "150,40,inf"])
    def test_experiment_data(self, drude_config, tmp_path, capsys, row):
        exp_file = tmp_path / "exp.csv"
        exp_file.write_text(f"100,120,3.5\n{row}\n")
        code, out, err = run(capsys, ["residuals", "--config", drude_config,
                                      "--experiment", str(exp_file)])
        assert code == 2
        assert out == ""
        assert f"{exp_file}:2: non-finite" in err


def run_python(code, *options, path=()):
    """stdout of `python <options> -c code` with src/, then `path`, on
    PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, *options, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), *path))),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_quadpack_out():
    # the runtime needs numpy only: QUADPACK, hyp2f1, the root finders and
    # the constants of scipy serve the tests as oracles
    out = run_python("import sys, aucasimir.cli; "
                     "print(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")
    assert out == "[]"


def test_cli_import_leaves_dataclasses_and_importlib_resources_out():
    # the records are NamedTuples, the bundled data sit next to config.py
    # and config.py reads its INI files itself; -S keeps the .pth files of
    # site-packages from loading any of these modules first, so numpy comes
    # through PYTHONPATH
    out = run_python("""
import sys
import numpy
before = set(sys.modules)
import aucasimir.cli
print(sorted({"dataclasses", "importlib.resources", "configparser"}
             & (set(sys.modules) - before)))
""", "-S", path=[str(Path(np.__file__).resolve().parents[1])])
    assert out == "[]"


def test_force_leaves_numpy_polynomial_out():
    # the Gauss-Legendre rules are tables, not built by leggauss
    config = str(package_data_dir() / "sample_config.ini")
    out = run_python(f"""
import contextlib, io, sys
import aucasimir.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["force", "--config", {config!r}, "--a", "63"]) == 0
print("numpy.polynomial" in sys.modules)
""")
    assert out == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts the process's threads in /proc")
def test_import_loads_blas_without_worker_threads():
    # an idle OpenBLAS worker spins on a second core after numpy loads, so a
    # command's CPU time would depend on how fast its imports went; the
    # user's setting is put back for child processes
    out = run_python("""
import os
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import aucasimir.cli
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
""")
    assert out == "1 2"


def test_commands_import_nothing_after_set_up():
    # every import a command needs is paid when the CLI is imported, so a
    # command's own time holds no module loading
    out = run_python(f"""
import contextlib, io, sys
import aucasimir.cli as cli
data = {str(package_data_dir())!r}
config, experiment = data + "/sample_config.ini", data + "/experiment_sample.csv"
before = set(sys.modules)
for argv in (["force", "--config", config, "--a", "100", "--mode", "both"],
             ["epsilon", "--config", config, "--zeta-range", "1e13", "1e18", "5"],
             ["residuals", "--config", config, "--experiment", experiment],
             ["yukawa-limit", "--points", "3"],
             ["fit-drude", "--config", config, "--range", "2e14", "2e15"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(set(sys.modules) - before))
""")
    assert out == "[]"


def test_commands_leave_the_collector_as_found():
    # a command makes no reference cycles, so the collector is off inside
    # `main`: at a threshold of 1, where any allocation would start a
    # collection, none runs inside it, none is left for one after it, and
    # the collector's state is the one `main` found
    root = Path(__file__).resolve().parents[1]
    data = package_data_dir()
    out = run_python(f"""
import contextlib, gc, io, sys
import aucasimir.cli as cli
tabulated = {str(data / "sample_config.ini")!r}
drude = {str(root / "perfbench" / "drude_config.ini")!r}
commands = (
    ["force", "--config", tabulated, "--mode", "finite_T", "--a-range", "63", "170", "2"],
    ["force", "--config", drude, "--mode", "both", "--a-range", "60", "200", "8"],
    ["residuals", "--config", drude, "--experiment", {str(data / "experiment_sample.csv")!r}],
    ["yukawa-limit", "--residual-bound", "2.5"],
    ["epsilon", "--config", tabulated, "--zeta-range", "1e13", "1e17", "41"])
inside, found = [], []

def hook(phase, info):
    if phase == "stop":
        found.append(info["collected"])
        return
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not cli.main.__code__:
        frame = frame.f_back
    if frame is not None:
        inside.append(info["generation"])

gc.callbacks.append(hook)
gc.set_threshold(1)
for enabled in (True, False):
    for argv in commands:
        gc.collect()
        found.clear()
        (gc.enable if enabled else gc.disable)()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--output", "json"]) == 0, argv
        state = gc.isenabled()
        gc.collect()
        print(argv[0], enabled, state, inside, sum(found))
        inside.clear()
gc.enable()
""")
    for line in out.splitlines():
        command, before, after, inside, garbage = line.split(" ", 4)
        assert after == before, line
        assert inside == "[]", line
        assert garbage == "0", line
    assert len(out.splitlines()) == 10


@pytest.mark.parametrize("argv, status", [
    (["epsilon", "--zeta", "1e15"], 0),
    (["epsilon", "--zeta", "-1"], 2),
], ids=["ok", "input-error"])
def test_console_script_exits_with_the_status_of_main(drude_config, monkeypatch,
                                                      capsys, argv, status):
    # `entry` is the `aucasimir` console script: sys.argv in, main's code out
    monkeypatch.setattr(sys, "argv", ["aucasimir", *argv, "--config", drude_config])
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == status
    assert (capsys.readouterr().err == "") == (status == 0)
