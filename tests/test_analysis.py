import math
import re

import pytest

from aucasimir import (DataFormatError, DomainError, ExperimentRecord,
                       load_experiment, residual_lower_bound, residual_report)
from aucasimir.config import package_data_dir


def write(tmp_path, text):
    path = tmp_path / "experiment.csv"
    path.write_text(text)
    return path


class TestLoadExperiment:
    def test_bundled_sample(self):
        records = load_experiment(package_data_dir() / "experiment_sample.csv")
        assert len(records) == 1
        rec = records[0]
        assert rec.separation == pytest.approx(63e-9)
        assert rec.force_measured == 491.0
        assert rec.sigma == 3.5

    def test_sorted_by_separation(self, tmp_path):
        path = write(tmp_path, "# columns=a_nm,F_pN,sigma_pN\n"
                               "100,100,1\n63,491,3.5\n")
        records = load_experiment(path)
        assert [r.separation for r in records] == pytest.approx([63e-9, 100e-9])

    def test_duplicates_kept_stable(self, tmp_path):
        path = write(tmp_path, "63,491,3.5\n63,489,3.5\n")
        records = load_experiment(path)
        assert [r.force_measured for r in records] == [491.0, 489.0]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data"):
            load_experiment(write(tmp_path, "# columns=a_nm,F_pN,sigma_pN\n"))

    def test_malformed_reports_line(self, tmp_path):
        with pytest.raises(DataFormatError, match=":2"):
            load_experiment(write(tmp_path, "63,491,3.5\n100,x,3\n"))

    def test_bad_sigma_reports_line(self, tmp_path):
        with pytest.raises(DataFormatError, match=":1"):
            load_experiment(write(tmp_path, "63,491,-3.5\n"))

    @pytest.mark.parametrize("row", ["63,3.5,,0.1", "63,491,3.5,", ",63,491,3.5",
                                     "63, ,491,3.5"])
    def test_empty_field_reports_line(self, tmp_path, row):
        with pytest.raises(DataFormatError, match=":2: empty field"):
            load_experiment(write(tmp_path, f"100,120,3\n{row}\n"))

    @pytest.mark.parametrize("row", ["63,nan,3.5", "63,491,inf", "nan,491,3.5"])
    def test_non_finite_reports_line(self, tmp_path, row):
        with pytest.raises(DataFormatError, match=":2: non-finite"):
            load_experiment(write(tmp_path, f"100,120,3\n{row}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_experiment(tmp_path / "gone.csv")

    @pytest.mark.parametrize("fields", [(math.nan, 491.0, 3.5),
                                        (63e-9, math.nan, 3.5),
                                        (63e-9, 491.0, math.inf)])
    def test_record_rejects_non_finite(self, fields):
        with pytest.raises(ValueError, match="finite"):
            ExperimentRecord(*fields)


class TestResidualReport:
    def test_anchor_point(self):
        records = [ExperimentRecord(63e-9, 491.0, 3.5)]
        report = residual_report(records, 477.0)
        row = report.rows[0]
        assert row.delta_f == pytest.approx(14.0, rel=1e-12)
        assert row.sigma_ratio == pytest.approx(4.0, rel=1e-12)
        assert report.max_sigma_exceedance == pytest.approx(4.0, rel=1e-12)

    def test_theory_equal_to_measurement(self):
        records = [ExperimentRecord(63e-9, 491.0, 3.5),
                   ExperimentRecord(100e-9, 150.0, 2.0)]
        report = residual_report(records, [491.0, 150.0])
        assert all(r.delta_f == 0.0 for r in report.rows)
        assert report.rms_deviation == 0.0

    def test_scalar_applies_to_every_record(self):
        records = [ExperimentRecord(60e-9, 103.0, 1.0),
                   ExperimentRecord(80e-9, 104.0, 1.0),
                   ExperimentRecord(120e-9, 90.0, 1.0)]
        report = residual_report(records, 100.0)
        assert report == residual_report(records, [100.0] * 3)
        assert [r.force_theory for r in report.rows] == [100.0] * 3

    def test_rms_hand_value(self):
        records = [ExperimentRecord(60e-9, 103.0, 1.0),
                   ExperimentRecord(80e-9, 104.0, 1.0)]
        report = residual_report(records, 100.0)
        assert report.rms_deviation == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_reordering_invariance(self):
        records = [ExperimentRecord(60e-9, 103.0, 1.0),
                   ExperimentRecord(80e-9, 107.0, 2.0),
                   ExperimentRecord(70e-9, 96.0, 0.5)]
        fwd = residual_report(records, 100.0)
        rev = residual_report(list(reversed(records)), 100.0)
        assert fwd.rms_deviation == rev.rms_deviation
        assert fwd.max_sigma_exceedance == rev.max_sigma_exceedance

    def test_zero_residual_row_lowers_rms(self):
        base = [ExperimentRecord(60e-9, 103.0, 1.0)]
        extended = base + [ExperimentRecord(80e-9, 100.0, 1.0)]
        r_base = residual_report(base, 100.0)
        r_ext = residual_report(extended, 100.0)
        assert r_ext.rms_deviation < r_base.rms_deviation
        assert r_ext.max_sigma_exceedance == r_base.max_sigma_exceedance

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_theory_names_the_separation(self, value):
        records = [ExperimentRecord(60e-9, 103.0, 1.0),
                   ExperimentRecord(80e-9, 104.0, 1.0)]
        with pytest.raises(DomainError, match="a = 80 nm"):
            residual_report(records, [100.0, value])

    @pytest.mark.parametrize("measured, sigma, theory, message", [
        (1e10, 1e-300, 0.0, "dF = 1e+10 pN at a = 80 nm overflows dF/sigma"),
        (1.7e308, 1.0, -1.7e308, "dF = inf pN at a = 80 nm overflows dF/sigma"),
        (1e200, 3.5, 0.0, "dF = 1e+200 pN at a = 80 nm overflows the rms"),
        # 1e154 and 1.2e154 square to finite floats, but their sum does not
        (1.2e154, 1.0, 0.0, "dF = 1.2e+154 pN at a = 80 nm overflows the rms"),
    ], ids=["ratio", "difference", "square", "sum-of-squares"])
    def test_overflow_names_the_separation(self, measured, sigma, theory,
                                           message):
        records = [ExperimentRecord(60e-9, 1e154, 1.0),
                   ExperimentRecord(80e-9, measured, sigma)]
        with pytest.raises(DomainError, match=re.escape(message)):
            residual_report(records, [0.0, theory])

    @pytest.mark.parametrize("forces", [[100.0], [100.0, 100.0, 100.0]],
                             ids=["one", "three"])
    def test_force_count_must_match_the_records(self, forces):
        records = [ExperimentRecord(60e-9, 103.0, 1.0),
                   ExperimentRecord(80e-9, 104.0, 1.0)]
        with pytest.raises(ValueError, match="experiment records"):
            residual_report(records, forces)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no experiment records"):
            residual_report([], 100.0)


class TestResidualLowerBound:
    def test_anchor(self):
        assert residual_lower_bound(17.0, 3.5, 2.0) == pytest.approx(10.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 3.5, 2.0), (math.inf, 3.5, 2.0), (0.0, 3.5, 2.0),
        (17.0, math.nan, 2.0), (17.0, math.inf, 2.0), (17.0, 0.0, 2.0),
        (17.0, 3.5, math.nan), (17.0, 3.5, math.inf), (17.0, 3.5, -1.0)])
    def test_rejects_non_finite_or_out_of_range(self, args):
        with pytest.raises(ValueError, match="finite"):
            residual_lower_bound(*args)

    def test_floored_at_zero(self):
        assert residual_lower_bound(5.0, 3.5, 2.0) == 0.0

    def test_zero_confidence_identity(self):
        assert residual_lower_bound(17.0, 3.5, 0.0) == 17.0

    def test_monotone_decreasing_in_confidence(self):
        values = [residual_lower_bound(17.0, 3.5, s) for s in (0.0, 1.0, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_lower_bound(-1.0, 3.5, 2.0)
