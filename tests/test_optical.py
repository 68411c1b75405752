import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aucasimir import (DataFormatError, OpticalDataset, interpolate_eps2,
                       load_dataset, merge_datasets)
from aucasimir.optical import drude_eps2

# 0.1 eV * e / hbar, evaluated by hand from CODATA values
OMEGA_01EV = 1.519267e14


def samples(ds):
    """The dataset as a list of (omega, eps2, source) triples."""
    return list(zip(ds.omega.tolist(), ds.eps2.tolist(), ds.source.tolist()))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_ev_unit_conversion(self, tmp_path):
        path = write(tmp_path, "# unit=eV source=test\n0.1 5.0\n0.2 2.0\n")
        ds = load_dataset(path)
        assert ds.omega[0] == pytest.approx(OMEGA_01EV, rel=1e-6)
        assert ds.omega[1] == pytest.approx(2 * OMEGA_01EV, rel=1e-6)
        assert ds.eps2[0] == 5.0
        assert ds.source[0] == "test"

    def test_single_row(self, tmp_path):
        ds = load_dataset(write(tmp_path, "# unit=rad_s\n1e15 3.0\n"))
        assert ds.omega_min == ds.omega_max == 1e15

    def test_out_of_order_rows_sorted(self, tmp_path):
        ds = load_dataset(write(tmp_path, "# unit=rad_s\n2e15 1.0\n1e15 2.0\n"))
        assert ds.omega.tolist() == [1e15, 2e15]

    def test_comma_separated(self, tmp_path):
        ds = load_dataset(write(tmp_path, "# unit=rad_s\n1e15,3.0\n"))
        assert ds.eps2[0] == 3.0

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "# unit=rad_s\n1e15 2.0\n1e16 oops\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["1e14,2.0,,", "1e14,,2.0", "1e14,2.0,"])
    def test_empty_field_reports_line(self, tmp_path, row):
        path = write(tmp_path, f"# unit=rad_s\n1e15,2.0\n{row}\n")
        with pytest.raises(DataFormatError, match=":3: empty field"):
            load_dataset(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = write(tmp_path, "# unit=rad_s\n1e15 2.0 7.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(path)

    def test_non_positive_value_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="positive"):
            load_dataset(write(tmp_path, "# unit=rad_s\n1e15 -2.0\n"))

    @pytest.mark.parametrize("row", ["inf 2.0", "1e15 nan", "-inf 2.0"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        path = write(tmp_path, f"# unit=rad_s\n1e14 3.0\n{row}\n")
        with pytest.raises(DataFormatError, match=":3: non-finite"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data"):
            load_dataset(write(tmp_path, "# unit=rad_s\n"))

    def test_missing_unit_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="unit"):
            load_dataset(write(tmp_path, "1e15 2.0\n"))

    def test_repeated_frequency_names_the_file(self, tmp_path):
        path = write(tmp_path, "# unit=rad_s\n1e15 2.0\n2e15 1.0\n1e15 3.0\n")
        message = f"{path}: repeated frequency omega=1000000000000000.0: samples must"
        with pytest.raises(DataFormatError, match="^" + re.escape(message)):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_dataset(tmp_path / "nope.csv")


class TestMergeDatasets:
    def a_and_b(self):
        a = OpticalDataset([1e14, 5e14, 1e15], [10, 5, 2], "a")
        b = OpticalDataset([8e14, 9e14, 2e15, 1e16], [4, 3, 1, 0.5], "b")
        return a, b

    def test_precedence_drops_overlapping_loser_samples(self):
        a, b = self.a_and_b()
        merged = merge_datasets(a, b)
        omegas = merged.omega.tolist()
        assert omegas == [1e14, 5e14, 1e15, 2e15, 1e16]
        # b's 8e14 and 9e14 fall inside a's span and are gone
        assert all(s == "a" for s in merged.source[:3])

    def test_disjoint_ranges_concatenate(self):
        a = OpticalDataset([1e14, 2e14], [1, 2], "a")
        b = OpticalDataset([1e15, 2e15], [3, 4], "b")
        merged = merge_datasets(a, b)
        assert merged.omega.tolist() == [1e14, 2e14, 1e15, 2e15]

    def test_idempotent(self):
        a, _ = self.a_and_b()
        assert samples(merge_datasets(a, a)) == samples(a)

    def test_output_satisfies_invariants(self):
        a, b = self.a_and_b()
        merged = merge_datasets(a, b)
        omega = merged.omega.tolist()
        assert omega == sorted(omega)
        assert len(set(omega)) == len(omega)


class TestInterpolate:
    def test_exact_at_nodes(self):
        ds = OpticalDataset([1e14, 1e15, 1e16], [10, 1, 0.3])
        for omega, eps2 in zip(ds.omega.tolist(), ds.eps2.tolist()):
            assert interpolate_eps2(ds, omega) == eps2

    def test_loglog_midpoint(self):
        ds = OpticalDataset([1e14, 1e15], [10.0, 1.0])
        # hand value: half a decade along the chord, 10^0.5
        assert interpolate_eps2(ds, 10**14.5) == pytest.approx(
            3.1622776601683795, rel=1e-12)

    def test_constant_segment(self):
        ds = OpticalDataset([1e14, 1e15], [5.0, 5.0])
        assert interpolate_eps2(ds, 3e14) == pytest.approx(5.0, rel=1e-12)

    def test_out_of_range(self):
        ds = OpticalDataset([1e14, 1e15], [5.0, 5.0])
        with pytest.raises(ValueError, match="outside"):
            interpolate_eps2(ds, 9e13)
        with pytest.raises(ValueError, match="outside"):
            interpolate_eps2(ds, 1.1e15)

    def test_nan_rejected(self):
        ds = OpticalDataset([1e14, 1e15], [5.0, 5.0])
        with pytest.raises(ValueError, match="outside"):
            interpolate_eps2(ds, np.array([3e14, np.nan]))

    def test_array_input(self):
        ds = OpticalDataset([1e14, 1e15], [10.0, 1.0])
        out = interpolate_eps2(ds, np.array([1e14, 10**14.5, 1e15]))
        assert out[0] == 10.0 and out[2] == 1.0

    def test_scalar_is_0d_array(self):
        # a scalar omega gives a numpy float64 equal to the array element
        ds = OpticalDataset([1e14, 1e15], [10.0, 1.0])
        omega = np.array([1e14, 10**14.5, 1e15])
        for evaluate in (lambda w: interpolate_eps2(ds, w),
                         lambda w: drude_eps2(1.37e16, 4e13, w)):
            for i, w in enumerate(omega):
                value = evaluate(float(w))
                assert type(value) is np.float64
                assert value == evaluate(omega)[i]

    @pytest.mark.parametrize("slope", [-2.5, -1.0, 0.7])
    def test_colinear_property(self, slope):
        # three samples on one log-log line: interior interpolation stays
        # on that line to 1e-12 relative
        omega = np.array([2e14, 7e14, 3e15])
        eps2 = 4.0 * (omega / 1e15) ** slope
        ds = OpticalDataset(omega, eps2)
        for w in np.geomspace(2.2e14, 2.8e15, 7):
            expected = 4.0 * (w / 1e15) ** slope
            assert interpolate_eps2(ds, float(w)) == pytest.approx(
                expected, rel=1e-12)


class TestDrudeEps2:
    def test_hand_value(self):
        # single-crystal parameters at 1e15 rad/s
        assert drude_eps2(1.37e16, 3.7e13, 1e15) == pytest.approx(6.935036, rel=1e-5)

    def test_value_at_relaxation_frequency(self):
        # hand value: eps''(omega_tau) = omega_p^2 / (2 omega_tau^2)
        assert drude_eps2(1.37e16, 4.06e13, 4.06e13) == pytest.approx(5.692967e4,
                                                                      rel=1e-4)


class TestInvariants:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            OpticalDataset([-1e14], [1.0])
        with pytest.raises(ValueError):
            OpticalDataset([1e14], [0.0])

    def test_dataset_requires_strictly_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            OpticalDataset([1e14, 1e14], [1.0, 2.0])

    def test_dataset_requires_samples(self):
        with pytest.raises(ValueError):
            OpticalDataset([], [])

    def test_fields_are_the_columns(self):
        assert OpticalDataset._fields == ("omega", "eps2", "source")

    def test_sorted_stably_with_tags(self):
        ds = OpticalDataset([3e14, 1e14, 2e14], [3.0, 1.0, 2.0], ["c", "a", "b"])
        assert samples(ds) == [(1e14, 1.0, "a"), (2e14, 2.0, "b"),
                               (3e14, 3.0, "c")]

    def test_single_tag_for_every_sample(self):
        assert OpticalDataset([1e14, 2e14], [1.0, 2.0], "x").source.tolist() == [
            "x", "x"]

    @pytest.mark.parametrize("omega, eps2", [
        ([1e14, np.inf], [1.0, 2.0]), ([1e14, np.nan], [1.0, 2.0]),
        ([1e14, 2e14], [1.0, np.nan]), ([1e14, 2e14], [np.inf, 2.0])])
    def test_non_finite_rejected(self, omega, eps2):
        with pytest.raises(ValueError, match="finite"):
            OpticalDataset(omega, eps2)

    @pytest.mark.parametrize("eps2, source", [([1.0], "x"),
                                              ([1.0, 2.0], ["a"])])
    def test_unequal_lengths_rejected(self, eps2, source):
        with pytest.raises(ValueError, match="length"):
            OpticalDataset([1e14, 2e14], eps2, source)

    def test_columns_read_only_and_inputs_untouched(self):
        omega = np.array([2e14, 1e14])
        ds = OpticalDataset(omega, [2.0, 1.0], "x")
        for column in (ds.omega, ds.eps2, ds.source):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        assert omega.flags.writeable and omega.tolist() == [2e14, 1e14]


# tables of 2-12 samples on a 0.01-decade lattice over 1e13-1e17 rad/s, so
# every drawn frequency is distinct; derandomized so that every run draws
# the same examples
def tables(label):
    return st.lists(st.integers(1300, 1700), min_size=2, max_size=12,
                    unique=True).flatmap(lambda exps: st.lists(
                        st.floats(1e-3, 1e3), min_size=len(exps),
                        max_size=len(exps)).map(
                            lambda eps2: OpticalDataset(
                                [10.0 ** (k / 100) for k in exps], eps2,
                                label)))


properties = settings(max_examples=50, deadline=None, derandomize=True)


class TestProperties:
    @properties
    @given(tables("winner"), tables("other"))
    def test_merge_keeps_winner_verbatim(self, winner, other):
        merged = merge_datasets(winner, other)
        assert np.all(np.diff(merged.omega) > 0)
        assert set(samples(winner)) <= set(samples(merged))
        # the other adds exactly its samples outside the winner's span
        assert [s for s in samples(merged) if s not in samples(winner)] == [
            s for s in samples(other)
            if not winner.omega_min <= s[0] <= winner.omega_max]
