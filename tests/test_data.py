import numpy as np
import pytest

from cardioseq import cli
from cardioseq import data as dp
from cardioseq.errors import (
    AllMissingColumnError,
    ArityMismatchError,
    EmptyDatasetError,
    MalformedRowError,
    MissingValueError,
    SingleClassDataError,
    UnknownLabelError,
)


def make_dataset(columns, labels=None, categorical_mask=None):
    """Build a dataset whose first columns are given; the rest are zeros."""
    n = len(columns[0])
    rows = []
    for i in range(n):
        feats = [columns[j][i] if j < len(columns) else 0.0 for j in range(13)]
        rows.append(dp.SampleRecord(tuple(feats), labels[i] if labels else i % 2))
    mask = categorical_mask or (False,) * 13
    return dp.Dataset.from_records(tuple(rows), categorical_mask=mask)


class TestParsing:
    def test_statlog_line(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("70.0 1.0 4.0 130.0 322.0 0.0 2.0 109.0 0.0 2.4 2.0 3.0 3.0 2\n")
        ds = dp.parse_dataset(p, "statlog")
        assert len(ds) == 1
        assert ds.records[0].label == 1
        assert ds.records[0].features[0] == 70.0

    def test_statlog_label_one_maps_to_absence(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 1\n")
        assert dp.parse_dataset(p, "statlog").records[0].label == 0

    def test_cleveland_missing_marker(self, tmp_path):
        p = tmp_path / "cleveland.data"
        p.write_text("58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,?,4\n")
        rec = dp.parse_dataset(p, "cleveland").records[0]
        assert rec.features[12] is None
        assert rec.label == 1  # levels 1..4 collapse to presence

    def test_cleveland_label_zero(self, tmp_path):
        p = tmp_path / "cleveland.data"
        p.write_text("58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,6.0,0\n")
        assert dp.parse_dataset(p, "cleveland").records[0].label == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.dat"
        p.write_text("")
        with pytest.raises(EmptyDatasetError):
            dp.parse_dataset(p, "statlog")

    def test_wrong_arity_reports_line(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n1 2 3 2\n")
        with pytest.raises(MalformedRowError) as err:
            dp.parse_dataset(p, "statlog")
        assert err.value.line_number == 2

    def test_unknown_statlog_label(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 9\n")
        with pytest.raises(UnknownLabelError):
            dp.parse_dataset(p, "statlog")

    def test_unparseable_token(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 oops 322 0 2 109 0 2.4 2 3 3 2\n")
        with pytest.raises(MalformedRowError):
            dp.parse_dataset(p, "statlog")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("dialect", ["statlog", "cleveland"])
    def test_non_finite_token_reports_line(self, tmp_path, dialect, token):
        sep = " " if dialect == "statlog" else ","
        good = sep.join("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2".split())
        bad = good.replace("130", token, 1)
        p = tmp_path / "bad.dat"
        p.write_text(f"{good}\n{bad}\n")
        with pytest.raises(MalformedRowError, match="non-finite") as err:
            dp.parse_dataset(p, dialect)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("value, label", [("58.0_0", "0"), ("5_8", "0"), ("58.0", "0_0"),
                                              ("58.0", "inf"), ("58.0", "1e999")])
    def test_malformed_numeral_reports_line(self, tmp_path, value, label):
        """float() reads `_` digit separators, and int(float()) of an
        infinite label overflows; a data row with either is located."""
        good = "58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,6.0,0"
        p = tmp_path / "bad.data"
        p.write_text(f"{good}\n{value}{good[4:-2]},{label}\n")
        error = MalformedRowError if value != "58.0" else UnknownLabelError
        with pytest.raises(error) as err:
            dp.parse_dataset(p, "cleveland")
        token = f"token {value!r}" if value != "58.0" else f"label {label!r}"
        assert str(err.value) == f"{p}:2: unparseable {token}"

    @pytest.mark.parametrize("token", ["5_8", "\uff15\uff18", "\u0665\u0668", "58\u00a0",
                                       " \u2007?"])
    def test_record_value_must_be_an_ascii_numeral(self, token):
        """A `predict` record has no file's ASCII check, so its values are
        checked one by one; a non-ASCII token is shown whole, escaped."""
        with pytest.raises(ValueError) as err:
            cli.parse_record(f"1,2,{token},4,5,6,7,8,9,10,11,12,1")
        assert str(err.value) == f"record value 3: unparseable token {ascii(token)}"

    def test_rows_and_records_share_one_value_parser(self, tmp_path, monkeypatch):
        """`parse_values` reads every data row and `predict` record, once per
        row; a token is stripped, `?` is missing only where allowed, and the
        messages name the line or the record's value position."""
        rows = []
        monkeypatch.setattr(dp, "parse_values",
                            lambda tokens, *args, real=dp.parse_values:
                            rows.append(len(tokens)) or real(tokens, *args))
        p = tmp_path / "h.data"
        p.write_text("70, 1,4,130,322,0,2,109,0,2.4,2, ? ,3,2\n" * 3)
        X = dp.parse_dataset(p, "cleveland").X
        assert rows == [13] * 3 and np.isnan(X[:, 11]).all() and X[0, 1] == 1.0
        assert cli.parse_record(" 70,1,4,130,322,0,2,109,0,2.4,2, ? ,3").features[10:] == (
            2.0, None, 3.0)
        assert rows == [13] * 4
        statlog = tmp_path / "h.dat"
        statlog.write_text("70 1 4 130 322 0 2 109 0 2.4 2 ? 3 2\n")
        with pytest.raises(MalformedRowError) as err:
            dp.parse_dataset(statlog, "statlog")
        assert str(err.value) == f"{statlog}:1: unparseable token '?'"
        with pytest.raises(ValueError) as err:
            cli.parse_record("70,1,4,130,322,0,2,109,0,2.4,2,3, inf ")
        assert str(err.value) == "record value 13: non-finite token 'inf'"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("\n70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n\n")
        assert len(dp.parse_dataset(p, "statlog")) == 1


class TestDatasetArrays:
    def test_parsed_arrays(self, tmp_path):
        p = tmp_path / "cleveland.data"
        p.write_text(
            "58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,?,4\n"
            "\n"
            "41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.4,1.0,?,3.0,0\n"
        )
        ds = dp.parse_dataset(p, "cleveland")
        assert ds.X.shape == (2, 13) and ds.X.dtype == np.float64
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0]
        assert np.isnan(ds.X[0, 12]) and np.isnan(ds.X[1, 11])
        assert ds.feature_array() is ds.X and ds.labels is ds.y
        assert ds.has_missing

    def test_arrays_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            tiny_dataset.y[0] = 1

    def test_constructor_copies_its_input(self):
        X = np.zeros((2, 13))
        ds = dp.Dataset(X, [0, 1])
        X[0, 0] = 5.0
        assert ds.X[0, 0] == 0.0

    def test_records_view_roundtrip(self):
        ds = make_dataset([[1.5, None, 3.0]], labels=[1, 0, 1])
        assert ds.records[1].features[0] is None
        assert ds.records[0].features[0] == 1.5
        assert [r.label for r in ds.records] == [1, 0, 1]
        again = dp.Dataset.from_records(ds.records, categorical_mask=ds.categorical_mask)
        np.testing.assert_array_equal(again.X, ds.X)
        np.testing.assert_array_equal(again.y, ds.y)

    def test_subset_keeps_rows_and_metadata(self):
        mask = (True,) + (False,) * 12
        ds = make_dataset([[1.0, 2.0, 3.0, 4.0]], categorical_mask=mask)
        sub = ds.subset([3, 1])
        assert sub.X[:, 0].tolist() == [4.0, 2.0]
        assert sub.y.tolist() == [1, 1]
        assert sub.categorical_mask == mask
        assert len(ds.subset([])) == 0

    @pytest.mark.parametrize("X, y", [
        (np.zeros((2, 12)), [0, 1]),
        (np.zeros((2, 13)), [0]),
        (np.zeros((2, 13)), [0, 2]),
    ])
    def test_bad_shapes_and_labels_rejected(self, X, y):
        with pytest.raises(ArityMismatchError):
            dp.Dataset(X, y)


def impute(data, stats_source=None):
    """Fill missing values with statistics from stats_source (default: data)."""
    fills = dp.fill_values(data if stats_source is None else stats_source)
    return dp.impute_with_values(data, fills)


class TestImputation:
    def test_numeric_mean_fill(self):
        ds = make_dataset([[1.0, 2.0, None, 3.0]])
        out = impute(ds)
        assert out.records[2].features[0] == pytest.approx(2.0)

    def test_mean_of_equal_values_is_that_value(self):
        # np.mean of 0.7 repeated 19 times is not 0.7; the fill must be, or
        # the imputed column would no longer be constant
        ds = make_dataset([[0.7] * 19 + [None]])
        assert dp.fill_values(ds)[0] == 0.7
        assert dp.fit_scaler(impute(ds)).constant[0]

    def test_categorical_mode_fill(self):
        mask = (True,) + (False,) * 12
        ds = make_dataset([[3.0, 3.0, None, 7.0]], categorical_mask=mask)
        out = impute(ds)
        assert out.records[2].features[0] == 3.0

    def test_categorical_mode_tie_takes_smallest(self):
        mask = (True,) + (False,) * 12
        ds = make_dataset([[7.0, 3.0, None, 7.0, 3.0]], categorical_mask=mask)
        assert dp.fill_values(ds)[0] == 3.0

    def test_complete_dataset_unchanged(self, tiny_dataset):
        np.testing.assert_array_equal(impute(tiny_dataset).X, tiny_dataset.X)

    def test_idempotent(self):
        ds = make_dataset([[1.0, None, 3.0, 5.0]])
        once = impute(ds)
        assert impute(once).records == once.records

    def test_stats_come_from_source_only(self):
        data = make_dataset([[None, 10.0, 10.0, 10.0]])
        source = make_dataset([[4.0, 6.0, 5.0, 5.0]])
        out = impute(data, stats_source=source)
        assert out.records[0].features[0] == pytest.approx(5.0)

    def test_all_missing_column(self):
        data = make_dataset([[None, None, None, None]])
        with pytest.raises(AllMissingColumnError):
            impute(data)


class TestScaler:
    def test_population_std(self):
        ds = make_dataset([[1.0, 2.0, 3.0]])
        stats = dp.fit_scaler(ds)
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(0.816496580927726)

    def test_constant_column_flagged(self):
        ds = make_dataset([[5.0, 5.0, 5.0]])
        stats = dp.fit_scaler(ds)
        assert stats.std[0] == 0.0
        assert stats.constant[0]

    def test_repeated_decimal_has_zero_spread(self):
        # 0.7 repeated: the mean is not exactly 0.7, so np.std is 1.1e-16
        ds = make_dataset([[0.7] * 20, [0.7] * 19 + [0.8]])
        stats = dp.fit_scaler(ds)
        assert stats.std[0] == 0.0 and stats.std[1] > 0.0
        scaled = dp.scale_values(np.array([[0.8] + [0.0] * 12]), stats)
        assert scaled[0, 0] == 0.0

    def test_single_record(self):
        ds = make_dataset([[4.0]])
        stats = dp.fit_scaler(ds)
        assert stats.mean[0] == 4.0
        assert np.all(stats.std == 0.0)

    def test_apply_known_values(self):
        ds = make_dataset([[1.0, 2.0, 3.0]])
        scaled = dp.scale_values(ds.feature_array(), dp.fit_scaler(ds))
        col = scaled[:, 0].tolist()
        assert col == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset([[5.0, 5.0, 5.0]])
        scaled = dp.scale_values(ds.feature_array(), dp.fit_scaler(ds))
        assert all(v == 0.0 for v in scaled[:, 0])

    def test_standardized_moments(self, rng):
        raw = rng.normal(50, 9, size=(40, 13))
        ds = dp.Dataset.from_records(tuple(
            dp.SampleRecord(tuple(row), int(i % 2)) for i, row in enumerate(raw)
        ))
        scaled = dp.scale_values(ds.feature_array(), dp.fit_scaler(ds))
        assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(scaled.std(axis=0) - 1.0) < 1e-9)

    def test_missing_values_rejected(self):
        ds = make_dataset([[1.0, None, 3.0]])
        with pytest.raises(MissingValueError):
            dp.fit_scaler(ds)


def test_record_arity_enforced():
    with pytest.raises(ArityMismatchError):
        dp.SampleRecord((1.0, 2.0), 0)


class TestFitPreprocessing:
    def test_fits_each_set_on_its_own_rows(self):
        sets = [make_dataset([[1.0, None, 3.0, 4.0]]), make_dataset([[2.0, 2.0, None, 8.0]])]
        for ds, (fills, imputed, scaler) in zip(sets, dp.fit_preprocessing(sets)):
            np.testing.assert_array_equal(fills, dp.fill_values(ds))
            np.testing.assert_array_equal(imputed.X, dp.impute_with_values(ds, fills).X)
            np.testing.assert_array_equal(scaler.mean, dp.fit_scaler(imputed).mean)
            np.testing.assert_array_equal(scaler.std, dp.fit_scaler(imputed).std)

    def test_both_classes_checked_before_any_fit(self):
        all_missing = make_dataset([[None, None]])
        one_class = make_dataset([[1.0, 2.0]], labels=[1, 1])
        with pytest.raises(SingleClassDataError,
                           match="^fold 1: training data must contain both classes$"):
            dp.fit_preprocessing([all_missing, one_class])
        with pytest.raises(SingleClassDataError, match="^training data must contain both"):
            dp.fit_preprocessing([one_class])
        with pytest.raises(AllMissingColumnError):
            dp.fit_preprocessing([all_missing])
