import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardioseq import cli, synthetic
from cardioseq import data as dp
from cardioseq.errors import (
    AllMissingColumnError,
    ArityMismatchError,
    CardioseqError,
    EmptyDatasetError,
    MalformedRowError,
    MissingValueError,
    NonAsciiFileError,
    SingleClassDataError,
    UnknownLabelError,
)


def make_dataset(columns, labels=None, categorical_mask=None):
    """Build a dataset whose first columns are given; the rest are zeros."""
    n = len(columns[0])
    X = np.zeros((n, 13))
    X[:, : len(columns)] = np.array(columns, dtype=float).T
    return dp.Dataset(X, labels or [i % 2 for i in range(n)], categorical_mask or (False,) * 13)


class TestParsing:
    def test_statlog_line(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("70.0 1.0 4.0 130.0 322.0 0.0 2.0 109.0 0.0 2.4 2.0 3.0 3.0 2\n")
        ds = dp.parse_dataset(p, "statlog")
        assert len(ds) == 1
        assert ds.y[0] == 1
        assert ds.X[0, 0] == 70.0

    def test_statlog_label_one_maps_to_absence(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 1\n")
        assert dp.parse_dataset(p, "statlog").y[0] == 0

    def test_cleveland_missing_marker(self, tmp_path):
        p = tmp_path / "cleveland.data"
        p.write_text("58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,?,4\n")
        ds = dp.parse_dataset(p, "cleveland")
        assert np.isnan(ds.X[0, 12])
        assert ds.y[0] == 1  # levels 1..4 collapse to presence

    def test_cleveland_label_zero(self, tmp_path):
        p = tmp_path / "cleveland.data"
        p.write_text("58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,6.0,0\n")
        assert dp.parse_dataset(p, "cleveland").y[0] == 0

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

    @pytest.mark.parametrize("label", ["0.5", "-0.9", "4.99", "1.5e0"])
    def test_cleveland_label_must_be_an_integer(self, tmp_path, label):
        """A label value outside 0..4 is rejected, not truncated: int(float()) would
        read 0.5 and -0.9 as absence and 4.99 as presence."""
        good = "58.0,1.0,4.0,114.0,318.0,0.0,1.0,140.0,0.0,4.4,3.0,3.0,6.0,"
        p = tmp_path / "bad.data"
        p.write_text(f"{good}0\n{good}{label}\n")
        with pytest.raises(UnknownLabelError) as err:
            dp.parse_dataset(p, "cleveland")
        assert str(err.value) == f"{p}:2: cleveland label {label!r} is not an integer"
        p.write_text(f"{good}1.0\n{good}1e0\n{good} 3 \n{good}-0\n")
        assert dp.parse_dataset(p, "cleveland").y.tolist() == [1, 1, 1, 0]

    @pytest.mark.parametrize("token", ["5_8", "\uff15\uff18", "\u0665\u0668", "58\u00a0",
                                       " \u2007?"])
    def test_record_value_must_be_an_ascii_numeral(self, token):
        """A `predict` record has no file's ASCII check, so its values are
        checked one by one; a non-ASCII token is shown whole, escaped."""
        with pytest.raises(ValueError) as err:
            cli.parse_record(f"1,2,{token},4,5,6,7,8,9,10,11,12,1")
        assert str(err.value) == f"record value 3: unparseable token {ascii(token)}"

    def test_rows_and_records_share_one_value_parser(self, tmp_path, monkeypatch):
        """`parse_values` reads every row the row-by-row parser reads and every
        `predict` record, once per row; a token is stripped, `?` is missing
        only where allowed, and the messages name the line or the record's
        value position. A clean file is read in one numpy pass instead, which
        TestCleanFileRead checks against the row-by-row parser; this file's
        spaced ` ? ` is not clean, so its rows go through `parse_values`."""
        rows = []
        monkeypatch.setattr(dp, "parse_values",
                            lambda tokens, *args, real=dp.parse_values:
                            rows.append(len(tokens)) or real(tokens, *args))
        p = tmp_path / "h.data"
        p.write_text("70, 1,4,130,322,0,2,109,0,2.4,2, ? ,3,2\n" * 3)
        assert dp._read_clean(p.read_text().splitlines(), "cleveland") is None
        X = dp.parse_dataset(p, "cleveland").X
        assert rows == [13] * 3 and np.isnan(X[:, 11]).all() and X[0, 1] == 1.0
        row = cli.parse_record(" 70,1,4,130,322,0,2,109,0,2.4,2, ? ,3")
        assert row.shape == (13,) and np.array_equal(row, X[0], equal_nan=True)
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


CLEAN_ROWS = {"statlog": "70 1 4 130 322 -0 2 109 0 2.4 2 3 3 2",
              "cleveland": "58.0,1.0,4.0,114.0,318.0,-0,1.0,140.0,0.0,4.4,3.0,?,6.0,0"}
# Texts on which a one-pass read could part from the row-by-row parser.
TRAPS = ["-?", "+?", "??", " ? ", "?", "1e999", "1e-999", "1_0", "nan", "2.00", "+2", "5", "0.5",
         "#", "\r", "\x0b", "\x1c", "", " ", "\t", ",", "-", "e5", "1e0", "\n"]


def parse_both_ways(path, dialect):
    """(parse_dataset's outcome, the row-by-row parser's, whether the file
    read clean): arrays as bytes, or the error's class and message."""
    def outcome(parse):
        try:
            ds = parse()
        except CardioseqError as exc:
            return type(exc), str(exc)
        return ds.X.tobytes(), ds.y.tobytes()

    lines = dp.read_ascii_lines(path, NonAsciiFileError)
    return (outcome(lambda: dp.parse_dataset(path, dialect)),
            outcome(lambda: dp._parse_rows(lines, path, dialect)),
            dp._read_clean(lines, dialect) is not None)


@st.composite
def mutated_files(draw):
    """(dialect, text): rows of a dialect, up to two of them edited by a trap
    text put in at any place, over up to three characters."""
    dialect = draw(st.sampled_from(dp.DIALECTS))
    sep = " " if dialect == "statlog" else ","
    values = st.integers(-5, 300).map(str) | st.floats(-1e6, 1e6).map(repr)
    if dialect == "cleveland":
        values |= st.just("?")
    labels = st.sampled_from(dp.STATLOG_LABELS if dialect == "statlog" else "01234")
    rows = st.builds(lambda row, label: sep.join([*row, label]),
                     st.lists(values, min_size=13, max_size=13), labels)
    text = "\n".join(draw(st.lists(rows, min_size=1, max_size=3))) + "\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TRAPS)) + text[at + draw(st.integers(0, 3)):]
    return dialect, text


class TestCleanFileRead:
    """A clean file is read in one numpy pass, to the same arrays (bytes, NaN
    and -0.0 included) as the row-by-row parser; any other file goes row by
    row, so that the errors stay its own."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("clean") / "h.data"

    @given(file=mutated_files())
    def test_mutated_files_parse_as_row_by_row(self, path, file):
        dialect, text = file
        path.write_bytes(text.encode("ascii"))
        ours, rows, _ = parse_both_ways(path, dialect)
        assert ours == rows

    @pytest.mark.parametrize("dialect, old, new, clean", [
        ("cleveland", "?", "-?", False), ("cleveland", "?", "+?", False),
        ("cleveland", "?", "??", False), ("cleveland", "?", " ? ", False),
        ("cleveland", ",?", ",\t?", False), ("cleveland", "?,", "?\t,", False),
        ("statlog", "130", "1e999", False), ("cleveland", "114.0", "1e999", False),
        ("statlog", "130", "1e-999", True), ("cleveland", "114.0", "1e-999", True),
        ("statlog", "130", "1_0", False), ("cleveland", "114.0", "1_0", False),
        ("statlog", "130", "nan", False), ("cleveland", "114.0", "nan", False),
        ("statlog", " 2\n", " 2.00\n", False), ("statlog", " 2\n", " +2\n", False),
        ("statlog", " 2\n", " 2.0\n", True), ("statlog", " 130 ", "\t130\t", True),
        ("cleveland", ",0\n", ",?\n", False), ("cleveland", ",0\n", ",5\n", False),
        ("cleveland", ",0\n", ",0.5\n", False), ("cleveland", ",0\n", ",1e0\n", True),
        ("cleveland", ",0\n", ", 4 \n", True),
        ("statlog", "\n", "\n#\n", False), ("cleveland", "\n", " #\n", False),
        ("statlog", "\n", "\r", True), ("cleveland", "\n", "\r", True),
        ("statlog", " 130 ", "\x0b130\x0b", False), ("statlog", " 130 ", " 130\x1c", False),
        ("cleveland", ",114.0", ",\x0b114.0", False), ("cleveland", ",114.0", ",114.0\x1c", False),
        ("cleveland", "\n", "\x0b\n", True),
        ("statlog", "", "", True), ("cleveland", "", "", True),
    ])
    def test_traps_parse_as_row_by_row(self, path, dialect, old, new, clean):
        text = "".join(f"{CLEAN_ROWS[dialect]}\n" for _ in range(2))
        path.write_bytes(text.replace(old, new).encode("ascii"))
        ours, rows, read_clean = parse_both_ways(path, dialect)
        assert ours == rows and read_clean == clean

    @pytest.mark.parametrize("text, clean", [("ROW\n", True), ("ROW", True), (" \t\n \n", False),
                                             ("", False)])
    @pytest.mark.parametrize("dialect", dp.DIALECTS)
    def test_one_row_and_blank_files(self, path, dialect, text, clean):
        path.write_bytes(text.replace("ROW", CLEAN_ROWS[dialect]).encode("ascii"))
        ours, rows, read_clean = parse_both_ways(path, dialect)
        assert ours == rows and read_clean == clean


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
        assert ds.records is ds.X
        assert np.isnan(ds.X[1, 0])
        assert ds.X[0, 0] == 1.5
        assert ds.y.tolist() == [1, 0, 1]
        again = dp.Dataset(ds.records, ds.y, ds.categorical_mask)
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
        assert out.X[2, 0] == pytest.approx(2.0)

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
        assert out.X[2, 0] == 3.0

    def test_categorical_mode_tie_takes_smallest(self):
        mask = (True,) + (False,) * 12
        ds = make_dataset([[7.0, 3.0, None, 7.0, 3.0]], categorical_mask=mask)
        assert dp.fill_values(ds)[0] == 3.0

    def test_complete_dataset_unchanged(self, tiny_dataset):
        np.testing.assert_array_equal(impute(tiny_dataset).X, tiny_dataset.X)

    def test_idempotent(self):
        ds = make_dataset([[1.0, None, 3.0, 5.0]])
        once = impute(ds)
        twice = impute(once)
        assert np.array_equal(twice.X, once.X, equal_nan=True)
        assert np.array_equal(twice.y, once.y)

    def test_stats_come_from_source_only(self):
        data = make_dataset([[None, 10.0, 10.0, 10.0]])
        source = make_dataset([[4.0, 6.0, 5.0, 5.0]])
        out = impute(data, stats_source=source)
        assert out.X[0, 0] == pytest.approx(5.0)

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
        ds = dp.Dataset(raw, np.arange(40) % 2)
        scaled = dp.scale_values(ds.feature_array(), dp.fit_scaler(ds))
        assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(scaled.std(axis=0) - 1.0) < 1e-9)

    def test_missing_values_rejected(self):
        ds = make_dataset([[1.0, None, 3.0]])
        with pytest.raises(MissingValueError):
            dp.fit_scaler(ds)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-162, 1e-200, 1e-310, 5e-324])
    def test_tiny_values_give_a_spread_that_scales(self, scale):
        # np.std squares the deviations, so a nonzero spread is at least
        # about 2.2e-162 and its reciprocal is finite, which model files need
        stats = dp.fit_scaler(make_dataset([[scale * v for v in (1.0, 2.0, 3.0, 1.0)]]))
        std = stats.std[0]
        assert (std > 0) == (scale >= 1e-160)
        assert std == 0.0 or np.isfinite(1.0 / std)
        assert np.isfinite(dp.scale_values(np.ones((1, 13)), stats)).all()


def test_record_arity_enforced():
    with pytest.raises(ArityMismatchError):
        dp.Dataset([(1.0, 2.0)], [0])


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


class TestArgumentChecks:
    def test_unknown_dialect(self, tmp_path):
        p = tmp_path / "heart.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n")
        with pytest.raises(ValueError, match="^unknown dialect 'csv'$"):
            dp.parse_dataset(p, "csv")

    @pytest.mark.parametrize("rows, fills", [
        (np.zeros(13), np.zeros(13)),
        (np.zeros((2, 12)), np.zeros(13)),
        (np.zeros((2, 13)), np.zeros(12)),
    ])
    def test_impute_array_needs_n_by_13_rows_and_13_fills(self, rows, fills):
        with pytest.raises(ArityMismatchError, match=r"^expected \(n, 13\) rows and 13 fill"):
            dp.impute_array(rows, fills)

    def test_scaler_of_an_empty_dataset(self):
        with pytest.raises(EmptyDatasetError, match="^cannot fit a scaler on an empty dataset$"):
            dp.fit_scaler(dp.Dataset(np.empty((0, 13)), np.empty(0)))

    def test_negative_spread(self):
        with pytest.raises(ArityMismatchError, match="must be non-negative"):
            dp.ScalerStats(mean=np.zeros(13), std=np.full(13, -1.0))

    def test_spike_must_exceed_the_background(self):
        with pytest.raises(ValueError, match="^spike must exceed"):
            synthetic.separable_dataset(10, spike=13 * 0.1)


def test_class_permutations_draw_one_permutation_per_class_in_class_order():
    labels = np.array([1, 0, 1, 1, 0, 1, 0])
    got = dp.class_permutations(labels, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    zeros, ones = np.array([1, 4, 6]), np.array([0, 2, 3, 5])
    expected = [zeros[rng.permutation(3)], ones[rng.permutation(4)]]
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
    assert [a.tolist() for a in dp.class_permutations(np.zeros(0, dtype=int), rng)] == []
