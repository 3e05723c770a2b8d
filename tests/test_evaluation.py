import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardioseq import data as dp
from cardioseq import evaluation as ev
from cardioseq import synthetic
from cardioseq import training as tr
from cardioseq.errors import NonFiniteProbabilityError, TooFewSamplesError

from conftest import mixed_dataset, same_bits

FAST_HYPER = tr.Hyperparams(epochs=2, kernels_per_width=2, seed=0)


def random_dataset(n, seed, p1=0.5):
    rng = np.random.default_rng(seed)
    X, y = np.empty((n, 13)), np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i], y[i] = rng.standard_normal(13), rng.random() < p1
    if y.min() == y.max():  # ensure both classes
        y[-1] = 1 - y[-1]
    return dp.Dataset(X, y, categorical_mask=(False,) * 13)


def check_plan(plan, labels, k):
    n = len(labels)
    assert sorted(np.unique(plan.assignments)) == list(range(k))
    sizes = np.bincount(plan.assignments, minlength=k)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    for cls in np.unique(labels):
        counts = np.bincount(plan.assignments[labels == cls], minlength=k)
        assert counts.max() - counts.min() <= 1


@st.composite
def split_cases(draw):
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=2, max_size=400)))
    k = draw(st.integers(min_value=2, max_value=min(labels.size, 30)))
    return labels, k, draw(st.integers(min_value=0, max_value=2**32 - 1))


@pytest.mark.filterwarnings("ignore::UserWarning")  # plain folds for a small class
@given(split_cases())
def test_kfold_split_partitions_rows_property(case):
    """For any row count, label mix and k <= rows, the folds partition the rows
    and their sizes differ by at most 1."""
    labels, k, seed = case
    plan = ev.kfold_split(dp.Dataset(np.zeros((labels.size, dp.N_FEATURES)), labels),
                          k=k, seed=seed)
    folds = [plan.fold_indices(fold) for fold in range(k)]
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(labels.size))
    sizes = [f.size for f in folds]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestKfoldSplit:
    def test_270_records_exact_folds(self):
        ds = random_dataset(270, seed=1)
        plan = ev.kfold_split(ds, k=10, seed=3)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert sizes.tolist() == [27] * 10

    def test_13_records_balanced_remainder(self):
        ds = random_dataset(13, seed=2)
        with pytest.warns(UserWarning, match="class too small"):
            plan = ev.kfold_split(ds, k=10, seed=3)
        sizes = sorted(np.bincount(plan.assignments, minlength=10).tolist())
        assert sizes == [1] * 7 + [2] * 3

    def test_partition_property(self):
        ds = random_dataset(53, seed=5)
        plan = ev.kfold_split(ds, k=10, seed=7)
        covered = np.concatenate([plan.fold_indices(f) for f in range(10)])
        assert sorted(covered.tolist()) == list(range(53))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_property_search(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            k = int(rng.integers(2, 12))
            n = int(rng.integers(k, 400))
            ds = random_dataset(n, seed=int(rng.integers(1e6)))
            plan = ev.kfold_split(ds, k=k, seed=int(rng.integers(1e6)))
            if all(np.sum(ds.labels == c) >= k / 2 for c in (0, 1)):
                check_plan(plan, ds.labels, k)

    def test_too_few_samples(self):
        ds = random_dataset(5, seed=1)
        with pytest.raises(TooFewSamplesError):
            ev.kfold_split(ds, k=10)

    def test_k_below_2_names_the_field(self):
        with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
            ev.kfold_split(random_dataset(20, seed=1), k=1)

    def test_negative_seed_names_the_field(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            ev.cross_validate(random_dataset(20, seed=1), "dv_logistic", k=2, seed=-1)

    def test_unstratified_fallback_warns(self):
        X = np.zeros((20, 13))
        X[:, 0] = np.arange(20)
        ds = dp.Dataset(X, np.arange(20) == 0, categorical_mask=(False,) * 13)
        with pytest.warns(UserWarning):
            plan = ev.kfold_split(ds, k=10, seed=1)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        ds = random_dataset(60, seed=8)
        p1 = ev.kfold_split(ds, k=10, seed=4)
        p2 = ev.kfold_split(ds, k=10, seed=4)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)


class TestCrossValidate:
    def test_constant_predictor_matches_prevalence(self, monkeypatch):
        ds = random_dataset(100, seed=11, p1=0.6)

        class AlwaysOne:
            def predict_proba(self, X):
                return np.tile([0.0, 1.0], (len(X), 1))

        monkeypatch.setitem(ev.FIT, "cnn", lambda sets, hyper, seeds: [AlwaysOne() for _ in sets])
        report = ev.cross_validate(ds, "cnn", k=10, seed=0)
        prevalence = ds.labels.mean()
        assert report.mean_accuracy == pytest.approx(prevalence, abs=0.01)

    def test_confusion_counts_sum_to_fold_size(self, separable):
        report = ev.cross_validate(separable, "dv_logistic", k=5, seed=1)
        plan = ev.kfold_split(separable, k=5, seed=1)
        for fold, (_, c) in enumerate(report.fold_scores()):
            assert sum(c.values()) == plan.fold_indices(fold).size

    def test_mean_recomputation_exact(self, separable):
        report = ev.cross_validate(separable, "dv_logistic", k=5, seed=1)
        assert report.mean_accuracy == float(np.mean([acc for acc, _ in report.fold_scores()]))

    def test_deterministic_reports(self, separable):
        r1 = ev.cross_validate(separable, "cnn", hyper=FAST_HYPER, k=5, seed=2)
        r2 = ev.cross_validate(separable, "cnn", hyper=FAST_HYPER, k=5, seed=2)
        assert ev.report_to_csv(r1) == ev.report_to_csv(r2)
        assert ev.report_to_text(r1) == ev.report_to_text(r2)

    def test_no_leakage_from_test_fold(self, separable):
        # mutating fold-0 rows must leave the fold-0 training subset, and
        # hence its preprocessing statistics, untouched
        plan = ev.kfold_split(separable, k=5, seed=3)
        X = separable.X.copy()
        X[plan.fold_indices(0)] += 1000.0
        mutated = dp.Dataset(X, separable.y, separable.categorical_mask)
        train_idx = np.flatnonzero(plan.assignments != 0)
        a = separable.subset(train_idx)
        b = mutated.subset(train_idx)
        assert np.array_equal(a.X, b.X, equal_nan=True) and np.array_equal(a.y, b.y)
        np.testing.assert_array_equal(
            dp.fit_scaler(a).mean, dp.fit_scaler(b).mean
        )

    @pytest.mark.parametrize("kind", ev.MODEL_KINDS)
    def test_out_of_fold_probabilities_are_the_fold_models_scores(self, kind):
        """Each fold's rows of `report.probs` are, bit for bit, what that
        fold's model (refit here as cross_validate fits it) gives them in one
        batch; the fold metrics are those of its `predict_batch` classes."""
        ds, k, seed = mixed_dataset(), 4, 3
        report = ev.cross_validate(ds, kind, hyper=FAST_HYPER, k=k, seed=seed)
        plan = ev.kfold_split(ds, k=k, seed=seed)
        models = ev.FIT[kind]([ds.subset(np.flatnonzero(plan.assignments != f)) for f in range(k)],
                              FAST_HYPER, [ev._fold_seed(seed, f) for f in range(k)])
        assert (report.plan.k, report.plan.seed) == (k, seed)
        assert np.array_equal(report.plan.assignments, plan.assignments)
        assert np.array_equal(report.labels, ds.labels) and report.probs.shape == (len(ds), 2)
        for fold, (model, (acc, counts)) in enumerate(zip(models, report.fold_scores())):
            rows = plan.fold_indices(fold)
            assert same_bits(report.probs[rows], model.predict_proba(ds.X[rows]))
            pred = model.predict_batch(ds.subset(rows))
            assert acc == float(np.mean(pred == ds.labels[rows]))
            assert counts == tr.confusion_counts(pred, ds.labels[rows])

    def test_non_finite_record_of_the_lowest_fold_is_named(self, monkeypatch):
        """Records of folds 0 and 2 score NaN: the error names fold 0's
        lowest-numbered one, though a record of fold 2 comes before it."""
        ds = random_dataset(40, seed=5)
        plan = ev.kfold_split(ds, k=4, seed=0)
        first, second = plan.fold_indices(0)[-2:]
        other = plan.fold_indices(2)[0]
        assert other < first
        X = ds.X.copy()
        X[[first, second, other], 0] = 1e6

        class NanOnMarked(tr.Classifier):
            def predict_proba(self, X):
                probs = np.full((len(X), 2), 0.5)
                probs[X[:, 0] == 1e6] = np.nan
                return probs

        monkeypatch.setitem(ev.FIT, "dv_logistic",
                            lambda sets, hyper, seeds: [NanOnMarked(None, None) for _ in sets])
        with pytest.raises(NonFiniteProbabilityError, match=(
                rf"^fold 0: record {first + 1}: non-finite class probabilities nan nan$")):
            ev.cross_validate(dp.Dataset(X, ds.y, ds.categorical_mask), "dv_logistic", k=4)

    def test_report_states_the_seed_it_ran_with(self, separable):
        """The folds train from the CV seed, not from `hyper.seed`, and the
        report's hyperparameter line says so."""
        report = ev.cross_validate(separable, "cnn", hyper=FAST_HYPER, k=4, seed=2)
        lines = ev.report_to_text(report).splitlines()
        assert lines[0] == "model: cnn   k: 4   seed: 2"
        assert lines[1] == f"hyper: {replace(FAST_HYPER, seed=2)!r}"
        assert lines[1].endswith(", seed=2)") and FAST_HYPER.seed == 0

    def test_cnn_kind_runs_end_to_end(self, separable):
        report = ev.cross_validate(separable, "cnn", hyper=FAST_HYPER, k=5, seed=2)
        fold_accuracy = [acc for acc, _ in report.fold_scores()]
        assert len(fold_accuracy) == 5
        assert all(0.0 <= a <= 1.0 for a in fold_accuracy)

    def test_unknown_kind_named_before_the_folds(self):
        """The kind is checked before the split: 8 rows cannot fill 10 folds,
        and a one-row class would warn that it cannot be stratified."""
        one_row_class = dp.Dataset(np.zeros((20, 13)), np.arange(20) == 0,
                                   categorical_mask=(False,) * 13)
        for ds in (random_dataset(8, seed=1), one_row_class):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^unknown model kind 'svm'$"):
                    ev.cross_validate(ds, "svm", k=10)


class TestCompareModels:
    def test_degenerate_1x1(self, separable):
        table = ev.compare_models(
            {"synthetic": separable}, model_kinds=["dv_logistic"], k=5, seed=1
        )
        rep = table.reports[("dv_logistic", "synthetic")]
        direct = ev.cross_validate(separable, "dv_logistic", k=5, seed=1)
        assert rep.mean_accuracy == direct.mean_accuracy

    def test_delta_consistency(self, separable):
        table = ev.compare_models(
            {"synthetic": separable},
            model_kinds=["dv_logistic", "pso_elm"],
            k=5, seed=1,
        )
        a = table.reports[("pso_elm", "synthetic")].mean_accuracy
        b = table.reports[("dv_logistic", "synthetic")].mean_accuracy
        text = ev.table_to_text(table)
        assert f"{(a - b) * 100:+.2f}" in text

    def test_failure_cell_marked(self, separable):
        table = ev.compare_models(
            {"synthetic": separable}, model_kinds=["nonsense"], k=5, seed=1
        )
        assert ("nonsense", "synthetic") in table.failures
        assert "FAILED" in ev.table_to_text(table)

    def test_reference_values_printed(self, separable):
        table = ev.compare_models(
            {"statlog": separable}, model_kinds=["dv_logistic"], k=5, seed=1
        )
        text = ev.table_to_text(table)
        assert "85.58" in text  # published reference for this model/dataset


# name -> (model kinds, dataset name -> (rows, data seed) of `random_dataset`,
# or None for `mixed_dataset`, k, seed): tables whose text and CSV are pinned
# byte for byte, as are the text reports of `REPORT_CASES`. "failed-between"
# puts a failed cell between two real kinds, so FAILED and n/a cells show;
# "wide-names" has dataset names without published references.
TABLE_CASES = {
    "three-kinds": (ev.MODEL_KINDS, {"statlog": (60, 1), "cleveland": None}, 3, 2),
    "failed-between": (("dv_logistic", "nonsense", "pso_elm"),
                       {"statlog": (50, 3), "cleveland": (45, 4)}, 5, 0),
    "wide-names": (("cnn", "dv_logistic"), {"a-long-dataset-name": (40, 5), "x": None}, 2, 9),
    "one-cell": (("pso_elm",), {"cleveland": (30, 6)}, 3, 1),
}

# model kind -> (k, seed) of its cross-validation of `mixed_dataset`
REPORT_CASES = {"cnn": (4, 3), "dv_logistic": (3, 5), "pso_elm": (5, 7)}


def sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digests(name):
    kinds, sets, k, seed = TABLE_CASES[name]
    datasets = {n: mixed_dataset() if s is None else random_dataset(*s) for n, s in sets.items()}
    table = ev.compare_models(datasets, model_kinds=kinds, hyper=FAST_HYPER, k=k, seed=seed)
    return sha16(ev.table_to_text(table)), sha16(ev.table_to_csv(table))


def report_digest(kind):
    k, seed = REPORT_CASES[kind]
    return sha16(ev.report_to_text(ev.cross_validate(mixed_dataset(), kind, FAST_HYPER, k, seed)))


# (text, CSV) and text digests, recorded where `table_to_text` wrote each of
# its four row kinds in its own loop
EXPECTED_TABLES = {
    "failed-between": ("61acbe0892b83107", "750c11af93c57e9e"),
    "one-cell": ("59c5354cea387931", "df669732f15ffa1d"),
    "three-kinds": ("b5d327905bef3a9f", "c19fd689094cfebb"),
    "wide-names": ("9deee4caefc0d51b", "a1c99fb4cb777e7b"),
}
EXPECTED_REPORTS = {"cnn": "0525d965e39fbdb9", "dv_logistic": "eee8337b311f1ed9",
                    "pso_elm": "a0b92be4a12f91e1"}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_text_and_csv_pinned(name):
    assert table_digests(name) == EXPECTED_TABLES[name]


@pytest.mark.parametrize("kind", sorted(REPORT_CASES))
def test_report_text_pinned(kind):
    assert report_digest(kind) == EXPECTED_REPORTS[kind]


def fold_report(kind, correct):
    """A report on 13 rows in 5 folds of 3, 3, 3, 2 and 2 rows, whose fold f
    gets its first correct[f] rows right."""
    plan = ev.FoldPlan(k=5, seed=0, assignments=np.arange(13) % 5)
    probs = np.tile([0.0, 1.0], (13, 1))  # class 1, wrong for label 0
    for fold, count in enumerate(correct):
        probs[plan.fold_indices(fold)[:count]] = [1.0, 0.0]
    return ev.CvReport(kind, plan, np.zeros(13, dtype=np.int64), probs, "defaults")


def test_delta_is_the_difference_times_100():
    """Means 0.4 and 0.39999999999999997 both print as 40.00; their delta,
    (a - b) * 100, prints as -0.00, where a * 100 - b * 100 would give +0.00."""
    reports = {("dv_logistic", "x"): fold_report("dv_logistic", [3, 3, 0, 0, 0]),
               ("pso_elm", "x"): fold_report("pso_elm", [2, 3, 1, 0, 0])}
    table = ev.ComparisonTable(["x"], ["dv_logistic", "pso_elm"], reports)
    assert [r.mean_accuracy for r in reports.values()] == [0.4, 0.39999999999999997]
    lines = ev.table_to_text(table).splitlines()
    assert lines[2:4] == ["dv_logistic".ljust(14) + "40.00", "pso_elm".ljust(14) + "40.00"]
    assert lines[6] == "pso_elm - dv_logistic".ljust(26) + "-0.00"
