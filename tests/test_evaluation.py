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
from cardioseq.errors import TooFewSamplesError

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
            def predict_batch(self, dataset):
                return np.ones_like(dataset.labels)

        monkeypatch.setitem(ev.FIT, "cnn", lambda sets, hyper, seeds: [AlwaysOne() for _ in sets])
        report = ev.cross_validate(ds, "cnn", k=10, seed=0)
        prevalence = ds.labels.mean()
        assert report.mean_accuracy == pytest.approx(prevalence, abs=0.01)

    def test_confusion_counts_sum_to_fold_size(self, separable):
        report = ev.cross_validate(separable, "dv_logistic", k=5, seed=1)
        plan = ev.kfold_split(separable, k=5, seed=1)
        for fold, c in enumerate(report.fold_confusion):
            assert sum(c.values()) == plan.fold_indices(fold).size

    def test_mean_recomputation_exact(self, separable):
        report = ev.cross_validate(separable, "dv_logistic", k=5, seed=1)
        assert report.mean_accuracy == float(np.mean(report.fold_accuracy))

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
        assert len(report.fold_accuracy) == 5
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracy)

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
