import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from cardioseq import baselines as bl
from cardioseq import data as dp
from cardioseq import synthetic
from cardioseq import training as tr
from cardioseq.errors import NonFiniteInputError, SingleClassDataError


def gaussian_elimination(A, B):
    """Independent dense-solver oracle with partial pivoting."""
    A = A.astype(float).copy()
    B = B.astype(float).copy()
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, pivot]] = A[[pivot, col]]
        B[[col, pivot]] = B[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row] -= f * A[col]
            B[row] -= f * B[col]
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - A[row, row + 1 :] @ X[row + 1 :]) / A[row, row]
    return X


def numeric_dataset(rows, labels):
    return dp.Dataset(rows, labels, categorical_mask=(False,) * 13)


class TestDummyEncode:
    def test_reference_category_convention(self):
        rows = [[c] + [0.0] * 12 for c in (1.0, 2.0, 3.0, 4.0, 3.0)]
        mask = (True,) + (False,) * 12
        ds = dp.Dataset(rows, [i % 2 for i in range(len(rows))], categorical_mask=mask)
        X, enc = bl.dummy_encode(ds)
        # category 3 with observed {1,2,3,4}: reference is 1, indicators for 2,3,4
        assert X[2, :3].tolist() == [0.0, 1.0, 0.0]

    def test_binary_categorical_single_column(self):
        rows = [[0.0] + [0.0] * 12, [1.0] + [0.0] * 12]
        mask = (True,) + (False,) * 12
        ds = dp.Dataset(rows, [0, 1], categorical_mask=mask)
        X, enc = bl.dummy_encode(ds)
        assert sum(1 for j, c in enumerate(mask) if c and len(enc.categories[j]) > 1) == 1
        assert X.shape[1] == 13  # 1 indicator + 12 numeric columns

    def test_all_numeric_standardized_passthrough(self, rng):
        raw = rng.standard_normal((20, 13))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)  # already z-scored
        ds = numeric_dataset(raw, [i % 2 for i in range(20)])
        X, _ = bl.dummy_encode(ds)
        np.testing.assert_allclose(X, raw, atol=1e-12)

    def test_unseen_category_all_zero(self):
        rows = [[1.0] + [0.0] * 12, [2.0] + [0.0] * 12]
        mask = (True,) + (False,) * 12
        train = dp.Dataset(rows, [0, 1], categorical_mask=mask)
        _, enc = bl.dummy_encode(train)
        test_row = np.array([[9.0] + [0.0] * 12])
        assert enc.transform(test_row, test_row)[0, 0] == 0.0

    def test_missing_values_are_imputed_in_every_column(self):
        rows = [[c, c] + [float(i)] * 11 for i, c in enumerate((1.0, 2.0, 2.0, 1.0, 2.0))]
        rows[0][0] = rows[1][1] = np.nan
        mask = (True,) + (False,) * 12
        ds = dp.Dataset(rows, [0, 1, 0, 1, 1], categorical_mask=mask)
        X, enc = bl.dummy_encode(ds)
        expected, _ = bl.dummy_encode(dp.impute_with_values(ds, dp.fill_values(ds)))
        np.testing.assert_array_equal(X, expected)
        assert enc.categories[0] == [1.0, 2.0]


class TestDvLogistic:
    def test_separable_toy_full_accuracy(self, rng):
        raw = rng.standard_normal((40, 13))
        labels = (raw[:, 0] + raw[:, 1] > 0).astype(int)
        ds = numeric_dataset(raw, labels)
        model = bl.dv_logistic_train(ds)
        assert np.mean(model.predict_batch(ds) == ds.labels) == 1.0

    def test_zero_epochs_predicts_half(self, rng):
        ds = numeric_dataset(rng.standard_normal((10, 13)), [i % 2 for i in range(10)])
        model = bl.dv_logistic_train(ds, epochs=0)
        assert np.all(model.weights == 0.0) and model.bias == 0.0
        np.testing.assert_array_equal(model.scores(ds), np.full(10, 0.5))

    def test_label_swap_antisymmetry(self):
        rows = [[1.0, 2.0] + [0.0] * 11, [-0.5, 1.0] + [0.0] * 11]
        m1 = bl.dv_logistic_train(numeric_dataset(rows, [0, 1]), epochs=50)
        m2 = bl.dv_logistic_train(numeric_dataset(rows, [1, 0]), epochs=50)
        np.testing.assert_allclose(m1.weights, -m2.weights, atol=1e-12)
        assert m1.bias == pytest.approx(-m2.bias, abs=1e-12)

    def test_single_class_rejected(self, rng):
        ds = numeric_dataset(rng.standard_normal((6, 13)), [1] * 6)
        with pytest.raises(SingleClassDataError):
            bl.dv_logistic_train(ds)

    def test_single_class_fold_rejected_before_any_fit(self, separable, monkeypatch):
        calls = []
        monkeypatch.setattr(bl, "dummy_encode", lambda *a: calls.append(1))
        one_class = separable.subset(np.flatnonzero(separable.labels == 1))
        with pytest.raises(SingleClassDataError,
                           match="^fold 1: training data must contain both classes$"):
            bl.dv_logistic_train_folds([separable, one_class, separable])
        assert calls == []

    @pytest.mark.parametrize("kwargs, match", [
        (dict(epochs=-5), "^epochs must be at least 0, got -5$"),
        (dict(epochs=-1), "^epochs must be at least 0"),
        (dict(lr=float("nan")), "^lr must be finite and positive, got nan$"),
        (dict(lr=float("inf")), "^lr must be finite and positive"),
        (dict(lr=0.0), "^lr must be finite and positive"),
        (dict(lr=-0.1), "^lr must be finite and positive"),
    ])
    def test_bad_arguments_rejected(self, separable, kwargs, match):
        with pytest.raises(ValueError, match=match):
            bl.dv_logistic_train(separable, **kwargs)
        with pytest.raises(ValueError, match=match):
            bl.dv_logistic_train_folds([separable, separable], **kwargs)

    def test_monotone_in_positive_weight(self, separable):
        model = bl.dv_logistic_train(separable, epochs=200)
        j = int(np.argmax(model.weights))
        low = separable.X[0]
        high = low.copy()
        high[j] += 10.0
        _, p_low = tr.predict(model, low)
        _, p_high = tr.predict(model, high)
        assert p_high[1] >= p_low[1]


class TestElmSolve:
    def test_identity_system(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        W = bl.elm_solve_output(*bl.normal_equations(np.eye(3), Y, ridge=1e-8))
        np.testing.assert_allclose(W, Y, atol=1e-6)

    def test_large_ridge_shrinks_to_zero(self, rng):
        H = rng.standard_normal((10, 4))
        Y = rng.standard_normal((10, 2))
        W = bl.elm_solve_output(*bl.normal_equations(H, Y, ridge=1e12))
        assert np.abs(W).max() < 1e-9

    def test_matches_gaussian_elimination_oracle(self, rng):
        H = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 2))
        ridge = 1e-6
        W = bl.elm_solve_output(*bl.normal_equations(H, Y, ridge))
        A = H.T @ H + ridge * np.eye(3)
        expected = gaussian_elimination(A, H.T @ Y)
        np.testing.assert_allclose(W, expected, atol=1e-8)

    def test_residual_bound(self, rng):
        for _ in range(20):
            H = rng.standard_normal((30, 8))
            Y = rng.standard_normal((30, 2))
            A, B = bl.normal_equations(H, Y)
            W = bl.elm_solve_output(A, B)
            assert bl.solve_residual(A, B, W) < 1e-8

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    @pytest.mark.parametrize("where", ["hidden", "targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, stack, where, bad):
        """One bad entry, in the last system of a stack, is caught on HᵀH or HᵀY."""
        H = rng.uniform(0, 1, stack + (10, 4))
        Y = np.eye(2)[rng.integers(0, 2, 10)] * np.ones(stack + (1, 1))
        (H if where == "hidden" else Y)[(-1,) * len(stack) + (7, 1)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInputError):
                bl.normal_equations(H, Y)

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    def test_overflowing_products_rejected(self, rng, stack):
        """Finite activations whose squares overflow."""
        H = np.full(stack + (10, 4), 1e200)
        Y = np.eye(2)[rng.integers(0, 2, 10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInputError):
                bl.normal_equations(H, Y)

    def test_no_fit_rows_give_the_ridge_alone(self):
        A, B = bl.normal_equations(np.empty((0, 4)), np.empty((0, 2)), ridge=0.5)
        assert np.array_equal(A, 0.5 * np.eye(4)) and np.array_equal(B, np.zeros((4, 2)))

    @given(hidden=st.sampled_from([1, 2, 3, 32, 64]),
           stack=st.sampled_from([(), (1,), (2,), (5,), (20,)]),
           rows=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
           twin=st.sampled_from([None, 0.0, 1e-15, 1e-12, 1e-8]))
    @example(hidden=1, stack=(), rows=10, seed=0, twin=None)
    @example(hidden=1, stack=(1,), rows=10, seed=1, twin=None)
    @example(hidden=1, stack=(5,), rows=10, seed=2, twin=None)
    @example(hidden=32, stack=(20,), rows=242, seed=3, twin=1e-15)
    @example(hidden=64, stack=(), rows=300, seed=4, twin=0.0)
    def test_same_bits_as_scipy_positive_definite_solve(self, hidden, stack, rows, seed, twin):
        """The solve gives the bits of `scipy.linalg.solve(assume_a="pos")`,
        C-ordered, for single systems and stacks, 1×1 systems included, and
        for nearly equal hidden units (`twin` apart) at the default ridge."""
        rng = np.random.default_rng(seed)
        H = rng.uniform(0, 1, stack + (rows, hidden))
        if twin is not None and hidden >= 2:
            H[..., -1] = H[..., 0] + twin * rng.standard_normal(stack + (rows,))
        Y = np.eye(2)[rng.integers(0, 2, rows)] * np.ones(stack + (1, 1))
        A, B = bl.normal_equations(H, Y)
        W = bl.elm_solve_output(A, B)
        expected = scipy.linalg.solve(A, B, assume_a="pos")
        assert W.shape == expected.shape and W.flags.c_contiguous
        assert np.array_equal(W.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    def test_not_positive_definite_raises_linalg_error(self, stack):
        """An indefinite system, alone or last in a stack, is refused."""
        A = np.eye(2) * np.ones(stack + (1, 1))
        A[(-1,) * len(stack)] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            bl.elm_solve_output(A, np.ones(stack + (2, 2)))

    @pytest.mark.parametrize("stack", [(), (1,), (3,)], ids=["single", "one", "stack"])
    def test_zero_one_by_one_system_raises_linalg_error(self, stack):
        with pytest.raises(np.linalg.LinAlgError):
            bl.elm_solve_output(np.zeros(stack + (1, 1)), np.ones(stack + (1, 2)))

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    @pytest.mark.parametrize("where", ["diagonal", "upper", "lower", "targets", "1x1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_system_raises_value_error(self, stack, where, bad):
        """One bad entry of A (in either triangle) or of B, in the last
        system of a stack, is refused before any solve."""
        size = 1 if where == "1x1" else 3
        A, B = np.eye(size) * np.ones(stack + (1, 1)), np.ones(stack + (size, 2))
        last = (-1,) * len(stack)
        spot = {"diagonal": (A, (1, 1)), "upper": (A, (0, 2)), "lower": (A, (2, 0)),
                "targets": (B, (2, 1)), "1x1": (A, (0, 0))}
        array, index = spot[where]
        array[last + index] = bad
        with pytest.raises(ValueError):
            bl.elm_solve_output(A, B)


class TestPsoElm:
    def test_zero_iterations_still_valid(self, separable):
        model = bl.pso_elm_train(separable, iterations=0, seed=5)
        pred = model.predict_batch(separable)
        assert set(np.unique(pred)).issubset({0, 1})
        assert len(model.gbest_history) == 1

    def test_gbest_non_decreasing(self, separable):
        model = bl.pso_elm_train(separable, iterations=20, seed=5)
        hist = model.gbest_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_separable_high_accuracy(self, separable):
        model = bl.pso_elm_train(
            separable, hidden_size=32, swarm_size=20, iterations=30, seed=2
        )
        assert model.gbest_history[-1] >= 0.95

    def test_deterministic(self, separable):
        m1 = bl.pso_elm_train(separable, iterations=5, seed=9)
        m2 = bl.pso_elm_train(separable, iterations=5, seed=9)
        np.testing.assert_array_equal(m1.hidden_weights, m2.hidden_weights)
        np.testing.assert_array_equal(m1.output_weights, m2.output_weights)
        assert m1.gbest_history == m2.gbest_history

    @pytest.mark.parametrize("name,value", [("swarm_size", 0), ("hidden_size", 0),
                                            ("iterations", -1), ("seed", -1)])
    def test_bad_size_rejected(self, separable, name, value):
        with pytest.raises(ValueError, match=name):
            bl.pso_elm_train(separable, **{name: value})

    def test_positions_stay_finite_and_residuals_small(self, separable):
        model = bl.pso_elm_train(separable, iterations=10, seed=4)
        assert np.all(np.isfinite(model.hidden_weights))
        assert model.max_solve_residual < 1e-8

    def test_single_class_fold_rejected_before_any_fit(self, separable, monkeypatch):
        calls = []
        monkeypatch.setattr(bl, "elm_solve_output", lambda *a: calls.append(1))
        one_class = separable.subset(np.flatnonzero(separable.labels == 1))
        with pytest.raises(SingleClassDataError,
                           match="^fold 1: training data must contain both classes$"):
            bl.pso_elm_train_folds([separable, one_class, separable], [0, 1, 2])
        assert calls == []

    def test_fold_models_equal_per_fold_train(self, separable):
        sets = [separable.subset(np.arange(start, len(separable), 2)) for start in (0, 1)]
        for subset, seed, model in zip(sets, [4, 9], bl.pso_elm_train_folds(sets, [4, 9],
                                                                            iterations=3)):
            alone = bl.pso_elm_train(subset, iterations=3, seed=seed)
            for name in ("hidden_weights", "hidden_biases", "output_weights", "fill_values"):
                np.testing.assert_array_equal(getattr(model, name), getattr(alone, name))
            assert model.gbest_history == alone.gbest_history
            assert model.max_solve_residual == alone.max_solve_residual

    def test_normal_equations_built_once_per_solve(self, separable, monkeypatch):
        """Every solve and its residual read the one (HᵀH + λI, HᵀY) pair that
        `normal_equations` built for them."""
        built, solved, checked = [], [], []
        build, solve, residual = bl.normal_equations, bl.elm_solve_output, bl.solve_residual

        def building(*args):
            built.append(build(*args))
            return built[-1]

        def solving(A, B):
            solved.append((A, B))
            return solve(A, B)

        def checking(A, B, W):
            checked.append((A, B))
            return residual(A, B, W)

        monkeypatch.setattr(bl, "normal_equations", building)
        monkeypatch.setattr(bl, "elm_solve_output", solving)
        monkeypatch.setattr(bl, "solve_residual", checking)
        iterations = 2
        bl.pso_elm_train(separable, hidden_size=4, swarm_size=5, iterations=iterations)
        assert len(built) == iterations + 2  # one block per evaluation, then the refit
        for pairs in (solved, checked):
            assert len(pairs) == len(built)
            assert all(a is A and b is B for (a, b), (A, B) in zip(pairs, built))


class TestBaselinePredict:
    def test_zero_logistic_ties_to_class_zero(self, rng):
        ds = numeric_dataset(rng.standard_normal((10, 13)), [i % 2 for i in range(10)])
        model = bl.dv_logistic_train(ds, epochs=0)
        cls, probs = tr.predict(model, ds.X[0])
        assert cls == 0 and probs.tolist() == [0.5, 0.5]

    def test_elm_hand_computed_argmax(self, separable):
        model = bl.pso_elm_train(separable, iterations=0, seed=1)
        row = separable.X[0]
        cls, probs = tr.predict(model, row)
        x = dp.scale_values(row[None, :], model.scaler)
        h = 1.0 / (1.0 + np.exp(-(x @ model.hidden_weights + model.hidden_biases)))
        expected = (h @ model.output_weights)[0]
        out = model.outputs(separable.subset([0]))[0]
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(probs, np.exp(expected) / np.exp(expected).sum(), atol=1e-12)
        assert cls == (1 if expected[1] > expected[0] else 0)
