import math
from dataclasses import replace

import numpy as np
import pytest

from cardioseq import cli, model_io, synthetic
from cardioseq import data as dp
from cardioseq import evaluation as ev
from cardioseq import network as nn
from cardioseq import training as tr
from cardioseq.errors import (
    ArityMismatchError,
    EmptyBatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    SingleClassDataError,
)

import reference as ref
from conftest import write_statlog_file

FAST = tr.Hyperparams(epochs=5, seed=3)


def logistic_oracle_accuracy(dataset, lr=0.5, epochs=500):
    """Independent plain logistic regression on the raw features."""
    X = dataset.feature_array()
    y = dataset.labels
    X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        w -= lr * X.T @ (p - y) / len(y)
        b -= lr * float(np.mean(p - y))
    p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    return float(np.mean((p > 0.5) == y))


def one_row_loss(alpha, label):
    """`mean_loss` of a one-row batch with positive-class probability alpha."""
    return tr.mean_loss(np.array([[1.0 - alpha, alpha]]), np.array([label]))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert one_row_loss(1.0, 1) == 0.0

    def test_half_probability(self):
        assert one_row_loss(0.5, 1) == pytest.approx(math.log(2.0))

    def test_boundary_clamped(self):
        loss = one_row_loss(0.0, 1)
        assert loss == pytest.approx(-math.log(1e-12))
        assert math.isfinite(loss)

    def test_non_negative(self, rng):
        for _ in range(200):
            assert one_row_loss(float(rng.random()), int(rng.integers(2))) >= 0.0

    def test_stack_gives_one_mean_per_model(self):
        probs = np.array([[[0.3, 0.7], [0.9, 0.1]], [[0.5, 0.5], [0.2, 0.8]]])
        labels = np.array([[1, 0], [0, 1]])
        means = tr.mean_loss(probs, labels)
        assert means.shape == (2,)
        for f in range(2):
            assert means[f] == tr.mean_loss(probs[f], labels[f])


class TestBatchLoss:
    def test_single_sample_is_own_loss(self):
        probs = np.array([[0.3, 0.7]])
        loss, acc = tr.loss_and_accuracy(probs, [1])
        assert loss == pytest.approx(one_row_loss(0.7, 1))
        assert acc == 1.0

    def test_duplicate_invariance(self):
        probs = np.array([[0.3, 0.7]])
        l1, _ = tr.loss_and_accuracy(probs, [1])
        lk, _ = tr.loss_and_accuracy(np.repeat(probs, 5, axis=0), [1] * 5)
        assert lk == pytest.approx(l1)

    def test_two_sample_mean(self):
        probs = np.array([[0.2, 0.8], [0.9, 0.1]])
        a = one_row_loss(0.8, 1)
        b = one_row_loss(0.1, 0)
        loss, acc = tr.loss_and_accuracy(probs, [1, 0])
        assert loss == pytest.approx((a + b) / 2)
        assert acc == 1.0

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            tr.loss_and_accuracy(np.empty((0, 2)), [])

    def test_accuracy_takes_classes_from_predicted_class(self):
        # argmax would call the NaN row class 1; predicted_class, as every
        # prediction does, calls it and the exact tie class 0
        probs = np.array([[0.5, np.nan], [0.5, 0.5], [0.2, 0.8]])
        _, acc = tr.loss_and_accuracy(probs, [0, 0, 1])
        assert acc == 1.0


def random_grad(params, rng):
    """A gradient for `params`: random values over a buffer laid out like theirs."""
    return params.with_flat(rng.standard_normal(params.flat.shape))


def zero_moments(params):
    return np.zeros_like(params.flat), np.zeros_like(params.flat)


class TestAdam:
    def test_zero_gradient_fixed_point(self, rng):
        params = nn.init_params(2, rng)
        m, v = zero_moments(params)
        flat, new_m, new_v = tr.adam_step(params.flat, np.zeros_like(params.flat), m, v, 1,
                                          tr.Hyperparams().learning_rate)
        np.testing.assert_array_equal(flat, params.flat)
        assert not new_m.any() and not new_v.any()

    def test_first_step_closed_form(self, rng):
        hyper = tr.Hyperparams()
        params = nn.init_params(1, rng)
        grad = random_grad(params, rng)
        flat, _, _ = tr.adam_step(params.flat, grad.flat, *zero_moments(params), 1,
                                  hyper.learning_rate)
        for k, theta in params.tensors().items():
            g = grad.tensors()[k]
            expected = theta - hyper.learning_rate * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(params.with_flat(flat).tensors()[k], expected, atol=1e-12)

    def test_two_step_scalar_recurrence(self, rng):
        hyper = tr.Hyperparams()
        params = nn.init_params(1, rng)
        grad = random_grad(params, rng)
        flat, m, v = params.flat, *zero_moments(params)
        for t in (1, 2):
            flat, m, v = tr.adam_step(flat, grad.flat, m, v, t, hyper.learning_rate)
        # independent scalar re-run of the published recurrences
        b1, b2, lr, eps = (
            0.9, 0.999, hyper.learning_rate, 1e-8,
        )
        for k, theta0 in params.tensors().items():
            g = grad.tensors()[k]
            m = v = 0.0
            theta = theta0.copy()
            for t in (1, 2):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(params.with_flat(flat).tensors()[k], theta, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        params = nn.init_params(2, rng)
        with pytest.raises(ShapeMismatchError):
            tr.adam_step(params.flat, np.zeros(params.flat.size + 3), *zero_moments(params), 1,
                         tr.Hyperparams().learning_rate)

    def test_flat_buffers_and_untouched_inputs(self, rng):
        params = nn.init_params(2, rng)
        params.conv_w[3][0, 1] = 7.0  # tensors are views into one flat buffer
        assert 7.0 in params.flat
        copied = nn.ModelParams.from_tensors(params.tensors())
        copied.dense_b[...] = 1.0  # from_tensors copies
        assert not np.any(params.dense_b == 1.0)
        m, v = zero_moments(params)
        grad = random_grad(params, rng)
        before, grad_before = params.flat.copy(), grad.flat.copy()
        flat, new_m, _ = tr.adam_step(params.flat, grad.flat, m, v, 1,
                                      tr.Hyperparams().learning_rate)
        np.testing.assert_array_equal(params.flat, before)
        np.testing.assert_array_equal(grad.flat, grad_before)
        assert not m.any() and not v.any()
        np.testing.assert_array_equal(new_m, (1 - 0.9) * grad.flat)
        new_params = params.with_flat(flat)
        for k in grad.tensors():
            assert new_params.tensors()[k].base is new_params.flat

    def test_stack_matches_single_models_bit_for_bit(self, rng):
        """Models of a stack at different step counts get exactly their
        single-model update, a count shared by several models included. At
        t = 7 and 12 numpy's array power differs from Python's float power in
        the last bit (checked below), and at t = 7 the difference survives
        into 1 - beta2**t."""
        assert 0.999**7 != (0.999 ** np.array([7]))[0] and 0.9**12 != (0.9 ** np.array([12]))[0]
        assert 1 - 0.999**7 != (1 - 0.999 ** np.array([7]))[0]
        lr = tr.Hyperparams().learning_rate
        steps = np.array([7, 12, 1, 23, 7, 26, 12])
        stack = nn.ModelParams.stack([nn.init_params(2, rng) for _ in steps])
        grad = rng.standard_normal(stack.flat.shape)
        m = rng.standard_normal(stack.flat.shape)
        v = rng.random(stack.flat.shape)
        stacked = tr.adam_step(stack.flat, grad, m, v, steps, lr)
        for f, t in enumerate(steps.tolist()):
            single = tr.adam_step(stack.flat[f], grad[f], m[f], v[f], t, lr)
            for a, b in zip(stacked, single):
                assert np.array_equal(a[f].view(np.uint64), b.view(np.uint64))

    def test_shapes_preserved(self, rng):
        params = nn.init_params(3, rng)
        flat, _, v = tr.adam_step(params.flat, random_grad(params, rng).flat,
                                  *zero_moments(params), 1, tr.Hyperparams().learning_rate)
        assert flat.shape == v.shape == params.flat.shape
        for k, new in params.with_flat(flat).tensors().items():
            assert new.shape == params.tensors()[k].shape
        assert np.all(v >= 0)


class TestTrain:
    def test_separable_reaches_full_accuracy(self, separable):
        model = tr.train(separable, tr.Hyperparams(seed=7))
        assert model.curve.train_accuracy[-1] == 1.0
        assert model.curve.train_loss[-1] < 0.2
        oracle = logistic_oracle_accuracy(separable)
        assert oracle == 1.0  # the set really is linearly separable

    def test_loss_trend_downward(self, separable):
        model = tr.train(separable, tr.Hyperparams(seed=7))
        assert model.curve.train_loss[-1] < model.curve.train_loss[0]
        assert all(l >= 0 for l in model.curve.train_loss)

    def test_zero_epochs_returns_initialization(self, separable):
        hyper = tr.Hyperparams(epochs=0, seed=11)
        model = tr.train(separable, hyper)
        assert len(model.curve) == 0
        expected = nn.init_params(
            hyper.kernels_per_width, np.random.default_rng(hyper.seed)
        )
        for k, v in expected.tensors().items():
            np.testing.assert_array_equal(model.params.tensors()[k], v)

    def test_deterministic(self, separable):
        m1 = tr.train(separable, FAST)
        m2 = tr.train(separable, FAST)
        assert m1.curve == m2.curve
        for k, v in m1.params.tensors().items():
            np.testing.assert_array_equal(m2.params.tensors()[k], v)

    def test_single_class_rejected(self):
        X = np.zeros((8, 13))
        X[:, 0] = np.arange(8)
        with pytest.raises(SingleClassDataError):
            tr.train(dp.Dataset(X, np.ones(8)), FAST)

    def test_single_class_fold_rejected_before_any_training(self, separable, monkeypatch):
        calls = []
        monkeypatch.setattr(nn, "forward_batch", lambda *a, **kw: calls.append(1))
        one_class = separable.subset(np.flatnonzero(separable.labels == 1))
        with pytest.raises(SingleClassDataError, match="^fold 1: training data"):
            tr.train_folds([separable, one_class, separable], FAST, [1, 2, 3])
        assert calls == []

    def test_non_finite_loss_names_epoch_batch_and_fold(self, separable):
        huge = replace(FAST, learning_rate=1e308)
        with pytest.raises(NonFiniteLossError, match=r"^non-finite loss at epoch 0, batch 1$"):
            tr.train(separable, huge)
        with pytest.raises(NonFiniteLossError,
                           match=r"^fold 0: non-finite loss at epoch 0, batch 1$"):
            tr.train_folds([separable, separable], huge, [1, 2])

    def test_non_finite_curve_loss_names_epoch_and_fold(self, separable):
        # one full-batch step: its loss is finite, the weights it leaves are not usable
        huge = replace(FAST, learning_rate=1e308, epochs=1, batch_size=1000)
        with pytest.raises(NonFiniteLossError, match=r"^non-finite train curve loss at epoch 0$"):
            tr.train(separable, huge)
        with pytest.raises(NonFiniteLossError,
                           match=r"^fold 0: non-finite train curve loss at epoch 0$"):
            tr.train_folds([separable, separable], huge, [1, 2])

    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_step_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            replace(FAST, **{field: value})

    @pytest.mark.parametrize("field, value", [("epochs", -1), ("batch_size", 0),
                                              ("kernels_per_width", 0), ("seed", -1)])
    def test_out_of_range_sizes_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least"):
            replace(FAST, **{field: value})

    def test_texts_read_back_with_text(self):
        hyper = tr.Hyperparams(learning_rate=0.003, dropout_rate=0.25, epochs=7, batch_size=8,
                               kernels_per_width=3, pool_mode=("windowed", 3, 2), seed=9)
        assert hyper.texts() == {
            "learning_rate": "0.003", "dropout_rate": "0.25", "epochs": "7", "batch_size": "8",
            "kernels_per_width": "3", "pool_mode": "windowed:3:2", "seed": "9"}
        back = tr.Hyperparams()
        for name, text in hyper.texts().items():
            back = back.with_text(name, text)
        assert back == hyper

    @pytest.mark.parametrize("name, text, message", [
        ("epochs", "abc", "expected int, got 'abc'"),
        ("batch_size", "1.5", "expected int, got '1.5'"),
        ("learning_rate", "fast", "expected float, got 'fast'"),
        ("learning_rate", "-1", "learning_rate must be finite and positive, got -1.0"),
        ("dropout_rate", "1", "dropout_rate must be in [0, 1), got 1.0"),
        ("dropout_rate", "nan", "dropout_rate must be in [0, 1), got nan"),
        ("kernels_per_width", "0", "kernels_per_width must be at least 1, got 0"),
    ])
    def test_with_text_rejects_what_does_not_parse_or_fit(self, name, text, message):
        with pytest.raises(ValueError) as err:
            FAST.with_text(name, text)
        assert str(err.value) == message

    def test_epoch_steps_group_models_by_batch_size(self):
        steps = tr.epoch_steps([273, 272, 273], 16)
        assert len(steps) == 18
        for groups in steps[:17]:
            assert [(rows, models.tolist()) for rows, models in groups] == [(16, [0, 1, 2])]
        assert [(rows, models.tolist()) for rows, models in steps[17]] == [(1, [0, 2])]
        whole = tr.epoch_steps([273, 272, 273], 512)
        assert [[(rows, models.tolist()) for rows, models in groups] for groups in whole] == [
            [(273, [0, 2]), (272, [1])]]


class TestPredict:
    def test_zero_model_tie_resolves_to_zero(self, separable):
        model = tr.train(separable, replace(FAST, epochs=0))
        for t in model.params.tensors().values():
            t[...] = 0.0
        cls, probs = tr.predict(model, separable.X[0])
        assert cls == 0
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_agrees_with_pipeline_composition(self, separable):
        model = tr.train(separable, FAST)
        row = separable.X[3]
        cls, probs = tr.predict(model, row)
        x = dp.scale_values(row[None, :], model.scaler)
        expected, _ = ref.model_forward(x.reshape(13, 1), model.params)
        np.testing.assert_array_equal(probs, expected)

    def test_a_record_pools_like_its_row_in_a_batched_forward(self, separable, monkeypatch):
        """A record's dense input has the bits of its row in one batched
        forward run in row blocks of 7 rows, and its probabilities are the
        dense head's on that row alone. (They are not compared with the
        batch's: BLAS may round a one-row product unlike a many-row one.)"""
        model = tr.train(separable, FAST)
        monkeypatch.setattr(nn, "INFER_BLOCK_ELEMENTS", 7 * 3 * model.hyper.kernels_per_width * 13)
        caches, forward = [], nn.forward_batch

        def recording(*args, **kwargs):
            probs, cache = forward(*args, **kwargs)
            caches.append(cache)
            return probs, cache

        monkeypatch.setattr(nn, "forward_batch", recording)
        model.predict_proba(separable.X)
        (batched,) = caches
        for r, row in enumerate(separable.X):
            probs = tr.predict(model, row)[1]
            assert caches[-1].pooled.tobytes() == batched.pooled[r].tobytes(), r
            alone = nn.dense_softmax(batched.pooled[r : r + 1], model.params)[0]
            assert probs.tobytes() == alone.tobytes(), r

    def test_training_sample_classified_correctly(self, separable):
        model = tr.train(separable, tr.Hyperparams(seed=7))
        cls, _ = tr.predict(model, separable.X[0])
        assert cls == separable.y[0]

    def test_missing_feature_imputed_from_stored_stats(self, separable):
        model = tr.train(separable, FAST)
        row = separable.X[0].copy()
        row[4] = np.nan
        cls, probs = tr.predict(model, row)
        row[4] = model.fill_values[4]
        cls2, probs2 = tr.predict(model, row)
        assert cls == cls2
        np.testing.assert_array_equal(probs, probs2)

    def test_arity_check(self, separable):
        """A row is 13 numbers, with None or NaN for a missing one; anything
        else is refused."""
        model = tr.train(separable, FAST)
        row = separable.X[0]
        for bad in (row[:12], np.append(row, 1.0), row[None, :], object(), ["a"] * 13):
            with pytest.raises(ArityMismatchError):
                tr.predict(model, bad)
        with_none, with_nan = row.tolist(), row.copy()
        with_none[4] = None
        with_nan[4] = np.nan
        assert tr.predict(model, with_none)[1].tobytes() == tr.predict(model, with_nan)[1].tobytes()


def test_curve_export_format(tmp_path, separable):
    model = tr.train(separable, FAST)
    path = tmp_path / "curve.csv"
    model_io.save_curve(path, model.curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_acc,train_loss"
    assert len(lines) == FAST.epochs + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert len(first) == 3 and float(first[2]) == model.curve.train_loss[0]


def test_scoring_builds_no_backward_state(separable, monkeypatch):
    """Pool positions, input windows and rebuilt maps are backward state:
    scoring (`predict_proba`, `predict`, `batch_loss`) builds none of them,
    training finds pool positions once per step group, and it rebuilds maps
    only for a backward whose batch spans several row blocks."""
    calls = dict.fromkeys(("pool_positions", "conv_windows", "forward_maps"), 0)
    for name in calls:
        def counting(*args, name=name, real=getattr(nn, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(nn, name, counting)

    def counts(run, *args):
        calls.update(dict.fromkeys(calls, 0))
        result = run(*args)
        return list(calls.values()), result

    groups = FAST.epochs * sum(map(len, tr.epoch_steps([len(separable)], FAST.batch_size)))
    got, model = counts(tr.train, separable, FAST)
    assert got == [groups, groups, 0]
    X = dp.scale_values(separable.X, model.scaler)
    assert counts(model.predict_proba, separable.X)[0] == [0, 0, 0]
    assert counts(tr.predict, model, separable.X[0])[0] == [0, 0, 0]
    assert counts(tr.batch_loss, model.params, X, separable.labels)[0] == [0, 0, 0]
    # row blocks of 10 rows: the full 16-row batches rebuild their maps
    monkeypatch.setattr(nn, "INFER_BLOCK_ELEMENTS", 10 * 3 * FAST.kernels_per_width * 13)
    full = FAST.epochs * (len(separable) // FAST.batch_size)
    assert counts(tr.train, separable, FAST)[0] == [groups, groups, full]
    assert counts(model.predict_proba, separable.X)[0] == [0, 0, 0]


def test_numpy_state_is_restored_on_every_exit(separable, fitted_models, tmp_path, capsys):
    """`train_folds` sets numpy's ufunc buffer size and error state for its loop
    only: every entry point leaves both as it found them, also when training
    raises. The check starts from a 4096-element buffer, which no code here
    sets, so that a reset to numpy's default would show as well."""
    data, model_file = tmp_path / "h.dat", tmp_path / "cnn.txt"
    write_statlog_file(data, separable)
    model_io.save_model(model_file, fitted_models["cnn"])
    one_epoch = replace(FAST, epochs=1)
    runs = {
        "train": lambda: tr.train(separable, one_epoch),
        "train_folds": lambda: tr.train_folds([separable] * 3, one_epoch, [1, 2, 3]),
        "non-finite loss": lambda: pytest.raises(
            NonFiniteLossError, tr.train_folds, [separable] * 3,
            replace(one_epoch, learning_rate=1e308), [1, 2, 3]),
        "cli cv": lambda: cli.main(["cv", "--data", str(data), "--model", "cnn", "--epochs", "1",
                                    "--kernels", "2", "--k", "3", "--out", str(tmp_path / "out")]),
        "cli predict": lambda: cli.main(["predict", str(model_file), ",".join(["1"] * 13)]),
    }
    results = {}
    previous = np.setbufsize(4096)
    try:
        for name, run in runs.items():
            before = np.getbufsize(), np.geterr()
            results[name] = run()
            assert (np.getbufsize(), np.geterr()) == before, name
    finally:
        np.setbufsize(previous)
    assert results["cli cv"] == results["cli predict"] == 0
    assert "class" in capsys.readouterr().out


@pytest.mark.parametrize("pool_mode", [nn.GLOBAL_POOL, ("windowed", 3, 2)])
def test_cv_fits_the_same_bits_under_numpy_default_buffer(pool_mode, monkeypatch):
    """The loop's `TRAIN_BUFSIZE` buffer only changes how numpy moves values,
    never a result: a seeded lockstep CNN `cv` (dropout on, with a step that
    has a one-row group) fits the same parameters and fold accuracies under
    numpy's default 8192-element buffer."""
    dataset = synthetic.separable_dataset(50, seed=31)
    hyper = tr.Hyperparams(epochs=2, dropout_rate=0.5, pool_mode=pool_mode, seed=4)
    plan = ev.kfold_split(dataset, k=3, seed=4)
    sizes = [int(np.sum(plan.assignments != fold)) for fold in range(3)]
    assert any(rows == 1 for groups in tr.epoch_steps(sizes, hyper.batch_size)
               for rows, _ in groups)

    seen, fitted = set(), []

    def backward(*args, real=nn.model_backward):
        seen.add(np.getbufsize())
        return real(*args)

    def fit(sets, hyper, seeds):
        fitted.append(tr.train_folds(sets, hyper, seeds))
        return fitted[-1]

    monkeypatch.setattr(nn, "model_backward", backward)
    monkeypatch.setitem(ev.FIT, "cnn", fit)
    runs = []
    for size in (tr.TRAIN_BUFSIZE, 8192):
        monkeypatch.setattr(tr, "TRAIN_BUFSIZE", size)
        seen.clear()
        report = ev.cross_validate(dataset, "cnn", hyper, k=3, seed=4)
        assert seen == {size}
        runs.append((report.fold_accuracy, [model.params.flat.tobytes() for model in fitted.pop()]))
    assert runs[0] == runs[1]
