import math
from dataclasses import replace

import numpy as np
import pytest

from cardioseq import data as dp
from cardioseq import model_io
from cardioseq import network as nn
from cardioseq import synthetic
from cardioseq import training as tr
from cardioseq.errors import (
    ArityMismatchError,
    EmptyBatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    SingleClassDataError,
)

import reference as ref

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


class TestAdam:
    def test_zero_gradient_fixed_point(self, rng):
        params = nn.init_params(2, rng)
        state = tr.AdamState.zeros_like(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        new_params, new_state = tr.adam_step(params, grads, state, tr.Hyperparams())
        assert new_state.t == 1
        for k, v in params.tensors().items():
            np.testing.assert_array_equal(new_params.tensors()[k], v)

    def test_first_step_closed_form(self, rng):
        hyper = tr.Hyperparams()
        params = nn.init_params(1, rng)
        state = tr.AdamState.zeros_like(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors().items()}
        new_params, _ = tr.adam_step(params, grads, state, hyper)
        for k, theta in params.tensors().items():
            g = grads[k]
            expected = theta - hyper.learning_rate * g / (np.abs(g) + hyper.adam_epsilon)
            np.testing.assert_allclose(new_params.tensors()[k], expected, atol=1e-12)

    def test_two_step_scalar_recurrence(self, rng):
        hyper = tr.Hyperparams()
        params = nn.init_params(1, rng)
        start = {k: v.copy() for k, v in params.tensors().items()}
        state = tr.AdamState.zeros_like(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors().items()}
        params, state = tr.adam_step(params, grads, state, hyper)
        params, state = tr.adam_step(params, grads, state, hyper)
        # independent scalar re-run of the published recurrences
        b1, b2, lr, eps = (
            hyper.adam_beta1, hyper.adam_beta2, hyper.learning_rate, hyper.adam_epsilon,
        )
        for k, theta0 in start.items():
            g = grads[k]
            m = v = 0.0
            theta = theta0.copy()
            for t in (1, 2):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(params.tensors()[k], theta, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        params = nn.init_params(2, rng)
        state = tr.AdamState.zeros_like(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        grads["dense_b"] = np.zeros(5)
        with pytest.raises(ShapeMismatchError):
            tr.adam_step(params, grads, state, tr.Hyperparams())

    def test_flat_buffers_and_untouched_inputs(self, rng):
        params = nn.init_params(2, rng)
        params.conv_w[3][0, 1] = 7.0  # tensors are views into one flat buffer
        assert 7.0 in params.flat
        copied = nn.ModelParams.from_tensors(params.tensors())
        copied.dense_b[...] = 1.0  # from_tensors copies
        assert not np.any(params.dense_b == 1.0)
        state = tr.AdamState.zeros_like(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors().items()}
        before = params.flat.copy()
        new_params, new_state = tr.adam_step(params, grads, state, tr.Hyperparams())
        np.testing.assert_array_equal(params.flat, before)
        assert not state.m_flat.any() and not state.v_flat.any()
        for k, g in grads.items():
            np.testing.assert_array_equal(new_state.m[k], (1 - 0.9) * g)
            assert new_state.v[k].base is new_state.v_flat
            assert new_params.tensors()[k].base is new_params.flat

    def test_stack_matches_single_models_bit_for_bit(self, rng):
        """Models of a stack at different step counts get exactly their
        single-model update. At t = 7 and 12 numpy's array power differs from
        Python's float power in the last bit (checked below), and at t = 7 the
        difference survives into 1 - beta2**t."""
        assert 0.999**7 != (0.999 ** np.array([7]))[0] and 0.9**12 != (0.9 ** np.array([12]))[0]
        assert 1 - 0.999**7 != (1 - 0.999 ** np.array([7]))[0]
        hyper = tr.Hyperparams()
        counts = [6, 11, 0, 22, 25]  # the next steps are 7, 12, 1, 23 and 26
        singles, states, grads = [], [], []
        for t in counts:
            params = nn.init_params(2, rng)
            state = tr.AdamState.zeros_like(params)
            state.m_flat[...] = rng.standard_normal(state.m_flat.shape)
            state.v_flat[...] = rng.random(state.v_flat.shape)
            state.t = t
            singles.append(params)
            states.append(state)
            grads.append({k: rng.standard_normal(v.shape) for k, v in params.tensors().items()})
        stack = nn.ModelParams.stack(singles)
        stack_state = tr.AdamState(np.stack([s.m_flat for s in states]),
                                   np.stack([s.v_flat for s in states]),
                                   stack.shapes, np.array(counts))
        stack_grads = {k: np.stack([g[k] for g in grads]) for k in grads[0]}
        new_stack, new_state = tr.adam_step(stack, stack_grads, stack_state, hyper)
        np.testing.assert_array_equal(new_state.t, np.array(counts) + 1)
        for f in range(len(counts)):
            params, state = tr.adam_step(singles[f], grads[f], states[f], hyper)
            assert state.t == counts[f] + 1
            for a, b in ((new_stack.flat[f], params.flat), (new_state.m_flat[f], state.m_flat),
                         (new_state.v_flat[f], state.v_flat)):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_shapes_preserved(self, rng):
        params = nn.init_params(3, rng)
        state = tr.AdamState.zeros_like(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors().items()}
        new_params, new_state = tr.adam_step(params, grads, state, tr.Hyperparams())
        for k, v in params.tensors().items():
            assert new_params.tensors()[k].shape == v.shape
            assert np.all(new_state.v[k] >= 0)


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
        records = tuple(dp.SampleRecord((float(i),) + (0.0,) * 12, 1) for i in range(8))
        with pytest.raises(SingleClassDataError):
            tr.train(dp.Dataset.from_records(records), FAST)

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

    @pytest.mark.parametrize("field", ["learning_rate", "adam_epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_step_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            replace(FAST, **{field: value})

    def test_epoch_steps_group_models_by_batch_size(self):
        steps = tr.epoch_steps([273, 272, 273], 16)
        assert len(steps) == 18
        for groups in steps[:17]:
            assert [(rows, models.tolist()) for rows, models in groups] == [(16, [0, 1, 2])]
        assert [(rows, models.tolist()) for rows, models in steps[17]] == [(1, [0, 2])]
        whole = tr.epoch_steps([273, 272, 273], 512)
        assert [[(rows, models.tolist()) for rows, models in groups] for groups in whole] == [
            [(273, [0, 2]), (272, [1])]]

    def test_validation_curve_captured(self, separable):
        val = synthetic.separable_dataset(40, seed=9)
        model = tr.train(separable, FAST, validation=val)
        assert len(model.curve.val_accuracy) == FAST.epochs
        assert all(v is not None for v in model.curve.val_accuracy)


class TestPredict:
    def test_zero_model_tie_resolves_to_zero(self, separable):
        model = tr.train(separable, replace(FAST, epochs=0))
        for t in model.params.tensors().values():
            t[...] = 0.0
        cls, probs = tr.predict(model, separable.records[0])
        assert cls == 0
        np.testing.assert_array_equal(probs, [0.5, 0.5])

    def test_agrees_with_pipeline_composition(self, separable):
        model = tr.train(separable, FAST)
        rec = separable.records[3]
        cls, probs = tr.predict(model, rec)
        x = dp.scale_values(np.array(rec.features)[None, :], model.scaler)
        expected, _ = ref.model_forward(x.reshape(13, 1), model.params)
        np.testing.assert_array_equal(probs, expected)

    def test_training_sample_classified_correctly(self, separable):
        model = tr.train(separable, tr.Hyperparams(seed=7))
        rec = separable.records[0]
        cls, _ = tr.predict(model, rec)
        assert cls == rec.label

    def test_missing_feature_imputed_from_stored_stats(self, separable):
        model = tr.train(separable, FAST)
        feats = list(separable.records[0].features)
        feats[4] = None
        cls, probs = tr.predict(model, dp.SampleRecord(tuple(feats), 0))
        feats[4] = model.fill_values[4]
        cls2, probs2 = tr.predict(model, dp.SampleRecord(tuple(feats), 0))
        assert cls == cls2
        np.testing.assert_array_equal(probs, probs2)

    def test_arity_check(self, separable):
        model = tr.train(separable, FAST)
        bad = dp.SampleRecord.__new__(dp.SampleRecord)
        object.__setattr__(bad, "features", (1.0, 2.0))
        object.__setattr__(bad, "label", 0)
        with pytest.raises(ArityMismatchError):
            tr.predict(model, bad)


def test_curve_export_format(tmp_path, separable):
    model = tr.train(separable, FAST)
    path = tmp_path / "curve.csv"
    model_io.save_curve(path, model.curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_acc,train_loss,val_acc,val_loss"
    assert len(lines) == FAST.epochs + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == model.curve.train_loss[0]
    assert first[3] == "" and first[4] == ""
