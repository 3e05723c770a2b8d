"""The one model interface all three kinds share: predict_proba on raw rows,
with predict_batch, training.predict, model files and `cli predict` all
derived from it."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardioseq import baselines as bl
from cardioseq import cli, model_io
from cardioseq import data as dp
from cardioseq import training as tr
from cardioseq.errors import InputError, NonFiniteProbabilityError

from conftest import same_bits

KINDS = ("cnn", "dv_logistic", "pso_elm")


def record_text(row):
    return ",".join("?" if np.isnan(v) else repr(float(v)) for v in row)


@pytest.mark.parametrize("kind", KINDS)
def test_shared_protocol(kind, fitted_models, mixed, tmp_path, capsys):
    model = fitted_models[kind]
    probs = model.predict_proba(mixed.X)
    assert probs.shape == (len(mixed), 2)
    assert np.isfinite(probs).all() and (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(model.predict_batch(mixed), probs[:, 1] > probs[:, 0])

    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    np.testing.assert_array_equal(loaded.predict_proba(mixed.X), probs)

    assert np.isnan(mixed.X[0]).any()  # row 0 exercises imputation
    for i in (0, 1, 2):
        cls, p = tr.predict(model, mixed.X[i])
        np.testing.assert_array_equal(p, model.predict_proba(mixed.X[i : i + 1])[0])
        np.testing.assert_allclose(p, probs[i], rtol=0, atol=1e-12)
        assert cls == int(p[1] > p[0])
        assert cli.main(["predict", str(path), "--", record_text(mixed.X[i])]) == 0
        assert capsys.readouterr().out.strip() == f"class {cls}, p = {p[0]:.6f} {p[1]:.6f}"


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_carries_the_preprocessing_of_its_training_set(kind, fitted_models, mixed,
                                                                  tmp_path):
    """Each kind holds, as `fill_values` and `scaler`, the bits of
    `data.fit_preprocessing` of its training set, and keeps them through its
    model file."""
    fills, _, scaler = dp.fit_preprocessing([mixed])[0][:3]
    path = tmp_path / "model.txt"
    model_io.save_model(path, fitted_models[kind])
    for model in (fitted_models[kind], model_io.load_model(path)):
        assert same_bits(model.fill_values, fills)
        assert same_bits(model.scaler.mean, scaler.mean)
        assert same_bits(model.scaler.std, scaler.std)


def test_predict_batch_names_the_first_row_without_finite_probabilities(mixed):
    class Fixed(tr.Classifier):
        def predict_proba(self, X):
            probs = np.full((len(X), 2), 0.5)
            probs[2, 1], probs[4] = np.nan, np.inf
            return probs

    with pytest.raises(NonFiniteProbabilityError,
                       match=r"^record 3: non-finite class probabilities 0.5 nan$") as info:
        Fixed(fill_values=None, scaler=None).predict_batch(mixed)
    assert isinstance(info.value, InputError)


@pytest.mark.parametrize("kind", KINDS)
def test_values_too_large_for_the_model_raise_no_warning(kind, fitted_models, mixed):
    """1.7e308 in every column of one row overflows the CNN's and PSO-ELM's
    scaling (inf - inf later gives NaN), with numpy's warnings silenced;
    Dv-Logistic's sigmoid saturates to finite probabilities."""
    X = mixed.X.copy()
    X[1] = 1.7e308
    huge = dp.Dataset(X, mixed.y)
    if kind == "dv_logistic":
        assert fitted_models[kind].predict_batch(huge).shape == (len(huge),)
    else:
        with pytest.raises(NonFiniteProbabilityError, match="^record 2: "):
            fitted_models[kind].predict_batch(huge)


# Small fits of each kind, fast enough for one per property example.
FIT_SMALL = {
    "cnn": lambda ds: tr.train(ds, tr.Hyperparams(epochs=1, kernels_per_width=1)),
    "dv_logistic": lambda ds: bl.dv_logistic_train(ds, epochs=20),
    "pso_elm": lambda ds: bl.pso_elm_train(ds, hidden_size=4, swarm_size=3, iterations=1),
}

VALUES = st.sampled_from([0.7, 0.1, 1 / 3, -2.5, 0.0, 123.456]) | st.floats(
    -1e6, 1e6, allow_nan=False)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_constant_training_columns_are_ignored(kind, mixed, data):
    """Columns whose training values are all equal (after imputation) carry
    nothing: every kind's probabilities are finite rows summing to 1 and do
    not depend on a record's values in those columns, missing ones included."""
    columns = data.draw(st.lists(st.integers(0, dp.N_FEATURES - 1), min_size=1, max_size=4,
                                 unique=True), label="constant columns")
    X = mixed.X.copy()
    for j in columns:
        X[:, j] = data.draw(VALUES, label=f"column {j} value")
        if data.draw(st.booleans(), label=f"column {j} has missing values"):
            X[::5, j] = np.nan
    model = FIT_SMALL[kind](dp.Dataset(X, mixed.y))

    probs = model.predict_proba(mixed.X)
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    other = mixed.X.copy()
    other[:, columns] = data.draw(st.lists(VALUES | st.just(np.nan), min_size=len(columns),
                                           max_size=len(columns)), label="record values")
    np.testing.assert_array_equal(model.predict_proba(other), probs)
