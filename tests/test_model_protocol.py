"""The one model interface all three kinds share: predict_proba on raw rows,
with predict_batch, training.predict, model files and `cli predict` all
derived from it."""

import numpy as np
import pytest

from cardioseq import cli, model_io
from cardioseq import training as tr

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
        cls, p = tr.predict(model, mixed.records[i])
        np.testing.assert_array_equal(p, model.predict_proba(mixed.X[i : i + 1])[0])
        np.testing.assert_allclose(p, probs[i], rtol=0, atol=1e-12)
        assert cls == int(p[1] > p[0])
        assert cli.main(["predict", str(path), "--", record_text(mixed.X[i])]) == 0
        assert capsys.readouterr().out.strip() == f"class {cls}, p = {p[0]:.6f} {p[1]:.6f}"
