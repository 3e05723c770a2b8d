import numpy as np
import pytest

from cardioseq import baselines as bl
from cardioseq import model_io
from cardioseq import training as tr
from cardioseq.errors import ModelFileError


def test_cnn_roundtrip(tmp_path, separable):
    model = tr.train(separable, tr.Hyperparams(epochs=2, kernels_per_width=2, seed=1))
    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    assert path.read_text().startswith("cardioseq-model v1\nmodel-kind cnn\n")
    loaded = model_io.load_model(path)
    for k, v in model.params.tensors().items():
        np.testing.assert_array_equal(loaded.params.tensors()[k], v)
    np.testing.assert_array_equal(loaded.scaler.mean, model.scaler.mean)
    np.testing.assert_array_equal(loaded.fill_values, model.fill_values)
    assert loaded.hyper == model.hyper


def test_cnn_roundtrip_preserves_predictions(tmp_path, separable):
    model = tr.train(separable, tr.Hyperparams(epochs=3, kernels_per_width=2, seed=4))
    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    for rec in separable.records[:10]:
        c1, p1 = tr.predict(model, rec)
        c2, p2 = tr.predict(loaded, rec)
        assert c1 == c2
        np.testing.assert_array_equal(p1, p2)


def test_dv_logistic_roundtrip(tmp_path, tiny_dataset):
    model = bl.dv_logistic_train(tiny_dataset, epochs=20)
    path = tmp_path / "dv.txt"
    model_io.save_model(path, model)
    assert "model-kind dv_logistic" in path.read_text()
    loaded = model_io.load_model(path)
    np.testing.assert_array_equal(
        loaded.predict_batch(tiny_dataset), model.predict_batch(tiny_dataset)
    )
    np.testing.assert_array_equal(
        loaded.scores(tiny_dataset), model.scores(tiny_dataset)
    )


def test_elm_roundtrip(tmp_path, separable):
    model = bl.pso_elm_train(separable, iterations=2, seed=6)
    path = tmp_path / "elm.txt"
    model_io.save_model(path, model)
    assert "model-kind pso_elm" in path.read_text()
    loaded = model_io.load_model(path)
    np.testing.assert_array_equal(
        loaded.predict_batch(separable), model.predict_batch(separable)
    )


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a model\n")
    with pytest.raises(ModelFileError):
        model_io.load_model(p)


def _saved_cnn_lines(tmp_path, separable):
    model = tr.train(separable, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    return path, path.read_text().splitlines()


def test_short_tensor_block_names_line(tmp_path, separable):
    path, lines = _saved_cnn_lines(tmp_path, separable)
    path.write_text("\n".join(lines[:-1]) + "\n")
    expected = rf"line {len(lines)}: tensor 'fill_values': file ends"
    with pytest.raises(ModelFileError, match=expected):
        model_io.load_model(path)


@pytest.mark.parametrize("token", ["nan", "inf", "oops"])
def test_bad_tensor_value_names_line(tmp_path, separable, token):
    path, lines = _saved_cnn_lines(tmp_path, separable)
    i = next(j for j, line in enumerate(lines) if line.startswith("tensor conv_w3")) + 1
    lines[i] = " ".join([token] + lines[i].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=rf"line {i + 1}: tensor 'conv_w3'"):
        model_io.load_model(path)


def test_missing_tensor_rejected(tmp_path, separable):
    path, lines = _saved_cnn_lines(tmp_path, separable)
    i = next(j for j, line in enumerate(lines) if line.startswith("tensor fill_values"))
    path.write_text("\n".join(lines[:i]) + "\n")
    with pytest.raises(ModelFileError, match="fill_values"):
        model_io.load_model(path)


def test_atomic_write_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    model_io.atomic_write(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
