import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardioseq import baselines as bl
from cardioseq import cli, model_io
from cardioseq import network as nn
from cardioseq import training as tr
from cardioseq.errors import ModelFileError


@given(kernels=st.sampled_from([1, 3, 8]), mode=st.sampled_from(
    [nn.GLOBAL_POOL, ("windowed", 1, 1), ("windowed", 3, 2), ("windowed", 13, 1)]))
def test_cnn_roundtrip(tmp_path_factory, separable, kernels, mode):
    model = tr.train(separable, tr.Hyperparams(epochs=2, kernels_per_width=kernels,
                                               pool_mode=mode, seed=1))
    path = tmp_path_factory.mktemp("roundtrip") / "model.txt"
    model_io.save_model(path, model)
    assert path.read_text().startswith("cardioseq-model v1\nmodel-kind cnn\n")
    loaded = model_io.load_model(path)
    assert loaded.params.shapes == nn.param_shapes(kernels, mode)
    assert _same_bits(loaded.params.flat, model.params.flat)
    for k, v in model.params.tensors().items():
        np.testing.assert_array_equal(loaded.params.tensors()[k], v)
    np.testing.assert_array_equal(loaded.scaler.mean, model.scaler.mean)
    np.testing.assert_array_equal(loaded.fill_values, model.fill_values)
    assert loaded.hyper == model.hyper


def test_cnn_file_with_tensor_blocks_reordered_loads_the_same(tmp_path, separable):
    """The tensor blocks are found by name: in reverse order they load to the
    same flat buffer."""
    model = tr.train(separable, tr.Hyperparams(epochs=1, kernels_per_width=3,
                                               pool_mode=("windowed", 3, 2), seed=2))
    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    head, *blocks = path.read_text().rstrip("\n").split("\ntensor ")
    path.write_text("\ntensor ".join([head, *reversed(blocks)]) + "\n")
    assert path.read_text().index("tensor fill_values") < path.read_text().index("tensor conv_w1")
    assert _same_bits(model_io.load_model(path).params.flat, model.params.flat)


def test_cnn_roundtrip_preserves_predictions(tmp_path, separable):
    model = tr.train(separable, tr.Hyperparams(epochs=3, kernels_per_width=2, seed=4))
    path = tmp_path / "model.txt"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    for row in separable.X[:10]:
        c1, p1 = tr.predict(model, row)
        c2, p2 = tr.predict(loaded, row)
        assert c1 == c2
        np.testing.assert_array_equal(p1, p2)


def test_numpy_scalar_settings_roundtrip(tmp_path, separable):
    hyper = tr.Hyperparams(epochs=np.int64(0), learning_rate=np.float64(0.01),
                           kernels_per_width=2)
    cnn = tr.train(separable, hyper)
    elm = bl.pso_elm_train(separable, iterations=0)
    for m in (cnn, elm):
        model_io.save_model(tmp_path / "m.txt", m)
        loaded = model_io.load_model(tmp_path / "m.txt")
        np.testing.assert_array_equal(loaded.predict_proba(separable.X),
                                      m.predict_proba(separable.X))


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


def _sub(pattern, repl):
    return lambda text: re.sub(pattern, repl, text, count=1, flags=re.M)


def _cnn_params(m, name, tensor):
    return replace(m, params=nn.ModelParams.from_tensors({**m.params.tensors(), name: tensor}))


def _repeat(header, value="9"):
    """Append a second block of the tensor whose header line starts with
    `header`, each of its values `value`, or a second param line `header`."""
    def edit(text):
        if header.startswith("param "):
            return text + header + "\n"
        (line,) = [line for line in text.splitlines() if line.startswith(header + " ")]
        rows, cols = map(int, line.split()[2:])
        return text + "\n".join([line] + [" ".join([value] * cols)] * rows) + "\n"
    return edit


TINY_STD = np.full(13, 1e-320)

# id -> (kind, offending name, model edit, file-text edit): files whose
# tensors or params do not fit together or do not parse.
BROKEN_FILES = {
    "cnn-fill_values-12": (
        "cnn", "fill_values", lambda m: replace(m, fill_values=m.fill_values[:12]), None),
    "cnn-scaler_std-12": (
        "cnn", "scaler_std",
        lambda m: replace(m, scaler=replace(m.scaler, std=m.scaler.std[:12])), None),
    "cnn-conv_w3-narrow": (
        "cnn", "conv_w3",
        lambda m: _cnn_params(m, "conv_w3", m.params.conv_w[3][:, :2]), None),
    "cnn-conv_b5-short": (
        "cnn", "conv_b5",
        lambda m: _cnn_params(m, "conv_b5", m.params.conv_b[5][:-1]), None),
    "cnn-dense_w-narrow": (
        "cnn", "dense_w", lambda m: _cnn_params(m, "dense_w", m.params.dense_w[:, :-1]), None),
    "cnn-tensor-header-3-fields": (
        "cnn", "dense_b", None, _sub(r"^tensor dense_b 1 2$", "tensor dense_b 1")),
    "cnn-param-no-value": ("cnn", "epochs", None, _sub(r"^param epochs .*$", "param epochs")),
    "cnn-param-unparseable": (
        "cnn", "epochs", None, _sub(r"^param epochs .*$", "param epochs abc")),
    "cnn-param-out-of-range": (
        "cnn", "dropout_rate", None, _sub(r"^param dropout_rate .*$", "param dropout_rate 1.0")),
    "dv-mask-000": (
        "dv_logistic", "categorical_mask",
        lambda m: replace(m, encoder=replace(m.encoder, categorical_mask=(False,) * 3)), None),
    "dv-weights-short": (
        "dv_logistic", "weights", lambda m: replace(m, weights=m.weights[:-1]), None),
    "dv-bias-2": (
        "dv_logistic", "bias", lambda m: replace(m, bias=np.array([m.bias, m.bias])), None),
    "elm-hidden_weights-12-rows": (
        "pso_elm", "hidden_weights",
        lambda m: replace(m, hidden_weights=m.hidden_weights[:12]), None),
    "elm-hidden_biases-short": (
        "pso_elm", "hidden_biases",
        lambda m: replace(m, hidden_biases=m.hidden_biases[:-1]), None),
    "elm-output_weights-3-cols": (
        "pso_elm", "output_weights",
        lambda m: replace(m, output_weights=m.output_weights[:, [0, 1, 1]]), None),
    # spreads whose reciprocal overflows: a record would scale to inf
    "cnn-scaler_std-tiny": (
        "cnn", "scaler_std", lambda m: replace(m, scaler=replace(m.scaler, std=TINY_STD)), None),
    "cnn-scaler_std-negative": (
        "cnn", "scaler_std", None, _sub(r"^(tensor scaler_std 1 13\n)\S+", r"\g<1>-1.0")),
    "dv-numeric_std-tiny": (
        "dv_logistic", "numeric_std",
        lambda m: replace(m, scaler=replace(m.scaler, std=TINY_STD)), None),
    "elm-scaler_std-tiny": (
        "pso_elm", "scaler_std", lambda m: replace(m, scaler=replace(m.scaler, std=TINY_STD)),
        None),
    # a second section of one name: neither copy may silently win
    "elm-output_weights-repeated": (
        "pso_elm", "output_weights", None, _repeat("tensor output_weights")),
    "dv-weights-repeated": ("dv_logistic", "weights", None, _repeat("tensor weights", "0")),
    "cnn-param-repeated": (
        "cnn", "learning_rate", None, _repeat("param learning_rate 0.5")),
}


@pytest.mark.parametrize("case", BROKEN_FILES.values(), ids=BROKEN_FILES.keys())
def test_inconsistent_model_file_names_line(tmp_path, capsys, fitted_models, case):
    kind, name, edit_model, edit_text = case
    model = fitted_models[kind]
    path = tmp_path / "m.txt"
    model_io.save_model(path, edit_model(model) if edit_model else model)
    if edit_text:
        path.write_text(edit_text(path.read_text()))
    assert cli.main(["predict", str(path), ",".join(["1"] * 12 + ["?"])]) == 2
    captured = capsys.readouterr()
    assert re.search(rf"line \d+: (param|tensor) '{name}'", captured.err), captured.err
    assert "p = " not in captured.out


def test_repeated_section_names_both_lines(tmp_path, capsys, fitted_models):
    """A PSO-ELM file with a second `output_weights` block of 9s would score
    every record p = 0.5 if the last block won."""
    path = tmp_path / "m.txt"
    model_io.save_model(path, fitted_models["pso_elm"])
    lines = path.read_text().splitlines()
    first = 1 + next(i for i, line in enumerate(lines) if line.startswith("tensor output_weights"))
    path.write_text(_repeat("tensor output_weights")(path.read_text()))
    assert cli.main(["predict", str(path), ",".join(["1"] * 13)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: line {len(lines) + 1}: tensor 'output_weights' "
                            f"repeats line {first}\n")
    assert captured.out == ""


def test_repeated_model_kind_names_both_lines(tmp_path, capsys, fitted_models):
    """A stray second `model-kind` line is named as such, not as a missing param
    of the kind it names."""
    path = tmp_path / "m.txt"
    model_io.save_model(path, fitted_models["pso_elm"])
    lines = path.read_text().splitlines() + ["model-kind cnn"]
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["predict", str(path), ",".join(["1"] * 13)]) == 2
    assert capsys.readouterr().err == f"error: line {len(lines)}: model-kind repeats line 2\n"


def test_blank_lines_are_skipped(tmp_path, mixed, fitted_models):
    model = fitted_models["dv_logistic"]
    path = tmp_path / "m.txt"
    model_io.save_model(path, model)
    # a blank line before every section and at the end; none inside a tensor block
    text = re.sub(r"^(?=model-kind|param|tensor)", "\n", path.read_text(), flags=re.M)
    path.write_text(text + "\n")
    assert text.count("\n\n") >= 4
    loaded = model_io.load_model(path)
    assert _same_bits(loaded.predict_proba(mixed.X), model.predict_proba(mixed.X))


@pytest.mark.parametrize("kind_line, message", [
    (None, "model-kind line missing"),
    ("model-kind svm", "unknown model-kind 'svm'"),
])
def test_model_kind_must_be_one_of_the_kinds(tmp_path, fitted_models, kind_line, message):
    path = tmp_path / "m.txt"
    model_io.save_model(path, fitted_models["pso_elm"])
    lines = path.read_text().splitlines()
    lines[1:2] = [kind_line] if kind_line else []
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=f"^{message}$"):
        model_io.load_model(path)


def test_save_of_a_non_model_rejected(tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(ModelFileError, match="^cannot serialize dict$"):
        model_io.save_model(path, {"weights": [1.0]})
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_leaves_no_file(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        model_io.atomic_write(target, "caf\u00e9\n")  # files are written as ASCII
    assert list(tmp_path.iterdir()) == []


# Small models of each kind with settings away from the defaults.
ROUND_TRIP_FITS = {
    "cnn": lambda ds: tr.train(ds, tr.Hyperparams(
        learning_rate=0.003, dropout_rate=0.25, epochs=2, batch_size=8, kernels_per_width=3,
        pool_mode=("windowed", 3, 2), seed=9)),
    "dv_logistic": lambda ds: bl.dv_logistic_train(ds, epochs=20),
    "pso_elm": lambda ds: bl.pso_elm_train(ds, hidden_size=4, swarm_size=3, iterations=2, seed=2),
}


def model_file_digest(kind, dataset, directory):
    """The first 16 hex digits of the sha256 of the file `save_model` writes
    for the `ROUND_TRIP_FITS` model of `kind` fit on `dataset`."""
    path = directory / f"{kind}.txt"
    model_io.save_model(path, ROUND_TRIP_FITS[kind](dataset))
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# The files of the fits above on the `mixed` rows, which pin each kind's layout
# (the order of its params and tensors) as well as its values. Regenerate (only
# for an intended change of layout or results) with
# `PYTHONPATH=src python tests/test_bit_identity.py`.
EXPECTED_MODEL_FILES = {
    "cnn": "5c21b5a00da7f182", "dv_logistic": "55e0a5f4e9c4ed22", "pso_elm": "ab0cc345721e4198",
}


@pytest.mark.parametrize("kind", ROUND_TRIP_FITS)
def test_model_file_bytes_pinned(tmp_path, mixed, kind):
    assert model_file_digest(kind, mixed, tmp_path) == EXPECTED_MODEL_FILES[kind]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("kind", ROUND_TRIP_FITS)
def test_save_load_save_is_byte_identical(tmp_path, mixed, kind):
    model = ROUND_TRIP_FITS[kind](mixed)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    model_io.save_model(first, model)
    loaded = model_io.load_model(first)
    model_io.save_model(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    assert _same_bits(loaded.predict_proba(mixed.X), model.predict_proba(mixed.X))
    if kind == "dv_logistic":
        assert "\ntensor categories_" in first.read_text()


@pytest.mark.parametrize("kind", ROUND_TRIP_FITS)
@pytest.mark.parametrize("scale", [1e-160, 1e-310])
def test_model_fit_on_a_tiny_column_loads(tmp_path, mixed, kind, scale):
    """A column of tiny values fits a spread that the load check accepts:
    about 8e-161 at 1e-160, and 0 at 1e-310, whose squares underflow."""
    X = mixed.X.copy()
    X[:, 0] = scale * (1 + np.arange(len(X)) % 3)
    model = ROUND_TRIP_FITS[kind](replace(mixed, X=X))
    path = tmp_path / "m.txt"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    assert _same_bits(loaded.predict_proba(X), model.predict_proba(X))
    assert np.isfinite(loaded.predict_proba(np.ones((1, 13)))).all()


def test_file_with_adam_params_loads_as_before(tmp_path, mixed, fitted_models):
    """Older CNN files carry Adam's settings as params, between batch_size and
    kernels_per_width; they load unchanged and save in the current layout."""
    model = fitted_models["cnn"]
    path, old = tmp_path / "m.txt", tmp_path / "old.txt"
    model_io.save_model(path, model)
    lines = path.read_text().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("param ")] == [
        "learning_rate", "dropout_rate", "epochs", "batch_size", "kernels_per_width",
        "pool_mode", "seed"]
    at = lines.index(f"param batch_size {model.hyper.batch_size}") + 1
    lines[at:at] = ["param adam_beta1 0.9", "param adam_beta2 0.999", "param adam_epsilon 1e-08"]
    old.write_text("\n".join(lines) + "\n")
    loaded = model_io.load_model(old)
    assert loaded.hyper == model.hyper
    for name, tensor in model.params.tensors().items():
        assert _same_bits(loaded.params.tensors()[name], tensor)
    assert _same_bits(loaded.fill_values, model.fill_values)
    assert _same_bits(loaded.predict_proba(mixed.X), model.predict_proba(mixed.X))
    model_io.save_model(old, loaded)
    assert old.read_bytes() == path.read_bytes()


def test_file_with_ridge_param_loads_as_before(tmp_path, mixed, fitted_models):
    """Older PSO-ELM files carry the fixed ridge as a param after the model-kind
    line; they load unchanged and save in the current layout, which has no params."""
    model = fitted_models["pso_elm"]
    path, old = tmp_path / "m.txt", tmp_path / "old.txt"
    model_io.save_model(path, model)
    lines = path.read_text().splitlines()
    assert lines[:3] == [model_io.HEADER, "model-kind pso_elm", "tensor hidden_weights 13 32"]
    lines.insert(2, f"param ridge {bl.ELM_RIDGE!r}")
    old.write_text("\n".join(lines) + "\n")
    loaded = model_io.load_model(old)
    for name in ("hidden_weights", "hidden_biases", "output_weights", "fill_values"):
        assert _same_bits(getattr(loaded, name), getattr(model, name))
    assert _same_bits(loaded.predict_proba(mixed.X), model.predict_proba(mixed.X))
    model_io.save_model(old, loaded)
    assert old.read_bytes() == path.read_bytes()


def test_atomic_write_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    model_io.atomic_write(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
