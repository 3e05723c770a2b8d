"""Versioned plain-text model files, training-curve files and atomic writes.

Model-file layout: a `cardioseq-model v1` header, a `model-kind` line,
`param` lines for scalar settings, then `tensor <name> <rows> <cols>`
blocks with row-major decimal values at 17 significant digits.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import baselines as bl
from . import data as dp
from . import network as nn
from . import training as tr
from .errors import ModelFileError

HEADER = "cardioseq-model v1"


def atomic_write(path, text):
    """Write-temp-then-rename so interrupted runs never leave truncated files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_curve(path, curve):
    """Write the epoch table behind the accuracy/loss training plots."""
    rows = zip(curve.train_accuracy, curve.train_loss, curve.val_accuracy, curve.val_loss)
    lines = ["epoch,train_acc,train_loss,val_acc,val_loss"] + [
        f"{epoch}," + ",".join("" if v is None else format(v, ".17g") for v in row)
        for epoch, row in enumerate(rows, start=1)
    ]
    atomic_write(path, "\n".join(lines) + "\n")


def _format_tensor(name, array):
    a = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"tensor {name} {a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return lines


def _serialize(kind, params, tensors):
    lines = [HEADER, f"model-kind {kind}"]
    for key, value in params.items():
        lines.append(f"param {key} {value}")
    for name, array in tensors.items():
        lines.extend(_format_tensor(name, array))
    return "\n".join(lines) + "\n"


def _parse(text):
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ModelFileError("missing or unsupported model file header")
    kind = None
    params, tensors = {}, {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("model-kind "):
            kind = line.split(None, 1)[1]
        elif line.startswith("param "):
            _, key, value = line.split(None, 2)
            params[key] = value
        elif line.startswith("tensor "):
            _, name, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            data = []
            for row_no in range(i + 1, i + rows + 1):
                where = f"line {row_no}: tensor {name!r}"
                if row_no > len(lines):
                    raise ModelFileError(f"{where}: file ends inside the tensor")
                try:
                    data.append([float(v) for v in lines[row_no - 1].split()])
                except ValueError:
                    raise ModelFileError(f"{where}: unparseable value") from None
                if len(data[-1]) != cols or not np.isfinite(data[-1]).all():
                    raise ModelFileError(f"{where}: expected {cols} finite values")
            tensors[name] = np.array(data)
            i += rows
        else:
            raise ModelFileError(f"line {i}: unrecognized line: {line!r}")
    if kind is None:
        raise ModelFileError("model-kind line missing")
    return kind, params, tensors


def save_model(path, model):
    """Persist a trained CNN or baseline model."""
    if isinstance(model, tr.TrainedModel):
        h = model.hyper
        params = {
            "learning_rate": repr(h.learning_rate),
            "dropout_rate": repr(h.dropout_rate),
            "epochs": h.epochs,
            "batch_size": h.batch_size,
            "adam_beta1": repr(h.adam_beta1),
            "adam_beta2": repr(h.adam_beta2),
            "adam_epsilon": repr(h.adam_epsilon),
            "kernels_per_width": h.kernels_per_width,
            "pool_mode": nn.format_pool_mode(h.pool_mode),
            "seed": h.seed,
        }
        tensors = dict(model.params.tensors())
        tensors["scaler_mean"] = model.scaler.mean
        tensors["scaler_std"] = model.scaler.std
        tensors["fill_values"] = model.fill_values
        atomic_write(path, _serialize("cnn", params, tensors))
    elif isinstance(model, bl.DvLogisticModel):
        enc = model.encoder
        params = {"categorical_mask": "".join("1" if c else "0" for c in enc.categorical_mask)}
        tensors = {
            "weights": model.weights,
            "bias": np.array([model.bias]),
            "fill_values": model.fill_values,
            "numeric_mean": enc.numeric_mean,
            "numeric_std": enc.numeric_std,
        }
        for j, cats in enc.categories.items():
            if cats:
                tensors[f"categories_{j}"] = np.array(cats)
        atomic_write(path, _serialize("dv_logistic", params, tensors))
    elif isinstance(model, bl.ElmModel):
        params = {"ridge": repr(model.ridge)}
        tensors = {
            "hidden_weights": model.hidden_weights,
            "hidden_biases": model.hidden_biases,
            "output_weights": model.output_weights,
            "fill_values": model.fill_values,
            "scaler_mean": model.scaler.mean,
            "scaler_std": model.scaler.std,
        }
        atomic_write(path, _serialize("pso_elm", params, tensors))
    else:
        raise ModelFileError(f"cannot serialize {type(model).__name__}")


def _vec(tensors, name):
    return tensors[name].reshape(-1)


def load_model(path):
    with open(path, encoding="ascii") as fh:
        kind, params, tensors = _parse(fh.read())
    try:
        return _build_model(kind, params, tensors)
    except KeyError as exc:
        raise ModelFileError(f"{kind} model file lacks {exc.args[0]!r}") from None


def _build_model(kind, params, tensors):
    if kind == "cnn":
        hyper = tr.Hyperparams(
            learning_rate=float(params["learning_rate"]),
            dropout_rate=float(params["dropout_rate"]),
            epochs=int(params["epochs"]),
            batch_size=int(params["batch_size"]),
            adam_beta1=float(params["adam_beta1"]),
            adam_beta2=float(params["adam_beta2"]),
            adam_epsilon=float(params["adam_epsilon"]),
            kernels_per_width=int(params["kernels_per_width"]),
            pool_mode=nn.parse_pool_mode(params["pool_mode"]),
            seed=int(params["seed"]),
        )
        net_tensors = {k: v.reshape(-1) if k.startswith(("conv_b", "dense_b")) else v
                       for k, v in tensors.items() if k.startswith(("conv_", "dense_"))}
        std = _vec(tensors, "scaler_std")
        return tr.TrainedModel(
            params=nn.ModelParams.from_tensors(net_tensors),
            scaler=dp.ScalerStats(
                mean=_vec(tensors, "scaler_mean"), std=std, constant=std == 0.0
            ),
            fill_values=_vec(tensors, "fill_values"),
            hyper=hyper,
            curve=tr.TrainingCurve(),
        )
    if kind == "dv_logistic":
        mask = tuple(c == "1" for c in params["categorical_mask"])
        categories = {
            j: (_vec(tensors, f"categories_{j}").tolist() if f"categories_{j}" in tensors else [])
            for j in range(dp.N_FEATURES)
        }
        encoder = bl.DummyEncoder(
            categories=categories,
            numeric_mean=_vec(tensors, "numeric_mean"),
            numeric_std=_vec(tensors, "numeric_std"),
            categorical_mask=mask,
        )
        return bl.DvLogisticModel(
            encoder=encoder,
            weights=_vec(tensors, "weights"),
            bias=float(_vec(tensors, "bias")[0]),
            fill_values=_vec(tensors, "fill_values"),
        )
    if kind == "pso_elm":
        std = _vec(tensors, "scaler_std")
        return bl.ElmModel(
            hidden_weights=tensors["hidden_weights"],
            hidden_biases=_vec(tensors, "hidden_biases"),
            output_weights=tensors["output_weights"],
            fill_values=_vec(tensors, "fill_values"),
            scaler=dp.ScalerStats(
                mean=_vec(tensors, "scaler_mean"), std=std, constant=std == 0.0
            ),
            ridge=float(params["ridge"]),
        )
    raise ModelFileError(f"unknown model-kind {kind!r}")
