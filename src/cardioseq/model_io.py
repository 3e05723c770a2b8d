"""Versioned plain-text model files, training-curve files, ASCII reads and
atomic writes.

Model-file layout: a `cardioseq-model v1` header, a `model-kind` line,
`param` lines for scalar settings, then `tensor <name> <rows> <cols>`
blocks with row-major decimal values at 17 significant digits. Vectors are
stored as one-row tensors. Loading checks every param and tensor shape
against the model kind, refuses a repeated `model-kind` line, param or
tensor, and names the offending line.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields
from functools import partial

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
    rows = zip(curve.train_accuracy, curve.train_loss)
    lines = ["epoch,train_acc,train_loss"] + [
        f"{epoch},{acc:.17g},{loss:.17g}" for epoch, (acc, loss) in enumerate(rows, start=1)]
    atomic_write(path, "\n".join(lines) + "\n")


def _serialize(kind, params, tensors):
    lines = [HEADER, f"model-kind {kind}"]
    lines += [f"param {key} {value}" for key, value in params.items()]
    for name, array in tensors.items():
        a = np.atleast_2d(np.asarray(array, dtype=float))
        lines.append(f"tensor {name} {a.shape[0]} {a.shape[1]}")
        lines += [" ".join(f"{v:.17g}" for v in row) for row in a]
    return "\n".join(lines) + "\n"


class _Sections:
    """A model file's params and tensors by name, each with its line number. Every
    read checks the value against what the model kind expects (KeyError: absent)."""

    def __init__(self):
        self.params, self.tensors = {}, {}  # name -> (line number, value)

    def add(self, section, name, line, value):
        """Record param or tensor `name` read at `line`; a name read before raises."""
        table = self.params if section == "param" else self.tensors
        if name in table:
            raise ModelFileError(f"line {line}: {section} {name!r} repeats line {table[name][0]}")
        table[name] = (line, value)

    def param(self, name, convert):
        line, text = self.params[name]
        try:
            return convert(text)
        except ValueError as exc:
            raise ModelFileError(f"line {line}: param {name!r}: {exc}") from None

    def tensor(self, name, rows, cols=None):
        """The tensor `name`, which must be rows x cols (cols None: any number)."""
        line, array = self.tensors[name]
        if array.shape[0] != rows or cols not in (None, array.shape[1]):
            got = "x".join(map(str, array.shape))
            want = f"{rows}x{'any' if cols is None else cols}"
            raise ModelFileError(f"line {line}: tensor {name!r}: expected {want}, got {got}")
        return array

    def vector(self, name, size=None):
        return self.tensor(name, 1, size)[0]


def _parse(lines):
    if not lines or lines[0] != HEADER:
        raise ModelFileError("missing or unsupported model file header")
    kind = None
    sections = _Sections()
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("model-kind "):
            if kind is not None:
                raise ModelFileError(f"line {i}: model-kind repeats line {kind[0]}")
            kind = (i, line.split(None, 1)[1])
        elif line.startswith("param "):
            _, key, *value = line.split(None, 2)
            if not value:
                raise ModelFileError(f"line {i}: param {key!r}: no value")
            sections.add("param", key, i, value[0])
        elif line.startswith("tensor "):
            parts = line.split()
            if len(parts) != 4 or not (parts[2].isdigit() and parts[3].isdigit()):
                raise ModelFileError(f"line {i}: tensor {parts[1]!r}: expected "
                                     "'tensor <name> <rows> <cols>'")
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
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
            sections.add("tensor", name, i, np.array(data).reshape(rows, cols))
            i += rows
        else:
            raise ModelFileError(f"line {i}: unrecognized line: {line!r}")
    if kind is None:
        raise ModelFileError("model-kind line missing")
    return kind[1], sections


def _scaler_tensors(scaler, prefix="scaler"):
    return {f"{prefix}_mean": scaler.mean, f"{prefix}_std": scaler.std}


def _read_scaler(sections, prefix="scaler"):
    """The scaler. A spread that is negative, or nonzero with an infinite
    reciprocal (a value off the mean would scale to inf), names its line:
    `data.fit_scaler` never gives one."""
    name = f"{prefix}_std"
    std = sections.vector(name, dp.N_FEATURES)
    with np.errstate(divide="ignore", over="ignore"):
        bad = np.flatnonzero((std < 0) | ((std > 0) & np.isinf(1.0 / std)))
    if bad.size:
        raise ModelFileError(f"line {sections.tensors[name][0]}: tensor {name!r}: column "
                             f"{dp.FEATURE_NAMES[bad[0]]!r} has spread {float(std[bad[0]])!r}, "
                             "which is negative or too small to scale by")
    return dp.ScalerStats(mean=sections.vector(f"{prefix}_mean", dp.N_FEATURES), std=std)


def _encode_cnn(model):
    return model.hyper.texts(), {**model.params.tensors(), **_scaler_tensors(model.scaler),
                                 "fill_values": model.fill_values}


def _decode_cnn(sections):
    hyper = tr.Hyperparams()
    for f in fields(hyper):  # params it does not read, as older files' `adam_*`, go unread
        hyper = sections.param(f.name, partial(hyper.with_text, f.name))
    net = {name: sections.tensor(name, *shape) if len(shape) == 2 else sections.vector(name, *shape)
           for name, shape in nn.param_shapes(hyper.kernels_per_width, hyper.pool_mode).items()}
    return tr.TrainedModel(
        params=nn.ModelParams.from_tensors(net), scaler=_read_scaler(sections),
        fill_values=sections.vector("fill_values", dp.N_FEATURES), hyper=hyper,
    )


def _encode_dv_logistic(model):
    enc = model.encoder
    tensors = {"weights": model.weights, "bias": np.array([model.bias]),
               "fill_values": model.fill_values, **_scaler_tensors(enc.scaler, "numeric")}
    tensors.update({f"categories_{j}": np.array(c) for j, c in enc.categories.items() if c})
    return {"categorical_mask": "".join("1" if c else "0" for c in enc.categorical_mask)}, tensors


def _parse_mask(text):
    if len(text) != dp.N_FEATURES or set(text) - {"0", "1"}:
        raise ValueError(f"expected {dp.N_FEATURES} characters of 0/1, got {text!r}")
    return tuple(c == "1" for c in text)


def _decode_dv_logistic(sections):
    mask = sections.param("categorical_mask", _parse_mask)
    encoder = bl.DummyEncoder(
        categories={j: sections.vector(f"categories_{j}").tolist() if is_cat else []
                    for j, is_cat in enumerate(mask)},
        scaler=_read_scaler(sections, "numeric"),
        categorical_mask=mask,
    )
    return bl.DvLogisticModel(
        encoder=encoder, weights=sections.vector("weights", encoder.width),
        bias=float(sections.vector("bias", 1)[0]),
        fill_values=sections.vector("fill_values", dp.N_FEATURES),
    )


def _encode_pso_elm(model):
    return {}, {
        "hidden_weights": model.hidden_weights, "hidden_biases": model.hidden_biases,
        "output_weights": model.output_weights, "fill_values": model.fill_values,
        **_scaler_tensors(model.scaler)}


def _decode_pso_elm(sections):
    hidden_weights = sections.tensor("hidden_weights", dp.N_FEATURES)
    h = hidden_weights.shape[1]
    return bl.ElmModel(
        hidden_weights=hidden_weights, hidden_biases=sections.vector("hidden_biases", h),
        output_weights=sections.tensor("output_weights", h, 2),
        fill_values=sections.vector("fill_values", dp.N_FEATURES), scaler=_read_scaler(sections),
    )


# model-kind -> (model class, encode(model) -> (params, tensors), decode(sections) -> model)
KINDS = {
    "cnn": (tr.TrainedModel, _encode_cnn, _decode_cnn),
    "dv_logistic": (bl.DvLogisticModel, _encode_dv_logistic, _decode_dv_logistic),
    "pso_elm": (bl.ElmModel, _encode_pso_elm, _decode_pso_elm),
}


def save_model(path, model):
    """Persist a trained CNN or baseline model."""
    kind = next((kind for kind, (cls, _, _) in KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise ModelFileError(f"cannot serialize {type(model).__name__}")
    atomic_write(path, _serialize(kind, *KINDS[kind][1](model)))


def load_model(path):
    kind, sections = _parse(dp.read_ascii_lines(path, ModelFileError))
    if kind not in KINDS:
        raise ModelFileError(f"unknown model-kind {kind!r}")
    try:
        return KINDS[kind][2](sections)
    except KeyError as exc:
        raise ModelFileError(f"{kind} model file lacks {exc.args[0]!r}") from None
