"""Command-line surface: validate, train, cv, compare, predict.

Exit codes: 0 success, 2 input error, 3 runtime/training error.
Defaults can come from a flat `key = value` config file (--config); any
flag given on the command line overrides the file. The CARDIOSEQ_OUT
environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as dp
from . import evaluation as ev
from . import model_io
from . import network as nn
from . import training as tr
from .errors import (CardioseqError, EmptyDatasetError, MalformedRowError, ModelFileError,
                     TooFewSamplesError)

EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3


@dataclass
class RunConfig:
    data: str = None
    dialect: str = "statlog"
    model: str = "cnn"
    epochs: int = 50
    lr: float = 0.001
    dropout: float = 0.5
    batch: int = 16
    kernels: int = 8
    pool: str = "global"
    k: int = 10
    seed: int = 0
    out: str = None


_CONFIG_TYPES = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}


def load_config_file(path):
    values = {}
    with open(path, encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: {key}: expected "
                                 f"{_CONFIG_TYPES[key].__name__}, got {value!r}") from None
    return values


def build_config(args):
    cfg = RunConfig()
    explicit = set()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_values.items():
        setattr(cfg, key, value)
        explicit.add(key)
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
            explicit.add(key)
    if cfg.out is None:
        cfg.out = os.environ.get("CARDIOSEQ_OUT", ".")
    cfg.explicit = explicit
    return cfg


def check_flags(cfg, command):
    """Reject unknown --model names and out-of-range --pool, --k and --lr
    values before any work starts."""
    for kind in cfg.model.split(",") if command == "compare" else [cfg.model]:
        if kind not in ev.FIT:
            raise ValueError(f"--model: unknown model {kind!r}; expected {', '.join(ev.FIT)}")
    try:
        nn.parse_pool_mode(cfg.pool)
    except ValueError as exc:
        raise ValueError(f"--pool: {exc}") from None
    if cfg.k < 2:
        raise ValueError(f"--k: need at least 2 folds, got {cfg.k}")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise ValueError(f"--lr: need a finite positive learning rate, got {cfg.lr}")


def hyper_from_config(cfg):
    return tr.Hyperparams(
        learning_rate=cfg.lr,
        dropout_rate=cfg.dropout,
        epochs=cfg.epochs,
        batch_size=cfg.batch,
        kernels_per_width=cfg.kernels,
        pool_mode=nn.parse_pool_mode(cfg.pool),
        seed=cfg.seed,
    )


def cmd_validate(cfg):
    dataset = dp.parse_dataset(cfg.data, cfg.dialect)
    print(f"{len(dataset)} records")
    print(f"class balance: {int(np.sum(dataset.y == 0))} absence, "
          f"{int(np.sum(dataset.y == 1))} presence")
    missing = np.isnan(dataset.X).sum(axis=0)
    if missing.any():
        print("missing values per column:")
        for name, count in zip(dp.FEATURE_NAMES, missing):
            if count:
                print(f"  {name}: {int(count)}")
    else:
        print("no missing values")
    return 0


def cmd_train(cfg):
    dataset = dp.parse_dataset(cfg.data, cfg.dialect)
    model = ev.FIT[cfg.model]([dataset], hyper_from_config(cfg), [cfg.seed])[0]
    os.makedirs(cfg.out, exist_ok=True)
    model_path = os.path.join(cfg.out, "model.txt")
    model_io.save_model(model_path, model)
    if cfg.model != "cnn":  # only the CNN trains in epochs
        print(f"wrote {model_path}")
        return 0
    curve_path = os.path.join(cfg.out, "curve.csv")
    model_io.save_curve(curve_path, model.curve)
    if len(model.curve):
        print(f"final train accuracy: {model.curve.train_accuracy[-1]:.6f}")
        print(f"final train loss: {model.curve.train_loss[-1]:.6f}")
    else:
        print("0 epochs: wrote initialized model")
    print(f"wrote {model_path} and {curve_path}")
    return 0


def cmd_cv(cfg):
    dataset = dp.parse_dataset(cfg.data, cfg.dialect)
    try:
        report = ev.cross_validate(
            dataset, cfg.model, hyper=hyper_from_config(cfg), k=cfg.k, seed=cfg.seed
        )
    except TooFewSamplesError as exc:
        raise ValueError(f"--k: {exc}") from None
    os.makedirs(cfg.out, exist_ok=True)
    txt_path = os.path.join(cfg.out, f"cv_{cfg.model}.txt")
    csv_path = os.path.join(cfg.out, f"cv_{cfg.model}.csv")
    model_io.atomic_write(txt_path, ev.report_to_text(report))
    model_io.atomic_write(csv_path, ev.report_to_csv(report))
    print(f"mean accuracy: {report.mean_accuracy:.6f}")
    print(f"wrote {txt_path} and {csv_path}")
    return 0


def cmd_compare(cfg):
    paths = cfg.data.split(",")
    dialects = cfg.dialect.split(",")
    if len(dialects) == 1:
        dialects *= len(paths)
    if len(dialects) != len(paths):
        raise ValueError("--dialect must match --data (one value or one per path)")
    datasets = {}
    for path, dialect in zip(paths, dialects):
        name = dialect if dialect not in datasets else os.path.basename(path)
        datasets[name] = dp.parse_dataset(path, dialect)
        if len(datasets[name]) < cfg.k:
            raise ValueError(f"--k: {path}: {len(datasets[name])} records cannot fill "
                             f"{cfg.k} folds")
    kinds = cfg.model.split(",") if "model" in cfg.explicit else list(ev.MODEL_KINDS)
    table = ev.compare_models(
        datasets, model_kinds=kinds, hyper=hyper_from_config(cfg), k=cfg.k, seed=cfg.seed
    )
    os.makedirs(cfg.out, exist_ok=True)
    txt_path = os.path.join(cfg.out, "comparison.txt")
    csv_path = os.path.join(cfg.out, "comparison.csv")
    model_io.atomic_write(txt_path, ev.table_to_text(table))
    model_io.atomic_write(csv_path, ev.table_to_csv(table))
    print(ev.table_to_text(table), end="")
    print(f"wrote {txt_path} and {csv_path}")
    return EXIT_RUNTIME_ERROR if table.failures else 0


def parse_record(text):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != dp.N_FEATURES:
        raise ValueError(f"expected {dp.N_FEATURES} comma-separated values")
    features = tuple(None if t == "?" else float(t) for t in tokens)
    for position, (token, value) in enumerate(zip(tokens, features), start=1):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"record value {position}: non-finite token {token!r}")
    return dp.SampleRecord(features, 0)


def cmd_predict(args):
    if len(args.record) != 1:
        raise ValueError(f"record: expected one argument of {dp.N_FEATURES} comma-separated "
                         f"values, got {len(args.record)}")
    model = model_io.load_model(args.model_file)
    record = parse_record(args.record[0])
    with np.errstate(all="ignore"):  # the probabilities are checked below
        cls, probs = tr.predict(model, record)
    if not np.isfinite(probs).all():
        print(f"error: {args.model_file}: non-finite class probabilities "
              f"{probs[0]} {probs[1]}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    print(f"class {cls}, p = {probs[0]:.6f} {probs[1]:.6f}")
    return 0


COMMANDS = {"validate": cmd_validate, "train": cmd_train, "cv": cmd_cv, "compare": cmd_compare}


def _add_common(parser):
    parser.add_argument("--data", required=False, help="dataset path")
    parser.add_argument("--dialect", choices=None, default=None,
                        help="statlog or cleveland (comma list for compare)")
    parser.add_argument("--model", default=None,
                        help="cnn, dv_logistic or pso_elm (comma list for compare)")
    cnn = parser.add_argument_group(
        "CNN hyperparameters", "The baselines always train with their own defaults.")
    cnn.add_argument("--epochs", type=int, default=None)
    cnn.add_argument("--lr", type=float, default=None)
    cnn.add_argument("--dropout", type=float, default=None)
    cnn.add_argument("--batch", type=int, default=None)
    cnn.add_argument("--kernels", type=int, default=None)
    cnn.add_argument("--pool", default=None, help="global or windowed:SIZE:STRIDE")
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None, help="key = value config file")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cardioseq",
        description="1D-CNN cardiovascular-risk classifier with baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(sub.add_parser(name))
    pred = sub.add_parser("predict", description=(
        "Print the class and both class probabilities. PSO-ELM's are the softmax of "
        "its least-squares scores: ordered like the scores, not calibrated."))
    pred.add_argument("model_file", help="path to a saved model file")
    # REMAINDER, so that a record starting with a negative value is not read as an option
    pred.add_argument("record", nargs=argparse.REMAINDER,
                      help="13 comma-separated values, ? = missing")

    args = parser.parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args)
        cfg = build_config(args)
        check_flags(cfg, args.command)
        if cfg.data is None:
            print("error: --data is required", file=sys.stderr)
            return EXIT_INPUT_ERROR
        return COMMANDS[args.command](cfg)
    except (OSError, ValueError, CardioseqError) as exc:
        input_error = isinstance(
            exc, (OSError, ValueError, MalformedRowError, EmptyDatasetError, ModelFileError)
        )
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR if input_error else EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
