"""Command-line surface: validate, train, cv, compare, predict.

Exit codes: 0 success, 2 input error, 3 runtime/training error.
Defaults can come from a flat `key = value` config file (--config); any
flag given on the command line overrides the file. The CARDIOSEQ_OUT
environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import data as dp
from . import evaluation as ev
from . import model_io
from . import training as tr
from .errors import CardioseqError, InputError, NonFiniteProbabilityError

EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3


# CNN flag and config key -> its training.Hyperparams field (default, type and range)
HYPER_KEYS = {"epochs": "epochs", "lr": "learning_rate", "dropout": "dropout_rate",
              "batch": "batch_size", "kernels": "kernels_per_width", "pool": "pool_mode",
              "seed": "seed"}
# run flag and config key -> the names it accepts (a comma list of them in compare), or None
RUN_KEYS = {"data": None, "dialect": dp.DIALECTS, "model": ev.MODEL_KINDS, "k": None, "out": None}


@dataclass
class RunConfig:
    command: str
    data: str = None
    dialect: str = "statlog"
    model: str = "cnn"
    k: int = 10
    out: str = None
    hyper: tr.Hyperparams = field(default_factory=tr.Hyperparams)
    sources: dict = field(default_factory=dict)  # key -> its flag or config line, if set

    def set_value(self, key, text, where):
        """Parse and check `key`'s text; an error starts with `where` (its flag or config line)."""
        try:
            if key in HYPER_KEYS:
                self.hyper = self.hyper.with_text(HYPER_KEYS[key], text)
            else:
                setattr(self, key, self._run_value(key, text))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        self.sources[key] = where

    def _run_value(self, key, text):
        if key == "k":
            k = tr.parse_number(int, text)
            if k < 2:
                raise ValueError(f"need at least 2 folds, got {k}")
            return k
        if key == "out" and not text:
            raise ValueError("empty output directory")
        names = text.split(",") if self.command == "compare" else [text]
        for i, name in enumerate(names):
            if key == "data" and not name:
                raise ValueError("empty data path")
            if RUN_KEYS[key] and name not in RUN_KEYS[key]:
                raise ValueError(f"unknown {key} {name!r}; expected {', '.join(RUN_KEYS[key])}")
            if key == "model" and name in names[:i]:
                raise ValueError(f"model {name!r} is listed twice")
        return text


def load_config_file(path, cfg):
    """Set `cfg` from a flat `key = value` file, one line at a time."""
    for line_no, line in enumerate(dp.read_ascii_lines(path, ValueError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in HYPER_KEYS and key not in RUN_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        cfg.set_value(key, value, f"{path}:{line_no}: {key}")


def build_config(args):
    """Defaults, then CARDIOSEQ_OUT, then the config file, then the flags given, each
    checked as it is set."""
    cfg = RunConfig(args.command, out=".")
    if "CARDIOSEQ_OUT" in os.environ:
        cfg.set_value("out", os.environ["CARDIOSEQ_OUT"], "CARDIOSEQ_OUT")
    if args.config:
        load_config_file(args.config, cfg)
    for key in (*RUN_KEYS, *HYPER_KEYS):
        if getattr(args, key) is not None:
            cfg.set_value(key, getattr(args, key), f"--{key}")
    if cfg.data is None:
        raise ValueError("--data is required")
    return cfg


def parse_for_folds(cfg, path, dialect):
    """The data file at `path`, which must hold enough records for k folds."""
    dataset = dp.parse_dataset(path, dialect)
    if len(dataset) < cfg.k:
        raise ValueError(f"{cfg.sources.get('k', 'default k')}: {path}: {len(dataset)} records "
                         f"cannot fill {cfg.k} folds")
    return dataset


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
    model = ev.FIT[cfg.model]([dataset], cfg.hyper, [cfg.hyper.seed])[0]
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
    dataset = parse_for_folds(cfg, cfg.data, cfg.dialect)
    report = ev.cross_validate(dataset, cfg.model, hyper=cfg.hyper, k=cfg.k, seed=cfg.hyper.seed)
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
        raise ValueError(f"{cfg.sources['dialect']}: give one dialect or one per data file")
    columns = {}  # name -> (path, dialect): the dialect, or the file name once it is taken
    for path, dialect in zip(paths, dialects):
        name = dialect if dialect not in columns else os.path.basename(path)
        if name in columns:
            raise ValueError(f"{cfg.sources['data']}: {columns[name][0]} and {path} would "
                             f"share the column name {name!r}; give them different file names")
        columns[name] = (path, dialect)
    datasets = {name: parse_for_folds(cfg, path, dialect)
                for name, (path, dialect) in columns.items()}
    kinds = cfg.model.split(",") if "model" in cfg.sources else list(ev.MODEL_KINDS)
    table = ev.compare_models(datasets, model_kinds=kinds, hyper=cfg.hyper, k=cfg.k,
                              seed=cfg.hyper.seed)
    os.makedirs(cfg.out, exist_ok=True)
    txt_path = os.path.join(cfg.out, "comparison.txt")
    csv_path = os.path.join(cfg.out, "comparison.csv")
    model_io.atomic_write(txt_path, ev.table_to_text(table))
    model_io.atomic_write(csv_path, ev.table_to_csv(table))
    print(ev.table_to_text(table), end="")
    print(f"wrote {txt_path} and {csv_path}")
    return EXIT_RUNTIME_ERROR if table.failures else 0


def parse_record(text):
    """The (13,) float row of a `predict` record's text, NaN for `?`."""
    tokens = text.split(",")
    if len(tokens) != dp.N_FEATURES:
        raise ValueError(f"record: {len(tokens)} comma-separated values, not {dp.N_FEATURES}")
    values = dp.parse_values(tokens, True, lambda position, problem: ValueError(
        f"record value {position}: {problem}"))
    return np.array(values)


def cmd_predict(args):
    if len(args.record) != 1:
        raise ValueError(f"record: expected one argument of {dp.N_FEATURES} comma-separated "
                         f"values, got {len(args.record)}")
    if not args.model_file:
        raise ValueError("empty model file path")
    model = model_io.load_model(args.model_file)
    record = parse_record(args.record[0])
    with np.errstate(all="ignore"):  # the probabilities are checked below
        cls, probs = tr.predict(model, record)
        if not np.isfinite(probs).all():
            # the record is at fault if the model scores its own fill values
            fill_probs = tr.predict(model, np.full(dp.N_FEATURES, np.nan))[1]
            where = "record" if np.isfinite(fill_probs).all() else args.model_file
            raise NonFiniteProbabilityError(where, probs)
    print(f"class {cls}, p = {probs[0]:.6f} {probs[1]:.6f}")
    return 0


COMMANDS = {"validate": cmd_validate, "train": cmd_train, "cv": cmd_cv, "compare": cmd_compare}


def _add_common(parser):
    parser.add_argument("--data", help="dataset path")
    parser.add_argument("--dialect", help="statlog or cleveland (comma list for compare)")
    parser.add_argument("--model", help="cnn, dv_logistic or pso_elm (comma list for compare)")
    parser.add_argument("--k", help=f"folds for cv and compare [{RunConfig.k}]")
    cnn = parser.add_argument_group("CNN settings", (
        "Defaults in brackets; --pool takes global or windowed:SIZE:STRIDE. --seed also "
        "seeds the folds and PSO-ELM; the baselines otherwise train with their own defaults."))
    defaults = tr.Hyperparams().texts()
    for key, name in HYPER_KEYS.items():
        cnn.add_argument(f"--{key}", help=f"[{defaults[name]}]")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key = value config file")


def _show_warning(message, *_):
    """`warnings.showwarning` in `main`: a warning that the filters let through
    shows as one `warning: MESSAGE` line, as an error does."""
    print(f"warning: {message}", file=sys.stderr)


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
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if args.command == "predict":
                return cmd_predict(args)
            return COMMANDS[args.command](build_config(args))
        except (OSError, ValueError, CardioseqError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            input_error = isinstance(exc, (OSError, ValueError, InputError))
            return EXIT_INPUT_ERROR if input_error else EXIT_RUNTIME_ERROR
        except MemoryError:
            print(f"error: out of memory in {args.command}", file=sys.stderr)
            return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
