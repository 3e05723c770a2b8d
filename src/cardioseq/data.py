"""Dataset parsing, imputation, Z-score standardization and feature matrices.

Supports the two public UCI heart-disease file dialects:

* statlog: 13 whitespace-separated numeric attributes plus a class token
  in {1, 2}; labels are remapped 1 -> 0 (absence), 2 -> 1 (presence).
* cleveland: 14 comma-separated fields, ``?`` marks a missing value, the
  last field is in {0..4} and is binarized (0 -> 0, 1..4 -> 1).

A clean file is read in one numpy pass: one that holds only numerals and the
dialect's separators (and ``?`` as a whole cleveland field), with 14 finite
values or ``?`` to a row and valid labels. Any other file is parsed row by
row, which locates every error. Both ways give the same arrays, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AllMissingColumnError,
    ArityMismatchError,
    ColumnOverflowError,
    EmptyDatasetError,
    MalformedRowError,
    MissingValueError,
    NonAsciiFileError,
    SingleClassDataError,
    UnknownLabelError,
)

N_FEATURES = 13

DIALECTS = ("statlog", "cleveland")

STATLOG_LABELS = ("1", "2", "1.0", "2.0")  # the label texts a statlog row may hold
CLEVELAND_LEVELS = range(5)

FEATURE_NAMES = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal",
)

# Features conventionally treated as categorical in this dataset family.
CATEGORICAL_FEATURES = frozenset(
    {"sex", "cp", "fbs", "restecg", "exang", "slope", "ca", "thal"}
)

DEFAULT_CATEGORICAL_MASK = tuple(n in CATEGORICAL_FEATURES for n in FEATURE_NAMES)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n subjects held once, as arrays.

    X is an (n, 13) read-only float64 array with NaN for missing values
    (None given in X reads as NaN); y is the (n,) read-only int64 array of
    0/1 labels. Row i is X[i], a (13,) array.
    """

    X: np.ndarray
    y: np.ndarray
    categorical_mask: tuple = DEFAULT_CATEGORICAL_MASK

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        if X.shape[1:] != (N_FEATURES,) or y.shape != X.shape[:1] or not np.isin(y, (0, 1)).all():
            raise ArityMismatchError(
                f"expected (n, {N_FEATURES}) features and n 0/1 labels, got {X.shape}, {y.shape}"
            )
        X.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.X.shape[0]

    @property
    def labels(self):
        return self.y

    def feature_array(self):
        """All features as an (n, 13) float array with NaN for missing."""
        return self.X

    @property
    def records(self):
        """`X`: kept only for the benchmark's predict stream (benchmarks/workloads.py
        and its test), until the benchmark streams `X` itself."""
        return self.X

    @property
    def has_missing(self):
        return bool(np.isnan(self.X).any())

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, X=self.X[idx], y=self.y[idx])


@dataclass(frozen=True)
class ScalerStats:
    """Per-column population mean/std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if np.any(self.std < 0):
            raise ArityMismatchError("standard deviations must be non-negative")

    @property
    def constant(self):
        """Columns with zero spread (all training values equal); they scale to 0."""
        return self.std == 0.0


def parse_number(kind, text):
    """`kind(text)`, kind int or float, of an ASCII numeral with no `_`: the one
    grammar of every number the program reads (int() and float() read both).
    The ValueError quotes the text."""
    if "_" not in text and text.isascii():
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"expected {kind.__name__}, got {text!r}")


def parse_values(tokens, missing_ok, error):
    """The floats of one row's value tokens, each stripped; `?` is NaN where
    `missing_ok`. The first token that is not a finite ASCII numeral raises
    `error(position, problem)`, position counted from 1."""
    values = []
    for position, tok in enumerate(tokens, start=1):
        tok = tok.strip() if tok.isascii() else tok  # shown whole in the error
        if tok == "?" and missing_ok:
            values.append(math.nan)
            continue
        try:
            value = parse_number(float, tok)
        except ValueError:
            raise error(position, f"unparseable token {tok!a}") from None
        if not math.isfinite(value):
            raise error(position, f"non-finite token {tok!r}")
        values.append(value)
    return values


def _parse_row(tokens, path, line_no, dialect):
    """Features (NaN for a cleveland `?`) and 0/1 label of one row's tokens."""
    values = parse_values(tokens[:-1], dialect == "cleveland",
                          lambda _, problem: MalformedRowError(path, line_no, problem))
    raw_label = tokens[-1].strip()
    if dialect == "statlog":
        if raw_label not in STATLOG_LABELS:
            raise UnknownLabelError(path, line_no, f"unknown statlog label {raw_label!r}")
        return values, int(float(raw_label)) - 1
    try:
        value = parse_number(float, raw_label)
        level = int(value)
    except (ValueError, OverflowError):
        raise UnknownLabelError(path, line_no, f"unparseable label {raw_label!a}")
    if level not in CLEVELAND_LEVELS:
        raise UnknownLabelError(path, line_no, f"cleveland label out of range: {level}")
    if level != value:
        raise UnknownLabelError(path, line_no, f"cleveland label {raw_label!r} is not an integer")
    return values, int(level > 0)


def read_ascii_lines(path, error):
    """The lines of the text file `path` (split at \\n, \\r or \\r\\n). A byte
    outside ASCII raises `error` with the path, line and column of the first
    such byte."""
    # undecodable bytes read as surrogates, so that the error can name its line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = [line.rstrip("\n") for line in fh]
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            column, char = next((i, c) for i, c in enumerate(line, start=1) if not c.isascii())
            raise error(f"{path}:{line_no}: byte {ord(char) - 0xDC00:#04x} at "
                        f"column {column} is not ASCII")
    return lines


# Every byte a clean file of each dialect may hold, line ends included. This
# leaves out letters (`nan`, `inf`), `_`, `#`, quotes, and whitespace other
# than space and tab (\v, \f, \x1c-\x1f), which str.strip and str.split
# read as whitespace and loadtxt may not.
_CLEAN_BYTES = {"statlog": b"0123456789.+-eE \t\n", "cleveland": b"0123456789.+-eE \t\n,?"}


def _read_clean(lines, dialect):
    """(X, y) of a clean file's `lines`, read in one numpy pass, or None
    unless `_parse_rows` would give the same arrays."""
    rows = [row for row in map(str.strip, lines) if row]
    if not rows:  # loadtxt warns on empty input
        return None
    text = "\n".join(rows)
    if text.encode("ascii").translate(None, _CLEAN_BYTES[dialect]):
        return None
    if dialect == "cleveland":
        # a `?` with anything but `,` or a line end beside it (`-?` would read as -nan)
        if re.search(r"\?(?<=[^,\n]\?)|\?(?=[^,\n])", text):
            return None
        rows = [row.replace("?", "nan") for row in rows]
    try:
        table = np.loadtxt(rows, delimiter="," if dialect == "cleveland" else None,
                           comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), N_FEATURES + 1) or np.isinf(table[:, :N_FEATURES]).any():
        return None
    X, label = table[:, :N_FEATURES], table[:, N_FEATURES]
    if dialect == "statlog":
        if not {row.rsplit(None, 1)[-1] for row in rows} <= set(STATLOG_LABELS):
            return None
        return X, label.astype(np.int64) - 1
    if not np.isin(label, CLEVELAND_LEVELS).all():
        return None
    return X, (label > 0).astype(np.int64)


def _parse_rows(lines, path, dialect):
    """A Dataset of the file's `lines`, parsed and checked one row at a time."""
    X = np.empty((len(lines), N_FEATURES))
    y = np.empty(len(lines), dtype=np.int64)
    n = 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split() if dialect == "statlog" else line.split(",")
        if len(tokens) != N_FEATURES + 1:
            raise MalformedRowError(path, line_no,
                                    f"expected {N_FEATURES + 1} fields, got {len(tokens)}")
        X[n], y[n] = _parse_row(tokens, path, line_no, dialect)
        n += 1
    if n == 0:
        raise EmptyDatasetError(f"{path}: no records")
    return Dataset(X[:n], y[:n])


def parse_dataset(path, dialect):
    """Parse a heart-disease file into a Dataset.

    Every non-empty line either yields a row or raises a MalformedRowError
    located as PATH:LINE; rows are never silently skipped. A clean file is
    read in one numpy pass; any other, and every error, is left to the
    row-by-row parser.
    """
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    lines = read_ascii_lines(path, NonAsciiFileError)
    clean = _read_clean(lines, dialect)
    if clean is None:
        return _parse_rows(lines, path, dialect)
    return Dataset(*clean)


def fill_values(stats_source):
    """Per-column fill values: mean of observed values for numeric columns,
    mode (smallest value on ties) for categorical ones.

    Statistics come from stats_source only, so fitting on a training split
    and applying elsewhere never leaks test information.
    """
    raw = stats_source.X
    fills = np.empty(N_FEATURES)
    for j in range(N_FEATURES):
        observed = raw[~np.isnan(raw[:, j]), j]
        if observed.size == 0:
            raise AllMissingColumnError(
                f"column {FEATURE_NAMES[j]!r} has no observed values"
            )
        if stats_source.categorical_mask[j]:
            # np.unique sorts, and argmax takes the first of the tied counts
            values, counts = np.unique(observed, return_counts=True)
            fills[j] = values[counts.argmax()]
        else:
            # rounding can take the mean outside the observed range, e.g. off
            # a column of equal values, which would then not stay constant
            with np.errstate(over="ignore", invalid="ignore"):  # fit_scaler reports overflow
                fills[j] = np.clip(observed.mean(), observed.min(), observed.max())
    return fills


def impute_array(X, fills):
    """Replace the NaN entries of a raw (n, 13) array with per-column fill values."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES or len(fills) != N_FEATURES:
        raise ArityMismatchError(f"expected (n, 13) rows and 13 fill values, got "
                                 f"{X.shape} and {len(fills)}")
    return np.where(np.isnan(X), fills, X)


def impute_with_values(data, fills):
    """Replace missing entries with the given per-column fill values."""
    return replace(data, X=impute_array(data.X, fills))


def fit_scaler(data):
    """Population mean/std per column of a fully imputed dataset. A column of
    equal values gets std exactly 0, so it scales to 0 (its computed std can
    be a rounding residue: 2.2e-16 for 0.7 repeated 303 times). A nonzero
    std is at least sqrt(5e-324), about 2.2e-162, since the squared
    deviations underflow to 0 below that, so 1/std is finite (`model_io`
    refuses a file whose spread is not)."""
    if len(data) == 0:
        raise EmptyDatasetError("cannot fit a scaler on an empty dataset")
    if data.has_missing:
        raise MissingValueError("impute before fitting the scaler")
    # population (divide-by-N) convention; values too far apart to square give
    # an infinite spread, which scales the column to 0
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std, ptp = data.X.mean(axis=0), data.X.std(axis=0), np.ptp(data.X, axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(ptp)))
    if bad.size:
        raise ColumnOverflowError(f"column {FEATURE_NAMES[bad[0]]!r} has values too large to scale")
    std[ptp == 0] = 0.0
    return ScalerStats(mean=mean, std=std)


def fit_preprocessing(datasets):
    """The preprocessing fit of every model kind, for each training set:
    (fill values, the set imputed with them, scaler of the imputed set, the
    imputed rows Z-scored with it): the one place a training set is scaled.
    A model holds the fill values and scaler (`training.Classifier`).

    Every set must hold both classes, checked before anything is fit. An
    error names the set as `fold f` when there are several.
    """
    names = [f"fold {f}: " if len(datasets) > 1 else "" for f in range(len(datasets))]
    for name, dataset in zip(names, datasets):
        if np.unique(dataset.y).size < 2:
            raise SingleClassDataError(f"{name}training data must contain both classes")
    fitted = []
    for name, dataset in zip(names, datasets):
        try:
            fills = fill_values(dataset)
            imputed = impute_with_values(dataset, fills)
            scaler = fit_scaler(imputed)
        except (AllMissingColumnError, ColumnOverflowError) as exc:
            raise type(exc)(f"{name}{exc}") from None
        fitted.append((fills, imputed, scaler, scale_values(imputed.X, scaler)))
    return fitted


def class_permutations(labels, rng):
    """Each class's row numbers in a random order, classes ascending: one
    `rng.permutation` per class, drawn in that order."""
    rows = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    return [idx[rng.permutation(idx.size)] for idx in rows]


def scale_values(values, stats):
    """Z-score a raw (n, 13) array with fitted statistics."""
    safe_std = np.where(stats.constant, 1.0, stats.std)
    scaled = (np.asarray(values, dtype=float) - stats.mean) / safe_std
    scaled[..., stats.constant] = 0.0
    return scaled

