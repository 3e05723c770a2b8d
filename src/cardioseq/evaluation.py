"""Stratified 10-fold cross-validation and the model comparison table."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines as bl
from . import data as dp
from . import training as tr
from .errors import NonFiniteProbabilityError, TooFewSamplesError

# kind -> fit(datasets, hyper, seeds) -> one model per dataset. Only the CNN reads
# `hyper`, a training.Hyperparams: the baselines use their defaults. Dv-Logistic
# starts from zero weights and needs no seed.
FIT = {
    "dv_logistic": lambda sets, hyper, seeds: bl.dv_logistic_train_folds(sets),
    "pso_elm": lambda sets, hyper, seeds: bl.pso_elm_train_folds(sets, seeds),
    "cnn": lambda sets, hyper, seeds: tr.train_folds(sets, hyper, seeds),
}

MODEL_KINDS = tuple(FIT)

# Published reference accuracies (%) for these three models on the two
# public heart-disease datasets, reported alongside our runs for context.
REFERENCE_ACCURACY = {
    ("dv_logistic", "statlog"): 85.58,
    ("dv_logistic", "cleveland"): 85.73,
    ("pso_elm", "statlog"): 91.99,
    ("pso_elm", "cleveland"): 93.38,
    ("cnn", "statlog"): 97.25,
    ("cnn", "cleveland"): 98.42,
}


@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    assignments: np.ndarray  # per-record fold index

    def fold_indices(self, fold):
        return np.flatnonzero(self.assignments == fold)


@dataclass
class CvReport:
    model_kind: str
    k: int
    seed: int
    fold_accuracy: list
    fold_confusion: list  # per fold: dict tp/tn/fp/fn
    hyper_summary: str

    @property
    def mean_accuracy(self):
        return float(np.mean(self.fold_accuracy))


@dataclass
class ComparisonTable:
    dataset_names: list
    model_kinds: list
    reports: dict  # (model_kind, dataset_name) -> CvReport
    failures: dict = field(default_factory=dict)  # cell -> error message
    seed: int = 0


def kfold_split(dataset, k=10, seed=0):
    """Seeded fold assignment; stratified by class unless a class is too
    small (then unstratified with a warning). Fold sizes differ by at most 1."""
    tr.check_at_least(("k", k, 2), ("seed", seed, 0))
    n = len(dataset)
    if n < k:
        raise TooFewSamplesError(f"{n} records cannot fill {k} folds")
    labels = dataset.labels
    if np.unique(labels, return_counts=True)[1].min() < k / 2:
        warnings.warn("class too small for stratification; using plain folds")
        labels = np.zeros(n, dtype=np.int64)  # all rows one class: one permutation
    # round-robin per class, continuing the fold offset across classes so
    # overall fold sizes stay balanced
    assignments = np.empty(n, dtype=np.int64)
    offset = 0
    for idx in dp.class_permutations(labels, np.random.default_rng(seed)):
        assignments[idx] = (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def _fold_seed(base_seed, fold):
    # derived per fold so results do not depend on evaluation order
    return int(np.random.SeedSequence([base_seed, fold]).generate_state(1)[0])


def cross_validate(dataset, model_kind, hyper=tr.Hyperparams(), k=10, seed=0):
    """k-fold protocol: preprocessing and model are refit per fold on the
    other k-1 folds only, so test-fold rows never leak into training.
    `hyper` applies to the CNN only; the baselines use their own defaults."""
    if model_kind not in FIT:
        raise ValueError(f"unknown model kind {model_kind!r}")
    plan = kfold_split(dataset, k=k, seed=seed)
    models = FIT[model_kind](
        [dataset.subset(np.flatnonzero(plan.assignments != fold)) for fold in range(k)],
        hyper, [_fold_seed(seed, fold) for fold in range(k)],
    )
    fold_accuracy, fold_confusion = [], []
    for fold, model in enumerate(models):
        test_rows = plan.fold_indices(fold)
        test_ds = dataset.subset(test_rows)
        try:
            pred, y = model.predict_batch(test_ds), test_ds.labels
        except NonFiniteProbabilityError as exc:
            raise NonFiniteProbabilityError(f"fold {fold}: record {test_rows[exc.row] + 1}",
                                            exc.probs) from None
        fold_accuracy.append(float(np.mean(pred == y)))
        fold_confusion.append(tr.confusion_counts(pred, y))
    return CvReport(
        model_kind=model_kind, k=k, seed=seed,
        fold_accuracy=fold_accuracy, fold_confusion=fold_confusion,
        hyper_summary=repr(replace(hyper, seed=seed)) if model_kind == "cnn" else "defaults",
    )


def compare_models(datasets, model_kinds=MODEL_KINDS, hyper=tr.Hyperparams(), k=10, seed=0):
    """Cross-validate every (model, dataset) cell; failed cells are kept as
    markers so a partial table still comes out."""
    table = ComparisonTable(
        dataset_names=list(datasets), model_kinds=list(model_kinds), reports={}, seed=seed,
    )
    for name, ds in datasets.items():
        for kind in model_kinds:
            try:
                table.reports[(kind, name)] = cross_validate(ds, kind, hyper=hyper, k=k, seed=seed)
            except Exception as exc:  # cell failure must not kill the table
                table.failures[(kind, name)] = f"{type(exc).__name__}: {exc}"
    return table


# ---------------------------------------------------------------------------
# Report serialization (aligned text + CSV)
# ---------------------------------------------------------------------------

def report_to_text(report):
    lines = [
        f"model: {report.model_kind}   k: {report.k}   seed: {report.seed}",
        f"hyper: {report.hyper_summary}",
        f"{'fold':>4} {'accuracy':>10} {'tp':>4} {'tn':>4} {'fp':>4} {'fn':>4}",
    ]
    for i, (acc, c) in enumerate(zip(report.fold_accuracy, report.fold_confusion)):
        lines.append(
            f"{i:>4} {acc:>10.6f} {c['tp']:>4} {c['tn']:>4} {c['fp']:>4} {c['fn']:>4}"
        )
    lines.append(f"mean accuracy: {report.mean_accuracy:.6f}")
    return "\n".join(lines) + "\n"


def report_to_csv(report):
    lines = ["fold,accuracy,tp,tn,fp,fn"]
    for i, (acc, c) in enumerate(zip(report.fold_accuracy, report.fold_confusion)):
        lines.append(f"{i},{acc:.17g},{c['tp']},{c['tn']},{c['fp']},{c['fn']}")
    lines.append(f"mean,{report.mean_accuracy:.17g},,,,")
    return "\n".join(lines) + "\n"


def table_to_text(table):
    width = max(len(n) for n in table.dataset_names) + 2
    header = "model".ljust(14) + "".join(n.rjust(width) for n in table.dataset_names)
    lines = [f"accuracy (%) per model and dataset   seed: {table.seed}", header]
    for kind in table.model_kinds:
        row = kind.ljust(14)
        for name in table.dataset_names:
            rep = table.reports.get((kind, name))
            cell = f"{rep.mean_accuracy * 100:.2f}" if rep else "FAILED"
            row += cell.rjust(width)
        lines.append(row)
    lines.append("")
    lines.append("deltas between successive model rows (percentage points):")
    for prev, kind in zip(table.model_kinds, table.model_kinds[1:]):
        row = f"{kind} - {prev}".ljust(26)
        for name in table.dataset_names:
            a = table.reports.get((kind, name))
            b = table.reports.get((prev, name))
            cell = (
                f"{(a.mean_accuracy - b.mean_accuracy) * 100:+.2f}" if a and b else "n/a"
            )
            row += cell.rjust(width)
        lines.append(row)
    lines.append("")
    lines.append("published reference accuracies (%), for comparison:")
    for kind in table.model_kinds:
        row = kind.ljust(14)
        for name in table.dataset_names:
            ref = REFERENCE_ACCURACY.get((kind, name))
            row += (f"{ref:.2f}" if ref is not None else "n/a").rjust(width)
        lines.append(row)
    if table.failures:
        lines.append("")
        lines.append("failed cells:")
        for (kind, name), msg in sorted(table.failures.items()):
            lines.append(f"  {kind} / {name}: {msg}")
    return "\n".join(lines) + "\n"


def table_to_csv(table):
    lines = ["model,dataset,mean_accuracy,seed,reference_accuracy,status"]
    for kind in table.model_kinds:
        for name in table.dataset_names:
            ref = REFERENCE_ACCURACY.get((kind, name))
            ref_s = f"{ref}" if ref is not None else ""
            rep = table.reports.get((kind, name))
            if rep:
                lines.append(
                    f"{kind},{name},{rep.mean_accuracy:.17g},{rep.seed},{ref_s},ok"
                )
            else:
                lines.append(f"{kind},{name},,{table.seed},{ref_s},failed")
    return "\n".join(lines) + "\n"
