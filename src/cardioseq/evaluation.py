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
    """One cross-validation run. `probs` holds each record's (n, 2) class
    probabilities from the model of the fold that held it out, in the
    dataset's row order; every fold metric derives from them and the plan."""

    model_kind: str
    plan: FoldPlan
    labels: np.ndarray
    probs: np.ndarray
    hyper_summary: str

    def fold_scores(self):
        """Per fold, its accuracy and its tp/tn/fp/fn counts."""
        pred, y = tr.predicted_class(self.probs), self.labels
        return [(float(np.mean(pred[rows] == y[rows])), tr.confusion_counts(pred[rows], y[rows]))
                for rows in map(self.plan.fold_indices, range(self.plan.k))]

    @property
    def mean_accuracy(self):
        return float(np.mean([acc for acc, _ in self.fold_scores()]))


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
    `hyper` applies to the CNN only; the baselines use their own defaults.
    Each fold's model scores its held-out rows once, in one batch; a record
    without finite probabilities raises NonFiniteProbabilityError naming
    `fold F: record N` (from 1), the first such record of the first such fold."""
    if model_kind not in FIT:
        raise ValueError(f"unknown model kind {model_kind!r}")
    plan = kfold_split(dataset, k=k, seed=seed)
    models = FIT[model_kind](
        [dataset.subset(np.flatnonzero(plan.assignments != fold)) for fold in range(k)],
        hyper, [_fold_seed(seed, fold) for fold in range(k)],
    )
    probs = np.empty((len(dataset), 2))
    with np.errstate(all="ignore"):  # the probabilities are checked below
        for rows, model in zip(map(plan.fold_indices, range(k)), models):
            probs[rows] = model.predict_proba(dataset.X[rows])
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:  # the first bad record of the first fold that has one
        row = bad[np.argmin(plan.assignments[bad])]
        raise NonFiniteProbabilityError(f"fold {plan.assignments[row]}: record {row + 1}",
                                        probs[row])
    return CvReport(
        model_kind=model_kind, plan=plan, labels=dataset.labels, probs=probs,
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
        f"model: {report.model_kind}   k: {report.plan.k}   seed: {report.plan.seed}",
        f"hyper: {report.hyper_summary}",
        f"{'fold':>4} {'accuracy':>10} {'tp':>4} {'tn':>4} {'fp':>4} {'fn':>4}",
    ]
    for i, (acc, c) in enumerate(report.fold_scores()):
        lines.append(
            f"{i:>4} {acc:>10.6f} {c['tp']:>4} {c['tn']:>4} {c['fp']:>4} {c['fn']:>4}"
        )
    lines.append(f"mean accuracy: {report.mean_accuracy:.6f}")
    return "\n".join(lines) + "\n"


def report_to_csv(report):
    lines = ["fold,accuracy,tp,tn,fp,fn"]
    for i, (acc, c) in enumerate(report.fold_scores()):
        lines.append(f"{i},{acc:.17g},{c['tp']},{c['tn']},{c['fp']},{c['fn']}")
    lines.append(f"mean,{report.mean_accuracy:.17g},,,,")
    return "\n".join(lines) + "\n"


def table_to_text(table):
    names, kinds = table.dataset_names, table.model_kinds
    width = max(len(n) for n in names) + 2
    acc = {cell: report.mean_accuracy for cell, report in table.reports.items()}

    def row(label, pad, cells):
        """`label` padded to `pad`, then one right-aligned cell per dataset."""
        return label.ljust(pad) + "".join(cell.rjust(width) for cell in cells)

    lines = [f"accuracy (%) per model and dataset   seed: {table.seed}", row("model", 14, names)]
    for kind in kinds:
        lines.append(row(kind, 14, (f"{acc[kind, n] * 100:.2f}" if (kind, n) in acc else "FAILED"
                                    for n in names)))
    lines += ["", "deltas between successive model rows (percentage points):"]
    for prev, kind in zip(kinds, kinds[1:]):
        lines.append(row(f"{kind} - {prev}", 26, (
            f"{(acc[kind, n] - acc[prev, n]) * 100:+.2f}" if {(kind, n), (prev, n)} <= acc.keys()
            else "n/a" for n in names)))
    lines += ["", "published reference accuracies (%), for comparison:"]
    for kind in kinds:
        refs = (REFERENCE_ACCURACY.get((kind, n)) for n in names)
        lines.append(row(kind, 14, ("n/a" if ref is None else f"{ref:.2f}" for ref in refs)))
    if table.failures:
        lines += ["", "failed cells:"]
        lines += [f"  {k} / {n}: {msg}" for (k, n), msg in sorted(table.failures.items())]
    return "\n".join(lines) + "\n"


def table_to_csv(table):
    lines = ["model,dataset,mean_accuracy,seed,reference_accuracy,status"]
    for kind in table.model_kinds:
        for name in table.dataset_names:
            ref = REFERENCE_ACCURACY.get((kind, name))
            ref_s = f"{ref}" if ref is not None else ""
            rep = table.reports.get((kind, name))
            acc, status = (f"{rep.mean_accuracy:.17g}", "ok") if rep else ("", "failed")
            lines.append(f"{kind},{name},{acc},{table.seed},{ref_s},{status}")
    return "\n".join(lines) + "\n"
