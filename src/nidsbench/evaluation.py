"""Evaluation harnesses: stratified cross-validation for batch models and
prequential (test-then-train) runs with fading-factor forgetting for stream
models, plus metrics, drift annotation and the trace and confusion CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import DataError, Dataset


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted classes."""

    labels: tuple[str, ...]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)

    @property
    def error(self) -> float:
        return 1.0 - self.accuracy


def confusion_matrix(ds: Dataset, predicted: np.ndarray) -> ConfusionMatrix:
    """Counts of each (label, predicted) pair of ds's class codes; a predicted
    code that is no integer in [0, C) raises ValueError naming its instance."""
    if predicted.dtype.kind not in "iu":
        raise ValueError(f"predicted class codes of dtype {predicted.dtype}, "
                         "not integers")
    c = len(ds.schema.class_labels)
    bad = np.flatnonzero((predicted < 0) | (predicted >= c))
    if bad.size:
        raise ValueError(f"instance {bad[0] + 1}: predicted class code "
                         f"{predicted[bad[0]]} outside [0, {c})")
    counts = np.bincount(ds.labels * c + predicted, minlength=c * c)
    return ConfusionMatrix(ds.schema.class_labels, counts.reshape(c, c))


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    error: float
    precision: np.ndarray
    recall: np.ndarray


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, error rate and per-class precision/recall (0/0 -> 0)."""
    diag = np.diag(cm.counts).astype(np.float64)
    col = cm.counts.sum(axis=0).astype(np.float64)
    row = cm.counts.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    return Metrics(cm.accuracy, cm.error, precision, recall)


# ---------------------------------------------------------------------------
# stratified cross-validation


def assign_stratified_folds(labels: Sequence[int] | np.ndarray, n_folds: int,
                            seed: int) -> np.ndarray:
    """Per-instance fold indices: shuffle within class, deal round-robin.

    The round-robin pointer runs continuously across classes, so both the
    per-class counts and the overall fold sizes differ from perfect
    proportionality by at most one. The CLI checks n_folds >= 2; more folds
    than labels is the input's fault.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n_folds > n:
        raise DataError(f"{n_folds} folds exceed {n} instances")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int32)
    cursor = 0
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        assignment[idx] = (cursor + np.arange(len(idx))) % n_folds
        cursor += len(idx)
    return assignment


def cross_validate(ds: Dataset, model_factory: Callable[[], object],
                   n_folds: int, seed: int) -> ConfusionMatrix:
    """Evaluate a fresh model per fold; return the summed confusion matrix.

    The factory is invoked exactly once per fold. The models go to their
    class's `BatchModel.fit_folds`, which fits each on the training folds
    only, so any preprocessing a model performs inside fit (see
    batch_learners.Pipeline) never sees test-fold data; naive Bayes fits
    every fold's statistics in one pass there. Each fitted model then
    predicts its test fold and is dropped before the next is fitted.
    """
    assignment = assign_stratified_folds(ds.labels, n_folds, seed)
    models = (model_factory() for _ in range(n_folds))
    head = next(models)
    fitted = head.fit_folds(chain([head], models), ds, assignment)
    del head
    codes = []
    for fold, model in enumerate(fitted):
        test = ds.subset(np.flatnonzero(assignment == fold),
                         note=f"test fold {fold}")
        codes.append(model.predict_dataset(test))
        del model
    codes = np.concatenate(codes)  # fold after fold, each in row order
    predicted = np.empty_like(codes)
    predicted[np.argsort(assignment, kind="stable")] = codes
    return confusion_matrix(ds, predicted)


# ---------------------------------------------------------------------------
# prequential evaluation


def faded_update(s: float, b: float, a: int, alpha: float):
    """One step of the fading-factor recurrence; returns (s', b', accuracy)."""
    s2 = a + alpha * s
    b2 = 1.0 + alpha * b
    return s2, b2, s2 / b2


@dataclass(frozen=True)
class PrequentialTrace:
    """Per-instance prequential record; instance indices are 1-based."""

    alpha: float
    correct: np.ndarray       # uint8
    faded: np.ndarray
    cumulative: np.ndarray
    confusion: ConfusionMatrix

    def __len__(self) -> int:
        return len(self.correct)

    @property
    def final_cumulative_accuracy(self) -> float:
        return float(self.cumulative[-1])

    @property
    def faded_mean(self) -> float:
        return float(self.faded.mean())


def prequential_run(stream: Dataset, model, alpha: float) -> PrequentialTrace:
    """Predict, then train on every instance in stream order, by the
    model's `prequential_codes`.

    The stream must be coded against the model's schema; any other schema
    raises ValueError, as does a predicted code that is no integer in
    [0, C): both are program faults.

    The trace is derived from the predicted codes after the loop, bit for
    bit what per-row bookkeeping records: a cumulative accuracy is one
    correctly rounded division of two exact doubles either way, and the
    faded curve takes the same `faded_update` steps in the same order.
    """
    if stream.schema != model.schema:
        raise ValueError("stream schema differs from the model's schema")
    n = len(stream)
    labels = stream.labels
    preds = np.array(model.prequential_codes(stream.numeric, stream.nominal,
                                             labels))
    cm = confusion_matrix(stream, preds)
    correct = (preds == labels).astype(np.uint8)
    cumulative = np.cumsum(correct, dtype=np.int64) / np.arange(1, n + 1)
    faded = []
    s = b = 0.0
    for a in correct.tolist():
        s, b, acc = faded_update(s, b, a, alpha)
        faded.append(acc)
    return PrequentialTrace(alpha, correct, np.array(faded), cumulative, cm)


# a drop episode: faded accuracy more than DRIFT_DROP below its maximum over
# the preceding DRIFT_WINDOW instances
DRIFT_DROP = 0.02
DRIFT_WINDOW = 500


def annotate_drifts(trace: PrequentialTrace) -> list[int]:
    """1-based indices of faded-accuracy drop episodes.

    An instance is in a drop when its faded accuracy sits more than
    DRIFT_DROP below the maximum over the preceding DRIFT_WINDOW instances
    (scanning starts once a full window exists). Overlapping or nearby drops
    (at most DRIFT_WINDOW apart) merge into one episode, annotated at its lowest point, so
    returned indices are sorted and pairwise more than DRIFT_WINDOW apart.
    """
    window = DRIFT_WINDOW
    faded = trace.faded
    n = len(faded)
    if n <= window:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(faded, window)
    roll_max = windows.max(axis=1)  # roll_max[t] = max(faded[t : t + window])
    pos = np.arange(window, n)
    in_drop = faded[pos] < roll_max[: n - window] - DRIFT_DROP
    drops = pos[in_drop]
    if not len(drops):
        return []
    episodes = []
    start = prev = drops[0]
    for d in drops[1:]:
        if d - prev <= window:
            prev = d
        else:
            episodes.append((start, prev))
            start = prev = d
    episodes.append((start, prev))
    out = []
    for lo, hi in episodes:
        seg = faded[lo:hi + 1]
        out.append(int(lo + np.argmin(seg)) + 1)  # 1-based
    return out


# ---------------------------------------------------------------------------
# exports


def write_trace_csv(trace: PrequentialTrace, path: str | Path) -> Path:
    """Trace CSV: index,correct,faded_accuracy,cumulative_accuracy."""
    path = Path(path)
    rows = zip(range(1, len(trace) + 1), trace.correct.tolist(),
               trace.faded.tolist(), trace.cumulative.tolist())
    with open(path, "w") as fh:
        fh.write("index,correct,faded_accuracy,cumulative_accuracy\n")
        fh.writelines(f"{i},{a},{f!r},{m!r}\n" for i, a, f, m in rows)
    return path


def write_confusion_csv(cm: ConfusionMatrix, path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("label," + ",".join(cm.labels) + "\n")
        for i, lab in enumerate(cm.labels):
            fh.write(lab + "," + ",".join(str(int(v)) for v in cm.counts[i]) + "\n")
    return path
