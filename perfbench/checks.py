"""Output checks, computed apart from the program under test.

Every expected value here is derived from the generated corpus and from the
documented semantics (the v1/v2 category table, the prequential and
fading-factor recurrences, the stratified fold deal, Gaussian/Laplace naive
Bayes, the k-NN distance and tie rules).  Nothing is compared against a
stored copy of an earlier output, and nothing is imported from ``src/``.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import CATEGORY

FIVE_CLASS = ("normal", "dos", "probe", "u2r", "r2l")
BINARY = ("normal", "attack")
# 1-based indices of the 12 attributes the CLI keeps by default, of which
# protocol_type (2) is the only nominal one.
SELECTED = (1, 2, 5, 6, 9, 23, 24, 29, 32, 33, 34, 36)
NOMINAL_SELECTED = (2,)
DRIFT_WINDOW = 500
VARIANCE_FLOOR = 1e-9
NEAR_TIE = 1e-9


@dataclass(frozen=True)
class Corpus:
    """What the benchmark itself reads from a generated corpus file."""

    raw_labels: list[str]
    numeric: np.ndarray      # (n, 11) selected numeric columns, file order
    protocol: np.ndarray     # (n,) first-seen codes of protocol_type


def read_corpus(path: Path) -> Corpus:
    opener = gzip.open if path.suffix == ".gz" else open
    num_idx = [i - 1 for i in SELECTED if i not in NOMINAL_SELECTED]
    labels, rows, protos = [], [], []
    codes: dict[str, int] = {}
    with opener(path, "rt") as fh:
        for line in fh:
            f = line.rstrip("\n").split(",")
            lab = f[41]
            labels.append(lab[:-1] if lab.endswith(".") else lab)
            rows.append([float(f[i]) for i in num_idx])
            protos.append(codes.setdefault(f[1], len(codes)))
    return Corpus(labels, np.asarray(rows), np.asarray(protos, dtype=np.int64))


def class_names(variant: str) -> tuple[str, ...]:
    return FIVE_CLASS if variant == "v1" else BINARY


def class_codes(corpus: Corpus, variant: str) -> np.ndarray:
    """Label code of each row under the variant, by the category table."""
    names = class_names(variant)
    if variant == "v1":
        mapped = [CATEGORY[lab] for lab in corpus.raw_labels]
    else:
        mapped = ["normal" if lab == "normal" else "attack"
                  for lab in corpus.raw_labels]
    index = {n: i for i, n in enumerate(names)}
    return np.array([index[m] for m in mapped], dtype=np.int64)


# ---------------------------------------------------------------------------
# artifacts


@dataclass
class Artifacts:
    confusion_labels: list[str]
    confusion: np.ndarray
    summary: dict
    trace: np.ndarray | None      # (n, 4): index, correct, faded, cumulative

    @classmethod
    def read(cls, out_dir: Path) -> "Artifacts":
        with open(_one(out_dir, "*_confusion.csv")) as fh:
            rows = list(csv.reader(fh))
        labels = rows[0][1:]
        cm = np.array([[int(v) for v in r[1:]] for r in rows[1:]],
                      dtype=np.int64)
        if [r[0] for r in rows[1:]] != labels:
            raise ValueError("confusion rows and columns differ")
        summary = json.loads(_one(out_dir, "*_summary.json").read_text())
        traces = list(out_dir.glob("*_trace.csv"))
        trace = np.loadtxt(traces[0], delimiter=",", skiprows=1, ndmin=2) \
            if traces else None
        return cls(labels, cm, summary, trace)


def _one(out_dir: Path, pattern: str) -> Path:
    hits = sorted(out_dir.glob(pattern))
    if len(hits) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out_dir}, "
                                f"found {len(hits)}")
    return hits[0]


# ---------------------------------------------------------------------------
# checks on every workload


def check_confusion(art: Artifacts, truth: np.ndarray,
                    variant: str) -> list[str]:
    names = class_names(variant)
    fails = []
    if tuple(art.confusion_labels) != names:
        return [f"confusion classes {art.confusion_labels} != {list(names)}"]
    if art.confusion.sum() != len(truth):
        fails.append(f"confusion total {art.confusion.sum()} != corpus "
                     f"size {len(truth)}")
    want = np.bincount(truth, minlength=len(names))
    got = art.confusion.sum(axis=1)
    if not np.array_equal(got, want):
        fails.append(f"confusion row sums {got.tolist()} != generated class "
                     f"counts {want.tolist()}")
    return fails


def check_accuracy(art: Artifacts, truth: np.ndarray) -> list[str]:
    fails = []
    cm = art.confusion
    acc = np.trace(cm) / cm.sum()
    if abs(art.summary["accuracy"] - acc) > 1e-12:
        fails.append(f"summary accuracy {art.summary['accuracy']!r} != "
                     f"trace/total {acc!r}")
    majority = np.bincount(truth).max() / len(truth)
    if not art.summary["accuracy"] > majority:
        fails.append(f"accuracy {art.summary['accuracy']:.4f} does not beat "
                     f"the majority class share {majority:.4f}")
    return fails


# ---------------------------------------------------------------------------
# stream checks


def check_trace(art: Artifacts, alpha: float) -> list[str]:
    tr = art.trace
    if tr is None:
        return ["no trace CSV"]
    n = len(tr)
    fails = []
    if n != art.confusion.sum() or not np.array_equal(tr[:, 0],
                                                      np.arange(1, n + 1)):
        fails.append("trace index is not 1..n over the corpus")
    correct = tr[:, 1]
    if not np.isin(correct, (0.0, 1.0)).all():
        fails.append("trace `correct` holds values other than 0 and 1")
    if int(correct.sum()) != int(np.trace(art.confusion)):
        fails.append(f"trace has {int(correct.sum())} correct steps, the "
                     f"confusion diagonal {int(np.trace(art.confusion))}")
    running = np.cumsum(correct) / np.arange(1, n + 1)
    worst = float(np.max(np.abs(running - tr[:, 3])))
    if worst > 1e-12:
        fails.append(f"cumulative_accuracy is off the running mean of "
                     f"`correct` by {worst:.3g}")
    s = b = 0.0
    faded = np.empty(n)
    for i, a in enumerate(correct.tolist()):
        s = a + alpha * s
        b = 1.0 + alpha * b
        faded[i] = s / b
    worst = float(np.max(np.abs(faded - tr[:, 2])))
    if worst > 1e-12:
        fails.append(f"faded_accuracy is off the fading-factor recurrence "
                     f"by {worst:.3g}")
    return fails


def check_drifts(art: Artifacts) -> list[str]:
    d = art.summary.get("drift_indices")
    n = len(art.trace)
    if not isinstance(d, list) or not all(isinstance(x, int) for x in d):
        return [f"drift_indices is not a list of integers: {d!r}"]
    fails = []
    if d != sorted(d):
        fails.append("drift indices are not sorted")
    if d and (d[0] < 1 or d[-1] > n):
        fails.append(f"drift indices leave 1..{n}")
    gaps = np.diff(d)
    if len(gaps) and gaps.min() <= DRIFT_WINDOW:
        fails.append(f"drift indices only {int(gaps.min())} apart "
                     f"(need > {DRIFT_WINDOW})")
    return fails


def wknn_predictions(corpus: Corpus, truth: np.ndarray, steps: np.ndarray,
                     k: int, window: int, warmup: int, n_classes: int):
    """Brute-force windowed k-NN at the given 0-based steps.

    Numeric columns are min-max scaled by the first `warmup` rows (constant
    columns map to 0, values clamped to [0, 1]); the distance is the
    euclidean one by direct differencing plus one per nominal mismatch.
    Among equal distances the older instance wins; equal vote counts go to
    the smaller summed distance, then the lower class code.  Returns the
    predictions and a mask of steps whose outcome turns on a distance gap
    below 1e-7, where rounding in either implementation may legitimately
    tip the result.
    """
    lo = corpus.numeric[:warmup].min(axis=0)
    hi = corpus.numeric[:warmup].max(axis=0)
    span = hi - lo
    x = np.zeros_like(corpus.numeric)
    nz = span > 0
    x[:, nz] = (corpus.numeric[:, nz] - lo[nz]) / span[nz]
    np.clip(x, 0.0, 1.0, out=x)
    preds = np.zeros(len(steps), dtype=np.int64)
    fragile = np.zeros(len(steps), dtype=bool)
    for j, i in enumerate(steps):
        first = max(0, i - window)
        if i == 0:
            continue
        diff = x[first:i] - x[i]
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist += corpus.protocol[first:i] != corpus.protocol[i]
        kk = min(k, i - first)
        order = np.lexsort((np.arange(i - first), dist))
        nb = order[:kk]
        # rows about as far as the k-th neighbour could swap places with it;
        # that matters only when they carry different labels
        band = np.abs(dist - dist[nb[-1]]) < 1e-7
        if band.sum() > np.count_nonzero(band[nb]) \
                and len(np.unique(truth[first:i][band])) > 1:
            fragile[j] = True
        labels = truth[first:i][nb]
        votes = np.bincount(labels, minlength=n_classes)
        tied = np.flatnonzero(votes == votes.max())
        if len(tied) > 1:
            sums = np.bincount(labels, weights=dist[nb], minlength=n_classes)
            best = sums[tied].min()
            if np.sort(sums[tied])[1] - best < 1e-7:
                fragile[j] = True
            tied = tied[sums[tied] == best]
        preds[j] = tied[0]
    return preds, fragile


def check_wknn(art: Artifacts, corpus: Corpus, truth: np.ndarray, seed: int,
               samples: int, k: int, window: int, warmup: int) -> list[str]:
    n = len(truth)
    rng = np.random.default_rng([seed, 3])
    steps = np.sort(rng.choice(n, min(samples, n), replace=False))
    preds, fragile = wknn_predictions(corpus, truth, steps, k, window, warmup,
                                      2)
    said_correct = art.trace[steps, 1] == 1.0
    agree = (preds == truth[steps]) == said_correct
    bad = np.flatnonzero(~agree & ~fragile)
    if len(bad):
        i = int(steps[bad[0]])
        return [f"windowed k-NN disagrees with brute force at {len(bad)} of "
                f"{len(steps)} sampled steps (first: step {i + 1})"]
    return []


# ---------------------------------------------------------------------------
# batch checks


def stratified_folds(labels: np.ndarray, n_folds: int,
                     seed: int) -> np.ndarray:
    """Shuffle within each class, then deal round-robin across all classes."""
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=np.int64)
    cursor = 0
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        fold[idx] = (cursor + np.arange(len(idx))) % n_folds
        cursor += len(idx)
    return fold


def naive_bayes_scores(x_tr, p_tr, y_tr, x_te, p_te, n_classes, n_protocols):
    """Log prior + Gaussian (floored population variance) + Laplace terms."""
    scores = np.full((len(x_te), n_classes), -np.inf)
    counts = np.bincount(y_tr, minlength=n_classes)
    total = counts.sum()
    for c in np.flatnonzero(counts):
        xc = x_tr[y_tr == c]
        mean = xc.mean(axis=0)
        var = np.maximum(((xc - mean) ** 2).mean(axis=0), VARIANCE_FLOOR)
        ll = -0.5 * ((x_te - mean) ** 2 / var + np.log(var)
                     + math.log(2 * math.pi))
        proto = np.bincount(p_tr[y_tr == c], minlength=n_protocols)
        lp = np.log(proto + 1.0) - math.log(counts[c] + n_protocols)
        scores[:, c] = math.log(counts[c] / total) + ll.sum(axis=1) + lp[p_te]
    return scores


def check_naive_bayes(art: Artifacts, corpus: Corpus, truth: np.ndarray,
                      n_folds: int, seed: int) -> list[str]:
    c = len(FIVE_CLASS)
    n_protocols = int(corpus.protocol.max()) + 1
    fold = stratified_folds(truth, n_folds, seed)
    firm = np.zeros((c, c), dtype=np.int64)
    loose = np.zeros((c, c), dtype=np.int64)   # near-tie rows, both classes
    n_loose = np.zeros(c, dtype=np.int64)
    for f in range(n_folds):
        tr, te = fold != f, fold == f
        s = naive_bayes_scores(corpus.numeric[tr], corpus.protocol[tr],
                               truth[tr], corpus.numeric[te],
                               corpus.protocol[te], c, n_protocols)
        top2 = np.argsort(-s, axis=1, kind="stable")[:, :2]
        best = s[np.arange(len(s)), top2[:, 0]]
        second = s[np.arange(len(s)), top2[:, 1]]
        tie = np.isfinite(second) & (best - second
                                     <= NEAR_TIE * np.maximum(1.0, np.abs(best)))
        y = truth[te]
        np.add.at(firm, (y[~tie], top2[~tie, 0]), 1)
        np.add.at(n_loose, y[tie], 1)
        for col in (0, 1):
            np.add.at(loose, (y[tie], top2[tie, col]), 1)
    extra = art.confusion - firm
    if (extra < 0).any() or (extra > loose).any() \
            or not np.array_equal(extra.sum(axis=1), n_loose):
        return [f"naive Bayes confusion {art.confusion.tolist()} is not "
                f"reproduced by the numpy reference {firm.tolist()} "
                f"({int(n_loose.sum())} near-tie rows left open)"]
    return []
