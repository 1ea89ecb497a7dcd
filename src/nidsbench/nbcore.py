"""Shared class-conditional statistics for the naive-Bayes learners.

Numeric attributes keep per-class running count/mean/M2 (Welford updates);
nominal attributes keep per-class value counts with Laplace add-one
smoothing at scoring time. Rows arrive as coded arrays against the schema
the statistics were built for, so every nominal code lies inside its
attribute's domain.

The streaming naive Bayes feeds one row at a time through `update`. A
Hoeffding-tree leaf (OzaBoost's members included) folds in the rows it
learned since its last fold with `add_rows`, before each split attempt and
when a prequential call returns, as does `NaiveBayes.fit` with a whole
training set. The two forms leave bit-identical statistics: the counts
are whole numbers in float64, exact in any grouping, and `add_rows` runs
the same Welford operations on each value in the same order as `update`,
only column by column on Python floats instead of row by row on numpy
arrays. So several `add_rows` calls leave what one call over all their
rows leaves.

Batch naive Bayes under cross-validation takes every fold's statistics
from one `fold_statistics` pass. Each (fold, class, numeric column) series
is a lane, and step t of the pass makes `update`'s elementwise numpy calls
(subtract, divide by n = t + 1, add, subtract, multiply, add) once over
every lane that is still running, so each lane takes the operations
`update` would, in the same order: elementwise IEEE arithmetic rounds each
value alone, whatever the SIMD width, and M2 is never summed across lanes.
A pairwise merge of partial results (Chan, Golub and LeVeque) would change
the bits. At Hoeffding-leaf sizes, a few dozen series of a few hundred
steps, the per-step numpy calls cost more than `add_rows`' Python loop, so
the leaves keep it. `test_nb_fold_statistics_equal_add_rows_and_updates`
pins the pass.

The one step `add_rows` leaves out is a no-op. A value x equal to the
running mean gives delta = x - mean = +-0.0, so `mean += delta / n` and
`m2 += delta * (x - mean)` add a signed zero. That changes neither sum,
since mean and M2 start at +0.0 and the recurrence never makes them -0.0:
a correctly rounded sum is -0.0 only when both terms are. The mean is then
unchanged, so a column's final run of equal values stops being folded once
the mean reaches their value; the count, a local until then, is left out
too, since the class counts are added once for the block. Infinities are
the exception, since inf - inf is nan: a run of them is folded in full.
`test_nb_add_rows_equals_one_update_per_row` and
`test_nb_batch_statistics_equal_streaming_updates` in
`tests/test_batch_learners.py` and `test_ht_leaf_fold_equals_one_update_per_row`
in `tests/test_stream_learners.py` pin it.

`total`, the number of instances seen, is a Python int that `update` and
`add_rows` increment, not a sum over `class_counts`: `log_scores` reads it
on every one-row query of the streaming naive Bayes, and a Hoeffding-tree
leaf once per split attempt, for the Hoeffding bound. Code that writes the
count arrays directly sets `total` to match.
"""

from __future__ import annotations

import numpy as np

from .dataset import AttributeSchema

VARIANCE_FLOOR = 1e-9
# values `fold_statistics`' lane pass gathers at once (512 KiB of float64):
# as many steps as fit, at least one, so that its memory stays flat in the
# number of rows and of folds
LANE_BLOCK = 1 << 16
_LOG_2PI = float(np.log(2.0 * np.pi))


class ClassConditionalStats:
    """One-pass per-class statistics over a fixed schema."""

    def __init__(self, schema: AttributeSchema):
        self.schema = schema
        c = len(schema.class_labels)
        n_num = len(schema.numeric_positions)
        # Counts are float64: exact (integers far below 2**53), and updates
        # and scores then need no mixed int/float arithmetic.
        self.class_counts = np.zeros(c)
        self.mean = np.zeros((c, n_num))
        self.m2 = np.zeros((c, n_num))
        # one (domain size, C) value-count table per nominal attribute
        self.nominal_counts = [np.zeros((len(schema.attributes[p].domain), c))
                               for p in schema.nominal_positions]
        self.total = 0  # instances seen, the sum of class_counts

    def update(self, num_row: np.ndarray, nom_row: np.ndarray, label: int) -> None:
        self.total += 1
        self.class_counts[label] += 1.0
        n = self.class_counts[label]
        mean, m2 = self.mean[label], self.m2[label]  # views, updated in place
        delta = num_row - mean
        mean += delta / n
        m2 += delta * (num_row - mean)
        for counts, code in zip(self.nominal_counts, nom_row):
            counts[code, label] += 1.0

    def add_rows(self, num_rows: np.ndarray, nom_rows: np.ndarray,
                 labels: np.ndarray) -> None:
        """Fold in a block of rows, bit-equal to one `update` per row in
        order: counts as bincounts, then the Welford recurrence per class
        and numeric column, over that column's values in arrival order.

        Each column's final run of equal values, its tail, is folded until
        the running mean equals the tail's value: every later step is a
        no-op (see the module docstring). A tail of infinities is folded in
        full, since inf - inf is nan."""
        c = len(self.class_counts)
        self.total += len(labels)
        for j, table in enumerate(self.nominal_counts):
            table += np.bincount(nom_rows[:, j] * c + labels,
                                 minlength=table.size).reshape(table.shape)
        per_class = np.bincount(labels, minlength=c)
        for label in np.flatnonzero(per_class):
            block = num_rows[labels == label]
            k = len(block)
            # starts[i, col]: row i of the block starts a run in col; tails:
            # the row where each column's last run starts, k for no tail
            starts = np.empty(block.shape, dtype=bool)
            starts[:1] = True
            np.not_equal(block[1:], block[:-1], out=starts[1:])
            tails = k - 1 - starts[::-1].argmax(axis=0)
            tails[~np.isfinite(block[-1])] = k
            start = float(self.class_counts[label])
            for col, tail in enumerate(tails.tolist()):
                n = start
                mean = float(self.mean[label, col])
                m2 = float(self.m2[label, col])
                for x in block[:tail, col].tolist():
                    n += 1.0
                    delta = x - mean
                    mean += delta / n
                    m2 += delta * (x - mean)
                for x in block[tail:, col].tolist():
                    if x == mean:
                        break
                    n += 1.0
                    delta = x - mean
                    mean += delta / n
                    m2 += delta * (x - mean)
                self.mean[label, col] = mean
                self.m2[label, col] = m2
        self.class_counts += per_class

    def variances(self) -> np.ndarray:
        """Per-(class, attribute) population variance, floored."""
        n = np.maximum(self.class_counts, 1)[:, None]
        return np.maximum(self.m2 / n, VARIANCE_FLOOR)

    def log_scores(self, num_rows: np.ndarray, nom_rows: np.ndarray) -> np.ndarray:
        """(n, C) unnormalized log posteriors: log prior + sum log likelihood.

        To the log prior are added first the Gaussian terms of the numeric
        attributes, then one Laplace add-one term per nominal attribute.
        Classes never observed score -inf; with no observations at all every
        class scores 0 (a flat tie).
        """
        total = self.total
        if total == 0:
            return np.zeros((len(num_rows), len(self.class_counts)))
        with np.errstate(divide="ignore"):
            scores = np.tile(np.log(self.class_counts / total),
                             (len(num_rows), 1))
        seen = self.class_counts > 0
        if self.mean.shape[1]:
            var = self.variances()
            diff = num_rows[:, None, :] - self.mean
            ll = -0.5 * (diff * diff / var + np.log(var) + _LOG_2PI)
            scores += np.where(seen, ll.sum(axis=2), 0.0)
        for j, table in enumerate(self.nominal_counts):
            numer = table[nom_rows[:, j]] + 1.0
            denom = np.maximum(self.class_counts + len(table), 1.0)
            scores += np.where(seen, np.log(numer) - np.log(denom), 0.0)
        scores[:, ~seen] = -np.inf
        return scores


def fold_statistics(schema: AttributeSchema, num: np.ndarray, nom: np.ndarray,
                    labels: np.ndarray, assignment: np.ndarray,
                    n_folds: int) -> list[ClassConditionalStats]:
    """Every cross-validation fold's training statistics: item f holds what
    one `update` per row outside fold f (`assignment` holds each row's
    fold), in row order, leaves, bit for bit.

    Counts and nominal tables are the whole set's bincounts less each
    fold's. The Welford recurrence runs once over all lanes, a lane being
    one (fold, class, numeric column) series; see the module docstring."""
    c = len(schema.class_labels)
    assignment = assignment.astype(np.int64)  # the keys below pass 2**31
    held = np.bincount(assignment * c + labels,
                       minlength=n_folds * c).reshape(n_folds, c)
    counts = held.sum(axis=0) - held  # (fold, class) training rows
    tables = []
    for j, p in enumerate(schema.nominal_positions):
        d = len(schema.attributes[p].domain)
        in_fold = np.bincount((assignment * d + nom[:, j]) * c + labels,
                              minlength=n_folds * d * c)
        in_fold = in_fold.reshape(n_folds, d, c)
        tables.append(in_fold.sum(axis=0) - in_fold)
    mean, m2 = _lane_welford(num, labels, assignment, held)
    folds = []
    for f in range(n_folds):
        stats = ClassConditionalStats(schema)
        stats.class_counts[:] = counts[f]
        stats.mean[:] = mean[f]
        stats.m2[:] = m2[f]
        for table, fold_tables in zip(stats.nominal_counts, tables):
            table[:] = fold_tables[f]
        stats.total = int(counts[f].sum())
        folds.append(stats)
    return folds


def _lane_welford(num, labels, assignment, held):
    """The means and M2s of the rows outside each fold, as one (2, fold,
    class, column) array, by the Welford steps of `update`, one step for
    all lanes at a time; `held` holds each fold's class counts.

    A lane group is one (fold, class) pair, its numeric columns the lanes.
    Groups are ordered longest first, so the ones still running at step t
    are a prefix, and every running lane takes its (t + 1)-th value then:
    each step makes the same elementwise calls as `update` over that
    prefix. The values are gathered for as many steps at a time as keep
    the gathered block within LANE_BLOCK values."""
    n_folds, c = held.shape
    n, n_num = num.shape
    lengths = (held.sum(axis=0) - held).ravel()
    order = np.argsort(-lengths, kind="stable")
    # Group g = f * c + k reads class k's rows (a run of by_class, in row
    # order) less those in fold f. Its skipped positions, each less the
    # number skipped before it, plus g * wide, are g's keys, sorted with
    # every other group's: the t-th row of g is then at position t + the
    # number of g's keys <= g * wide + t.
    by_class = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=c)
    class_start = np.cumsum(sizes) - sizes
    group_start = np.cumsum(held.ravel()) - held.ravel()
    wide = n + 1
    klass = labels[by_class]
    keys = np.sort((assignment[by_class] * c + klass) * wide
                   + np.arange(n) - class_start[klass])
    keys -= np.arange(n) - group_start[keys // wide]
    # running[t]: the groups that take a step t, those longer than t; with
    # no numeric column there are no lanes and no steps
    steps = int(lengths.max()) if n_num else 0
    running = np.searchsorted(-lengths[order], -np.arange(steps),
                              side="left").tolist()
    span = max(1, LANE_BLOCK // (len(order) * max(n_num, 1)))
    state = np.zeros((2, len(order), n_num))  # mean and M2 by lane
    mu, sq = state
    delta, tmp = np.empty((2, len(order), n_num))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, steps, span):
            t1 = min(t0 + span, steps)
            groups = order[:running[t0]]
            # a group that ends inside the chunk repeats its last row,
            # which no step reads
            at = np.minimum(np.arange(t0, t1)[:, None], lengths[groups] - 1)
            skipped = np.searchsorted(keys, groups * wide + at, side="right") \
                - group_start[groups]
            block = num[by_class[class_start[groups % c] + at + skipped]]
            for t in range(t0, t1):  # block: (step, group, column)
                live = running[t]
                x, d, w = block[t - t0, :live], delta[:live], tmp[:live]
                m, q = mu[:live], sq[:live]
                np.subtract(x, m, out=d)
                np.divide(d, float(t + 1), out=w)
                m += w
                np.subtract(x, m, out=w)
                np.multiply(d, w, out=w)
                q += w
    out = np.empty_like(state)
    out[:, order] = state
    return out.reshape(2, n_folds, c, n_num)
