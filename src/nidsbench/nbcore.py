"""Shared class-conditional statistics for the naive-Bayes learners.

Numeric attributes keep per-class running count/mean/M2 (Welford updates);
nominal attributes keep per-class value counts with Laplace add-one
smoothing at scoring time. Rows arrive as coded arrays against the schema
the statistics were built for, so every nominal code lies inside its
attribute's domain.

The streaming naive Bayes feeds one row at a time through `update`. Batch
naive Bayes folds a whole training fold in with `add_rows`, and a
Hoeffding-tree leaf (OzaBoost's members included) folds in the rows it
learned since its last fold, before each split attempt and when a
prequential call returns. The two forms leave bit-identical statistics:
the counts are whole numbers in float64, exact in any grouping, and
`add_rows` runs the same Welford operations on each value in the same
order as `update`, only column by column on Python floats instead of row
by row on numpy arrays. So several `add_rows` calls leave what one call
over all their rows leaves.

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

