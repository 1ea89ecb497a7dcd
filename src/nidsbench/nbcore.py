"""Shared class-conditional statistics for the naive-Bayes learners.

The batch and the streaming naive-Bayes classifiers and every
Hoeffding-tree leaf feed instances through this accumulator one at a time,
so their sufficient statistics are identical by construction. Numeric
attributes keep per-class running count/mean/M2 (Welford updates); nominal
attributes keep per-class value counts with Laplace add-one smoothing at
scoring time. Rows arrive as coded arrays against the schema the statistics
were built for, so every nominal code lies inside its attribute's domain.

`total`, the number of instances seen, is a Python int that `update`
increments, not a sum over `class_counts`: a Hoeffding-tree leaf tests its
grace period with it on every row. Code that writes the count arrays
directly sets `total` to match.
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

