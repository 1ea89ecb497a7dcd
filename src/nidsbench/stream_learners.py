"""Stream classifiers driven predict-then-train, one instance at a time.

All four learners share the StreamModel contract on coded rows (a numeric
row and a nominal code row, coded against the schema the model was built
for): `predict_code` returns a class code and never mutates state,
`learn_row` folds one labeled row into the model, and predictions break
score ties toward the lowest class index. Cold starts (no evidence at all)
predict class index 0.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import AttributeSchema
from .batch_learners import entropy_rows, knn_vote, mixed_distances
from .nbcore import VARIANCE_FLOOR, ClassConditionalStats

_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, bit for bit


def hoeffding_bound(value_range: float, delta: float, n: int) -> float:
    """Confidence radius sqrt(R^2 ln(1/delta) / (2n)).

    By Hoeffding's inequality (Hoeffding, JASA 1963), the mean of n
    independent observations of a variable with range R lies within this
    radius of its true mean with probability at least 1 - delta. The
    one-sided form with ln(1/delta), not ln(2/delta), is the one used by the
    VFDT split test (Domingos & Hulten, "Mining high-speed data streams",
    KDD 2000). `HoeffdingTree` calls it with R = log2(number of classes),
    the range of the information gain, so that a leaf splits once the gain
    gap between the best two candidate splits exceeds the radius.

    The caller guarantees the domain R >= 0, 0 < delta < 1 and n >= 1:
    `HoeffdingTree` passes R >= 1, HT_DELTA and n >= HT_GRACE_PERIOD.
    """
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


# the largest count poisson_knuth returns
POISSON_CAP = 20


def poisson_knuth(lam: float, rng: np.random.Generator) -> int:
    """Inverse-transform Poisson draw, capped at POISSON_CAP.

    For lambdas large enough that exp(-lam) underflows the loop simply runs
    into the cap, which is the intended behavior.
    """
    if lam <= 0.0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        k += 1
        p *= rng.random()
        if p <= limit:
            return k - 1
        if k > POISSON_CAP:
            return POISSON_CAP


class StreamModel:
    """predict-then-train contract over a fixed schema (see the module
    docstring): subclasses implement `predict_code` and `learn_row`."""

    def __init__(self, schema: AttributeSchema):
        self.schema = schema
        self.n_classes = len(schema.class_labels)


class StreamingNaiveBayes(StreamModel):
    """Naive Bayes with one-pass sufficient-statistic updates.

    Shares the accumulator with the batch learner, so counts, means and M2
    aggregates after a stream equal the batch statistics on the same data
    exactly. Before any instance is seen every class ties at score 0 and
    class index 0 is predicted.
    """

    def __init__(self, schema: AttributeSchema):
        super().__init__(schema)
        self.stats = ClassConditionalStats(schema)

    def predict_code(self, num_row, nom_row):
        scores = self.stats.log_scores(num_row.reshape(1, -1),
                                       nom_row.reshape(1, -1))
        return int(scores[0].argmax())

    def learn_row(self, num_row, nom_row, label_code):
        self.stats.update(num_row, nom_row, label_code)


# ---------------------------------------------------------------------------
# Hoeffding tree


# split confidence delta and tie threshold tau of the VFDT split test
# (Domingos & Hulten, KDD 2000)
HT_DELTA = 1e-7
HT_TIE_THRESHOLD = 0.05
# instances a leaf learns between split attempts (VFDT's n_min)
HT_GRACE_PERIOD = 200
# equal-width candidate cuts per numeric attribute in a split attempt
HT_NUMERIC_BINS = 10


class _HTLeaf:
    __slots__ = ("stats", "class_counts", "held", "vmin", "vmax")

    def __init__(self, schema: AttributeSchema,
                 startup: np.ndarray | None = None):
        # stats holds only the instances this leaf observed; class_counts
        # adds them to the (possibly fractional) startup distribution carried
        # over from the parent split.
        self.stats = ClassConditionalStats(schema)
        self.class_counts = np.zeros(len(schema.class_labels)) \
            if startup is None else startup.astype(np.float64)
        # (numeric row, nominal row, label) of the rows learned since the
        # last fold, not yet in stats, vmin and vmax
        self.held = []
        n_num = len(schema.numeric_positions)
        self.vmin = np.full(n_num, np.inf)
        self.vmax = np.full(n_num, -np.inf)

    def learn(self, num_row, nom_row, y) -> bool:
        """Count the row at once, since prediction reads class_counts, and
        hold a copy of it (a caller may refill its row arrays) for the next
        fold; whether a grace period of rows is now held."""
        self.class_counts[y] += 1.0
        self.held.append((num_row.copy(), nom_row.copy(), y))
        return len(self.held) >= HT_GRACE_PERIOD

    def fold(self):
        """Fold the held rows into stats, vmin and vmax, bit-equal to one
        `update`, np.minimum and np.maximum per row in arrival order."""
        nums, noms, labels = zip(*self.held)
        self.held = []
        num = np.array(nums)
        self.stats.add_rows(num, np.array(noms), np.array(labels))
        # accumulate rather than min/max: of a tie between 0.0 and -0.0 the
        # later row wins, as it does row by row, while numpy's vectorized
        # reduction may keep either
        np.minimum(self.vmin, np.minimum.accumulate(num)[-1], out=self.vmin)
        np.maximum(self.vmax, np.maximum.accumulate(num)[-1], out=self.vmax)


class _HTSplit:
    __slots__ = ("kind", "col", "threshold", "children")

    def __init__(self, kind, col, threshold, children):
        self.kind = kind
        self.col = col
        self.threshold = threshold
        self.children = children


class HoeffdingTree(StreamModel):
    """Incremental decision tree with Hoeffding-bound split decisions.

    A leaf predicts its majority class. Leaves keep the naive-Bayes
    statistics (`nbcore.ClassConditionalStats`: per-class nominal value
    counts and Gaussian summaries of numeric attributes) and each numeric
    attribute's observed range for the split search. Every HT_GRACE_PERIOD
    learned instances a leaf compares the two best information gains and
    splits when their gap exceeds the Hoeffding bound at confidence HT_DELTA
    (or the bound has shrunk below HT_TIE_THRESHOLD). Only that search reads
    the statistics and ranges, so a leaf counts a learned row in its class
    counts at once, for prediction, but holds a copy of the row for one
    grace period and folds the held rows in with one
    `ClassConditionalStats.add_rows` before each split attempt: the same
    bits as one `update` per row. A leaf that a split replaces drops its
    statistics, held rows included.

    Numeric candidate thresholds are HT_NUMERIC_BINS equal-width cuts
    between the observed min and max, with left/right class mass estimated
    from the Gaussians (Pfahringer, Holmes & Kirkby, PAKDD 2008). New
    children start from the split's estimated class distributions, so
    prediction quality carries over.

    Ties: each numeric column offers its first cut of the highest gain.
    The candidates, nominal attributes first and then numeric ones, each in
    column order, are ranked by a stable sort on gain, so of equal gains the
    earlier candidate wins.
    """

    def __init__(self, schema: AttributeSchema):
        super().__init__(schema)
        self.root: _HTLeaf | _HTSplit = _HTLeaf(schema)
        self.n_splits = 0

    def _route(self, num_row, nom_row):
        """(leaf, parent split, slot in the parent) the row reaches."""
        node, parent, slot = self.root, None, None
        while isinstance(node, _HTSplit):
            if node.kind == "num":
                branch = 0 if num_row[node.col] <= node.threshold else 1
            else:
                branch = int(nom_row[node.col])
            parent, slot = node, branch
            node = node.children[branch]
        return node, parent, slot

    def predict_code(self, num_row, nom_row):
        leaf, _, _ = self._route(num_row, nom_row)
        return int(leaf.class_counts.argmax())

    def learn_row(self, num_row, nom_row, label_code):
        leaf, parent, slot = self._route(num_row, nom_row)
        if leaf.learn(num_row, nom_row, label_code):
            leaf.fold()
            self._attempt_split(leaf, parent, slot)

    def _attempt_split(self, leaf, parent, slot):
        if (leaf.class_counts > 0).sum() <= 1:
            return
        candidates = []  # (gain, (kind, col, threshold, child distributions))
        for j, counts in enumerate(leaf.stats.nominal_counts):
            if (counts.sum(axis=1) > 0).sum() < 2:
                continue
            totals = counts.sum(axis=0)
            n = totals.sum()
            sizes = counts.sum(axis=1)
            gain = float(entropy_rows(totals[None])[0]
                         - (sizes / n) @ entropy_rows(counts))
            candidates.append((gain, ("nom", j, None, counts.copy())))
        candidates += self._numeric_candidates(leaf)
        if not candidates:
            return
        candidates.sort(key=lambda t: -t[0])
        best_gain = candidates[0][0]
        second = candidates[1][0] if len(candidates) > 1 else 0.0
        second = max(second, 0.0)  # the no-split option
        if best_gain <= 0.0:
            return
        eps = hoeffding_bound(math.log2(max(self.n_classes, 2)), HT_DELTA,
                              leaf.stats.total)
        if not (best_gain - second > eps or eps < HT_TIE_THRESHOLD):
            return
        kind, col, threshold, dists = candidates[0][1]
        children = [_HTLeaf(self.schema, d) for d in dists]
        split = _HTSplit(kind, col, threshold, children)
        if parent is None:
            self.root = split
        else:
            parent.children[slot] = split
        self.n_splits += 1

    def _numeric_candidates(self, leaf):
        """Each numeric column's best (gain, split) candidate, in column order.

        Scores every eligible column (finite observed min < max) in one
        array pass. Cut i of b = HT_NUMERIC_BINS is
        t = lo + i * (hi - lo) / (b + 1); each observed class c sends the
        Gaussian mass n_c * (1 + erf((t - mu_c) / (sigma_c * sqrt 2))) / 2
        to the left, or all of n_c when mu_c <= t if its variance sits at
        the floor. A cut with an empty side is no candidate; among a
        column's cuts the first of the highest gain wins. Each value goes
        through the same floating-point operations, in the same order, as
        in the one-cut formula (erf is `math.erf`), so a gain does not
        depend on how many cuts or columns share the pass.
        """
        lo, hi = leaf.vmin, leaf.vmax
        cols = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi) & (hi > lo))
        if not cols.size:
            return []
        lo, hi = lo[cols], hi[cols]
        counts = leaf.stats.class_counts
        seen = np.flatnonzero(counts > 0)
        bins = HT_NUMERIC_BINS
        t = lo + np.arange(1, bins + 1)[:, None] * (hi - lo) / (bins + 1)
        # (bins, cols, seen classes): the class axis last, so that each
        # row of the masses sums and scores like a one-cut class vector
        tc = t[:, :, None]
        mu = leaf.stats.mean[seen][:, cols].T
        sigma = np.sqrt(leaf.stats.variances()[seen][:, cols].T)
        frac = np.where(sigma > math.sqrt(VARIANCE_FLOOR),
                        0.5 * (1.0 + _erf((tc - mu) / (sigma * math.sqrt(2)))
                               .astype(np.float64)),
                        mu <= tc)
        dists = np.zeros((bins, len(cols), 2, self.n_classes))
        dists[:, :, 0, seen] = counts[seen] * frac
        dists[:, :, 1] = counts - dists[:, :, 0]
        sides = dists.sum(axis=3)
        h = entropy_rows(dists.reshape(-1, self.n_classes)).reshape(sides.shape)
        n_total = counts.sum()
        parent_h = float(entropy_rows(counts[None])[0])
        gain = parent_h - (sides[..., 0] / n_total * h[..., 0]
                           + sides[..., 1] / n_total * h[..., 1])
        valid = (sides > 0).all(axis=2)
        best = np.where(valid, gain, -np.inf).argmax(axis=0)
        return [(float(gain[b, k]), ("num", int(col), t[b, k], dists[b, k]))
                for k, (b, col) in enumerate(zip(best, cols)) if valid[b, k]]


# ---------------------------------------------------------------------------
# sliding-window k-NN


# the most recent labeled instances WindowKNN keeps
WKNN_WINDOW = 5000


class WindowKNN(StreamModel):
    """k-NN over a FIFO window of the most recent labeled instances.

    Distance and tie rules match the batch k-NN. The window is stored
    column-major in a ring of twice its length: the instance at ring
    position i is written to slots i and i + WKNN_WINDOW, so the live window
    is always the contiguous slice `[start, start + size)`, oldest first,
    and the lower index that wins a distance tie is the older instance. An
    empty window predicts class index 0.
    """

    def __init__(self, schema: AttributeSchema, k: int):
        super().__init__(schema)
        w = WKNN_WINDOW  # the CLI checks WKNN_WINDOW >= k >= 1
        self.k = k
        self.window = w
        self._num = np.zeros((len(schema.numeric_positions), 2 * w))
        self._nom = np.zeros((len(schema.nominal_positions), 2 * w),
                             dtype=np.int32)
        self._labels = np.zeros(2 * w, dtype=np.int64)
        self.size = 0
        self._write = 0

    def _live(self) -> slice:
        """The ring slots of the window's instances, oldest first."""
        start = (self._write - self.size) % self.window
        return slice(start, start + self.size)

    def predict_code(self, num_row, nom_row):
        m = self.size
        if m == 0:
            return 0
        live = self._live()
        dist = mixed_distances(num_row, nom_row, self._num[:, live],
                               self._nom[:, live])
        return knn_vote(dist, self._labels[live], min(self.k, m))

    def learn_row(self, num_row, nom_row, label_code):
        i, w = self._write, self.window
        self._num[:, i] = self._num[:, i + w] = num_row
        self._nom[:, i] = self._nom[:, i + w] = nom_row
        self._labels[i] = self._labels[i + w] = label_code
        self._write = (i + 1) % w
        self.size = min(self.size + 1, w)


# ---------------------------------------------------------------------------
# online boosting


# Hoeffding-tree members of an OzaBoost ensemble
BOOST_MEMBERS = 10


class OzaBoost(StreamModel):
    """Online boosting over BOOST_MEMBERS Hoeffding trees.

    Each arriving instance carries weight lambda (starting at 1); every member
    trains on it Poisson(lambda) times (capped), then lambda is rescaled down
    if the member now classifies the instance correctly and up otherwise,
    using the member's accumulated correct/incorrect weight masses. Voting
    weight per member is log((1 - e)/e) of its clamped error estimate;
    members that never saw mass vote with weight 0.
    """

    def __init__(self, schema: AttributeSchema, seed: int):
        super().__init__(schema)
        self.members = [HoeffdingTree(schema) for _ in range(BOOST_MEMBERS)]
        self.lam_sc = np.zeros(len(self.members))
        self.lam_sw = np.zeros(len(self.members))
        self._rng = np.random.default_rng(seed)
        # member_weights() as Python floats; only learn_row changes them
        self._weights = self.member_weights().tolist()

    def member_weights(self) -> np.ndarray:
        mass = self.lam_sc + self.lam_sw
        eps = np.clip(np.divide(self.lam_sw, mass, out=np.zeros_like(mass),
                                where=mass > 0), 1e-10, 1.0 - 1e-10)
        return np.where(mass > 0, np.log((1.0 - eps) / eps), 0.0)

    def predict_code(self, num_row, nom_row):
        votes = np.zeros(self.n_classes)
        for m, wt in zip(self.members, self._weights):
            if wt != 0.0:
                votes[m.predict_code(num_row, nom_row)] += wt
        return int(votes.argmax())

    def learn_row(self, num_row, nom_row, label_code):
        lam = 1.0
        for i, member in enumerate(self.members):
            kappa = poisson_knuth(lam, self._rng)
            for _ in range(kappa):
                member.learn_row(num_row, nom_row, label_code)
            if member.predict_code(num_row, nom_row) == label_code:
                self.lam_sc[i] += lam
                lam *= (self.lam_sc[i] + self.lam_sw[i]) / (2.0 * self.lam_sc[i])
            else:
                self.lam_sw[i] += lam
                lam *= (self.lam_sc[i] + self.lam_sw[i]) / (2.0 * self.lam_sw[i])
        self._weights = self.member_weights().tolist()
