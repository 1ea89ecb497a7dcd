"""Stream classifiers driven predict-then-train, one instance at a time.

All four learners share the StreamModel contract on coded rows (a numeric
row and a nominal code row, coded against the schema the model was built
for): `predict_code` returns a class code and never mutates state,
`learn_row` folds one labeled row into the model, and
`prequential_codes` runs both over a whole stream, row by row, and returns
the predicted codes. Predictions break score ties toward the lowest class
index. Cold starts (no evidence at all) predict class index 0.

`WindowKNN` answers a query whose own row has at least k instances in its
window from those instances, without scoring the window, while every row
it has learned `is_regular`: then a distance is exactly 0.0 if and only if
the two rows' bytes are equal, so the answer is the one scoring gives.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from itertools import islice
from typing import Callable

import numpy as np

from .dataset import AttributeSchema
from .batch_learners import entropy_rows, mixed_distances, neighbor_vote
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
# uniforms `uniform_draws` takes from its generator at a time
UNIFORM_BLOCK = 4096


def uniform_draws(rng: np.random.Generator) -> Callable[[], float]:
    """A function that returns the doubles of successive `rng.random()`
    calls, drawn UNIFORM_BLOCK at a time: `rng.random(n)` gives the same
    doubles as n calls of `rng.random()`."""
    def blocks():
        while True:
            yield from rng.random(UNIFORM_BLOCK).tolist()
    return partial(next, blocks())


def poisson_knuth(lam: float, uniform: Callable[[], float]) -> int:
    """Inverse-transform Poisson draw from uniform() doubles, capped at
    POISSON_CAP.

    `OzaBoost` passes lam > 0: lambda starts at 1 and each member at most
    halves it. For lambdas large enough that exp(-lam) underflows the loop
    simply runs into the cap, which is the intended behavior.
    """
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        k += 1
        p *= uniform()
        if p <= limit:
            return k - 1
        if k > POISSON_CAP:
            return POISSON_CAP


class StreamModel:
    """predict-then-train contract over a fixed schema (see the module
    docstring): subclasses implement `predict_code` and `learn_row`, and may
    override `prequential_codes` with a faster loop of the same result."""

    def __init__(self, schema: AttributeSchema):
        self.schema = schema
        self.n_classes = len(schema.class_labels)

    def prequential_codes(self, num: np.ndarray, nom: np.ndarray,
                          labels: np.ndarray) -> list[int]:
        """Row by row, the code `predict_code` gives row i of num and nom,
        then `learn_row` of the row and labels[i]. The caller does not
        change the arrays during the call."""
        predict, learn = self.predict_code, self.learn_row
        codes = []
        for i, y in enumerate(labels.tolist()):
            x, z = num[i], nom[i]
            codes.append(predict(x, z))
            learn(x, z, y)
        return codes


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
# rows a Hoeffding tree's loop routes at a time; a block holds one route
# per row (per member in OzaBoost) and its routing arrays
ROUTE_BLOCK = 4096


class _HTLeaf:
    """A Hoeffding-tree leaf: what prediction reads, and what a split
    attempt reads, kept apart.

    `class_counts` (a list of floats) adds the rows the leaf learned to the
    possibly fractional startup distribution carried over from the parent
    split, and `majority` is its first maximum, the class the leaf
    predicts. `learn` keeps both current per row. `stats`, `vmin` and
    `vmax` hold only the leaf's own rows, and only as of the last fold.

    The tree routes rows to its leaves a block at a time, and a leaf learns
    the rows that reach it one at a time, in stream order. The rows learned
    since the last fold are pending: the leaf keeps their numbers in the
    current `HoeffdingTree.prequential_codes` call's arrays in `pending`.
    `fold` gathers those rows, in the order the leaf learned them, and adds
    them to the statistics, before each split attempt and when the call
    returns. So a split attempt falls due whenever the folded and pending
    rows together make a multiple of HT_GRACE_PERIOD.
    """

    __slots__ = ("stats", "class_counts", "majority", "vmin", "vmax",
                 "pending")

    def __init__(self, schema: AttributeSchema,
                 startup: np.ndarray | None = None):
        self.stats = ClassConditionalStats(schema)
        n_classes = len(schema.class_labels)
        self.class_counts = [0.0] * n_classes if startup is None \
            else startup.tolist()
        # the first maximum, as np.argmax takes it
        self.majority = max(range(n_classes),
                            key=self.class_counts.__getitem__)
        n_num = len(schema.numeric_positions)
        self.vmin = np.full(n_num, np.inf)
        self.vmax = np.full(n_num, -np.inf)
        self.pending: list[int] = []

    def learn(self, i: int, y: int) -> bool:
        """Count row i of the current call, of class y, and keep it
        pending; whether a split attempt is now due."""
        counts = self.class_counts
        counts[y] += 1.0
        top = self.majority
        if counts[y] > counts[top] or (counts[y] == counts[top] and y < top):
            self.majority = y
        pending = self.pending
        pending.append(i)
        return (self.stats.total + len(pending)) % HT_GRACE_PERIOD == 0

    def fold(self, num, nom, labels):
        """Fold the pending rows of the call's arrays into stats, vmin and
        vmax, bit-equal to one `update`, np.minimum and np.maximum per row
        in the order the leaf learned them."""
        idx, self.pending = self.pending, []
        num = num[idx]
        self.stats.add_rows(num, nom[idx], labels[idx])
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
        self.threshold = threshold  # a Python float, or None for "nom"
        self.children = children


def _cannot_split(class_counts: np.ndarray, eps: float) -> bool:
    """Whether the split test fails whatever the candidates' gains.

    Every gain the search computes is the entropy h of `class_counts`, the
    leaf's statistics' counts (its startup mass left out), less a
    non-negative weighted entropy (a nominal attribute's per-class totals
    are those counts, since counts are whole numbers), and
    fl(h - s) <= h for s >= 0. So the gap between the best two gains is at
    most h, and with h <= eps and eps >= HT_TIE_THRESHOLD neither arm of
    the split test can hold.
    """
    return eps >= HT_TIE_THRESHOLD \
        and float(entropy_rows(class_counts[None])[0]) <= eps


class HoeffdingTree(StreamModel):
    """Incremental decision tree with Hoeffding-bound split decisions.

    A leaf predicts its majority class, which it keeps current as it
    learns. Leaves keep the naive-Bayes statistics
    (`nbcore.ClassConditionalStats`: per-class nominal value counts and
    Gaussian summaries of numeric attributes) and each numeric attribute's
    observed range for the split search. Every HT_GRACE_PERIOD learned
    instances a leaf compares the two best information gains and splits
    when their gap exceeds the Hoeffding bound at confidence HT_DELTA (or
    the bound has shrunk below HT_TIE_THRESHOLD). Only that search reads
    the statistics and ranges, so a leaf keeps the numbers of its rows for
    a grace period and folds the rows in with one
    `ClassConditionalStats.add_rows` before each split attempt: the same
    bits as one `update` per row. A leaf that a split replaces drops its
    statistics. An attempt whose class entropy is already within a bound
    of at least HT_TIE_THRESHOLD scores no candidate, since no gap can
    exceed that bound (`_cannot_split`).

    Only a split changes the leaf a row reaches, so `prequential_codes`
    routes the rows ROUTE_BLOCK at a time with numpy (`_route`). Row by
    row, the leaf a row reaches gives the prediction and then learns the
    row (`_learn`); when that learn splits the leaf, the block's later rows
    are routed again. Before it returns, every leaf folds its pending
    rows, so no leaf refers to a caller's arrays between calls: folds split
    at a call boundary give the bits of one fold, and two calls on the
    halves of a stream leave the state one call on the whole stream
    leaves. `learn_row` is a one-row `prequential_codes`, and
    `predict_code` routes one row.

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

    def _route(self, num, nom, rows):
        """The (leaf, parent split, slot in the parent) that each of `rows`
        (an index array into num and nom) reaches, in the order of `rows`.

        The rows go down the tree together. A numeric split sends to child
        0 the rows whose num[row, col] <= threshold holds, the IEEE
        comparison a Python float makes, so ties, signed zeros and NaN go
        the way one row alone would; a nominal split sends each code present
        among its rows to that code's child."""
        found = []  # the routes reached
        which = np.empty(len(rows), np.intp)  # each row's route in `found`
        stack = [(self.root, None, None, np.arange(len(rows)))]
        while stack:
            node, parent, slot, pos = stack.pop()
            if type(node) is _HTLeaf:
                which[pos] = len(found)
                found.append((node, parent, slot))
            elif node.kind == "num":
                left = num[rows[pos], node.col] <= node.threshold
                for branch, part in enumerate((pos[left], pos[~left])):
                    if part.size:
                        stack.append((node.children[branch], node, branch,
                                      part))
            else:
                codes = nom[rows[pos], node.col]
                for code in np.unique(codes).tolist():
                    stack.append((node.children[code], node, code,
                                  pos[codes == code]))
        return [found[w] for w in which.tolist()]

    def predict_code(self, num_row, nom_row):
        return self._route(num_row[None], nom_row[None],
                           np.zeros(1, np.intp))[0][0].majority

    def learn_row(self, num_row, nom_row, label_code):
        self.prequential_codes(num_row[None], nom_row[None],
                               np.array([label_code]))

    def prequential_codes(self, num, nom, labels):
        codes = []
        ys = labels.tolist()
        for start in range(0, len(ys), ROUTE_BLOCK):
            stop = min(start + ROUTE_BLOCK, len(ys))
            routes = self._route(num, nom, np.arange(start, stop))
            for p, y in enumerate(ys[start:stop]):
                i = start + p
                route = routes[p]
                codes.append(route[0].majority)
                if self._learn(route, num, nom, labels, i, y) is not route:
                    # the leaf split: route the block's later rows again
                    routes[p + 1:] = self._route(num, nom,
                                                 np.arange(i + 1, stop))
        self._fold_pending(num, nom, labels)
        return codes

    def _learn(self, route, num, nom, labels, i, y):
        """Have the leaf of `route` (the leaf, parent split and slot that
        row i of the call's arrays reaches) learn the row, of class y, and
        fold and attempt a split when one is due; the route of row i
        after that, a new one if the leaf split."""
        leaf, parent, slot = route
        if leaf.learn(i, y):
            leaf.fold(num, nom, labels)
            if self._attempt_split(leaf, parent, slot):
                return self._route(num, nom, np.array([i]))[0]
        return route

    def _fold_pending(self, num, nom, labels):
        """Fold each leaf's pending rows of the call's arrays."""
        nodes = [self.root]
        while nodes:
            node = nodes.pop()
            if type(node) is _HTSplit:
                nodes += node.children
            elif node.pending:
                node.fold(num, nom, labels)

    def _attempt_split(self, leaf, parent, slot) -> bool:
        """Split the folded leaf if the split test holds; whether it split."""
        if sum(c > 0.0 for c in leaf.class_counts) <= 1:
            return False
        # the purity return above leaves at least two classes: log2 >= 1
        eps = hoeffding_bound(math.log2(self.n_classes), HT_DELTA,
                              leaf.stats.total)
        if _cannot_split(leaf.stats.class_counts, eps):
            return False
        candidates = self._nominal_candidates(leaf) \
            + self._numeric_candidates(leaf)
        if not candidates:
            return False
        candidates.sort(key=lambda t: -t[0])
        best_gain = candidates[0][0]
        second = candidates[1][0] if len(candidates) > 1 else 0.0
        second = max(second, 0.0)  # the no-split option
        if best_gain <= 0.0:
            return False
        if not (best_gain - second > eps or eps < HT_TIE_THRESHOLD):
            return False
        kind, col, threshold, dists = candidates[0][1]
        children = [_HTLeaf(self.schema, d) for d in dists]
        split = _HTSplit(kind, col, threshold, children)
        if parent is None:
            self.root = split
        else:
            parent.children[slot] = split
        self.n_splits += 1
        return True

    def _nominal_candidates(self, leaf):
        """Each nominal column's (gain, split) candidate, in column order: a
        column with at least two observed values splits into one child per
        value of its domain."""
        candidates = []
        for j, counts in enumerate(leaf.stats.nominal_counts):
            sizes = counts.sum(axis=1)
            if (sizes > 0).sum() < 2:
                continue
            totals = counts.sum(axis=0)
            gain = float(entropy_rows(totals[None])[0]
                         - (sizes / totals.sum()) @ entropy_rows(counts))
            candidates.append((gain, ("nom", j, None, counts.copy())))
        return candidates

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
        return [(float(gain[b, k]), ("num", int(col), float(t[b, k]),
                                     dists[b, k]))
                for k, (b, col) in enumerate(zip(best, cols)) if valid[b, k]]


# ---------------------------------------------------------------------------
# sliding-window k-NN


# the most recent labeled instances WindowKNN keeps
WKNN_WINDOW = 5000
# the smallest nonzero magnitude of a regular value (see `is_regular`)
_REGULAR_MIN = 2.0 ** -485


def is_regular(row: np.ndarray) -> bool:
    """Whether every value of `row` is regular: finite, not -0.0, and 0.0 or
    at least 2**-485 in magnitude.

    Two regular values that differ lie at least 2**-537 apart (the spacing
    of doubles at 2**-485), so their squared difference is at least
    2**-1074, the smallest positive double: a mixed distance between regular
    rows is exactly 0.0 if and only if their bytes are equal. -0.0 against
    0.0, or 1e-170 against 0.0, would give 0.0 for rows that differ.
    """
    return all(v == 0.0 and math.copysign(1.0, v) > 0.0
               or _REGULAR_MIN <= abs(v) < math.inf for v in row.tolist())


class WindowKNN(StreamModel):
    """k-NN over a FIFO window of the most recent labeled instances.

    Distance and tie rules match the batch k-NN, with the older instance in
    place of the earlier training row. Streams repeat rows exactly, so the
    window stores each distinct row once: a column-major table of its D
    distinct rows (numeric and nominal), a dict from a row's bytes (numeric,
    then nominal) to its table entry, each entry's arrival numbers oldest
    first, and the labels in a ring indexed by arrival. When the last
    instance of a row leaves the window, the table's last entry moves into
    its place.

    A query is scored against the D entries only; equal rows get bit-equal
    distances, so an entry's distance is each of its instances'. At least k
    instances lie at or below the k-th smallest entry distance, so the
    entries there hold the k nearest instances, among their k oldest each,
    and one sort on (distance, arrival) ranks those. An empty window
    predicts class index 0.

    A query whose own row has at least k instances in the window is not
    scored while every row the model has learned `is_regular`: each of
    those instances lies at distance exactly 0.0 and every other entry
    above it, so the k nearest are the entry's k oldest instances, and the
    vote sums the same 0.0s that scoring would. The guard is sticky: each
    new entry is tested until one fails, and from then on every query is
    scored, because rows whose bytes differ may lie at distance 0.0 (-0.0
    against 0.0, a tiny value against 0.0), and a row holding an infinity
    or a NaN is not at distance 0.0 from itself.
    """

    def __init__(self, schema: AttributeSchema, k: int):
        super().__init__(schema)
        w = WKNN_WINDOW  # the CLI checks WKNN_WINDOW >= k >= 1
        self.k = k
        self.window = w
        self._num = np.zeros((len(schema.numeric_positions), w))
        self._nom = np.zeros((len(schema.nominal_positions), w),
                             dtype=np.int32)
        self._dist, self._buf = np.empty((2, w))
        self._entry: dict[bytes, int] = {}  # row bytes -> table entry
        self._arrivals: list[deque] = []  # table entry -> arrivals
        # each instance's row bytes and label, at its arrival number mod w
        self._ring_keys = [b""] * w
        self._ring_labels = [0] * w
        self.size = 0
        self._arrived = 0
        self._regular = True  # every row learned so far is_regular

    def predict_code(self, num_row, nom_row):
        d = len(self._arrivals)
        if d == 0:
            return 0
        k, arrivals = self.k, self._arrivals
        labels, w = self._ring_labels, self.window
        if self._regular:
            e = self._entry.get(num_row.tobytes() + nom_row.tobytes())
            if e is not None and len(arrivals[e]) >= k:
                return neighbor_vote((0.0, labels[a % w])
                                     for a in islice(arrivals[e], k))
        dist = mixed_distances(num_row, nom_row, self._num[:, :d],
                               self._nom[:, :d], self._dist[:d],
                               self._buf[:d])
        i = min(k, d) - 1
        cand = np.flatnonzero(dist <= np.partition(dist, i)[i])
        nearest = sorted((x, a) for e, x in zip(cand.tolist(),
                                                dist[cand].tolist())
                         for a in islice(arrivals[e], k))[:k]
        return neighbor_vote((x, labels[a % w]) for x, a in nearest)

    def learn_row(self, num_row, nom_row, label_code):
        n, w = self._arrived, self.window
        slot = n % w
        if n >= w:
            self._evict(self._ring_keys[slot])
        key = num_row.tobytes() + nom_row.tobytes()
        e = self._entry.get(key)
        if e is None:
            if self._regular:
                self._regular = is_regular(num_row)
            e = self._entry[key] = len(self._arrivals)
            self._num[:, e] = num_row
            self._nom[:, e] = nom_row
            self._arrivals.append(deque())
        self._arrivals[e].append(n)
        self._ring_keys[slot] = key
        self._ring_labels[slot] = label_code
        self._arrived = n + 1
        self.size = min(n + 1, w)

    def _evict(self, key):
        """Drop the oldest instance, of the row `key`; an entry left without
        instances takes the table's last entry in its place."""
        e = self._entry[key]
        arrivals = self._arrivals[e]
        arrivals.popleft()
        if arrivals:
            return
        del self._entry[key]
        last = len(self._arrivals) - 1
        if e != last:
            self._num[:, e] = self._num[:, last]
            self._nom[:, e] = self._nom[:, last]
            moved = self._arrivals[e] = self._arrivals[last]
            # the ring slot of an instance in the window holds its row bytes
            self._entry[self._ring_keys[moved[0] % self.window]] = e
        self._arrivals.pop()


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
    before the first instance every member votes with weight 0. The Poisson
    draws take their uniforms from one `uniform_draws` of the seeded
    generator.

    `prequential_codes` routes ROUTE_BLOCK rows at a time for each member
    (`HoeffdingTree._route`), and the members' leaves of a row give the
    vote. Each of a member's learns of the row is one
    `HoeffdingTree._learn`, from the leaf the vote read, which routes the
    row again only after a learn that split that leaf; the member then
    routes its later rows of the block again. The leaf the learns end on is
    the member's prediction for the lambda update.
    """

    def __init__(self, schema: AttributeSchema, seed: int):
        super().__init__(schema)
        self.members = [HoeffdingTree(schema) for _ in range(BOOST_MEMBERS)]
        self.lam_sc = np.zeros(len(self.members))
        self.lam_sw = np.zeros(len(self.members))
        self._uniform = uniform_draws(np.random.default_rng(seed))
        # member_weights() as Python floats; only learning changes them
        self._weights = [0.0] * len(self.members)

    def member_weights(self) -> np.ndarray:
        """Each member's voting weight; every row adds lambda > 0 to each
        member's mass, so after the first row no mass is 0."""
        eps = np.minimum(np.maximum(self.lam_sw / (self.lam_sc + self.lam_sw),
                                    1e-10), 1.0 - 1e-10)
        return np.log((1.0 - eps) / eps)

    def _vote(self, codes) -> int:
        """The class of the highest summed weight over the members' codes,
        the first of equal sums."""
        votes = [0.0] * self.n_classes
        for code, wt in zip(codes, self._weights):
            votes[code] += wt
        return max(range(self.n_classes), key=votes.__getitem__)

    def predict_code(self, num_row, nom_row):
        return self._vote([m.predict_code(num_row, nom_row)
                           for m in self.members])

    def learn_row(self, num_row, nom_row, label_code):
        lam = 1.0
        for i, member in enumerate(self.members):
            kappa = poisson_knuth(lam, self._uniform)
            for _ in range(kappa):
                member.learn_row(num_row, nom_row, label_code)
            if member.predict_code(num_row, nom_row) == label_code:
                self.lam_sc[i] += lam
                lam *= (self.lam_sc[i] + self.lam_sw[i]) / (2.0 * self.lam_sc[i])
            else:
                self.lam_sw[i] += lam
                lam *= (self.lam_sc[i] + self.lam_sw[i]) / (2.0 * self.lam_sw[i])
        self._weights = self.member_weights().tolist()

    def prequential_codes(self, num, nom, labels):
        members, uniform = self.members, self._uniform
        # the masses as Python floats: the same doubles as lam_sc and lam_sw
        sc, sw = self.lam_sc.tolist(), self.lam_sw.tolist()
        codes = []
        ys = labels.tolist()
        for start in range(0, len(ys), ROUTE_BLOCK):
            stop = min(start + ROUTE_BLOCK, len(ys))
            block = [m._route(num, nom, np.arange(start, stop))
                     for m in members]
            for p, y in enumerate(ys[start:stop]):
                i = start + p
                codes.append(self._vote([routes[p][0].majority
                                         for routes in block]))
                lam = 1.0
                for k, (member, routes) in enumerate(zip(members, block)):
                    route = routes[p]
                    for _ in range(poisson_knuth(lam, uniform)):
                        route = member._learn(route, num, nom, labels, i, y)
                    if route is not routes[p]:
                        # the member split: route its later rows again
                        routes[p + 1:] = member._route(num, nom,
                                                       np.arange(i + 1, stop))
                    if route[0].majority == y:
                        sc[k] += lam
                        lam *= (sc[k] + sw[k]) / (2.0 * sc[k])
                    else:
                        sw[k] += lam
                        lam *= (sc[k] + sw[k]) / (2.0 * sw[k])
                self.lam_sc[:] = sc
                self.lam_sw[:] = sw
                self._weights = self.member_weights().tolist()
        for member in members:
            member._fold_pending(num, nom, labels)
        return codes
