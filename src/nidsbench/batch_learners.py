"""Batch classifiers: naive Bayes, C4.5-style tree, k-NN, MLP, linear SVM.

Every model follows the same contract: `fit(train)` builds the model from a
Dataset, and `predict_dataset(ds)` returns the class code of each row of a
Dataset coded against the schema the model was fitted on; any other schema
is a program fault and raises ValueError. A prediction is the class of the
highest score, ties to the lowest class index; the k-NN and SVM tie rules
refine this at exact ties (see their docstrings).

Mixed-distance convention used by k-NN (batch and windowed): euclidean over
numeric attributes plus a 0/1 overlap term per nominal attribute, i.e.
sqrt(sum((x - y)^2)) + #nominal mismatches. Both score one query at a time
against training rows stored column-major, through the one
`mixed_distances`, which sums the squares in a fixed column order, so a
distance is exact where it must be (0 for a copy of the query, bit-equal for
equal rows) and the same on every CPU.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterable

import numpy as np

from .dataset import AttributeSchema, DataError, Dataset
from .nbcore import ClassConditionalStats, fold_statistics
from .preprocess import (
    apply_normalizer,
    fit_normalizer,
    one_hot_encode,
    stratified_sample,
)


class TrainingError(RuntimeError):
    """Model training diverged."""


class BatchModel:
    """Shared fit/predict plumbing; subclasses implement _fit and
    _predict_codes."""

    def __init__(self):
        self.schema: AttributeSchema | None = None

    def fit(self, train: Dataset) -> "BatchModel":
        self.schema = train.schema
        self._fit(train)
        return self

    @classmethod
    def fit_folds(cls, models: Iterable["BatchModel"], ds: Dataset,
                  assignment: np.ndarray) -> Iterable["BatchModel"]:
        """Cross-validation's fit: yield `models`, one per fold in fold
        order, each fitted on the rows of ds outside its fold (`assignment`
        holds each row's fold). Each is taken from `models` and fitted when
        the caller asks for it, so a caller that drops the last one before
        asking for the next holds one fitted model at a time."""
        for fold, model in enumerate(models):
            yield model.fit(ds.subset(np.flatnonzero(assignment != fold),
                                      note=f"train fold {fold}"))

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        if ds.schema != self.schema:
            raise ValueError("dataset schema differs from the fitted schema")
        return self._predict_codes(ds.numeric, ds.nominal)


class NaiveBayes(BatchModel):
    """Gaussian/Laplace naive Bayes.

    Nominal likelihoods use add-one smoothing, numeric likelihoods are
    Gaussian per (class, attribute) with the variance floored, and scores
    are log prior + sum of log likelihoods. `fit` folds the training set
    in with one `ClassConditionalStats.add_rows`, and cross-validation
    takes every fold's statistics from one `fold_statistics` pass; both
    leave the statistics bit-identical to the streaming variant's one
    `update` per row (`test_nb_batch_statistics_equal_streaming_updates`,
    `test_nb_fold_statistics_equal_add_rows_and_updates`).
    """

    def _fit(self, train: Dataset) -> None:
        stats = ClassConditionalStats(train.schema)
        stats.add_rows(train.numeric, train.nominal, train.labels)
        self.stats = stats

    @classmethod
    def fit_folds(cls, models, ds, assignment):
        """Every fold's model at once, its statistics from one
        `fold_statistics` pass."""
        models = list(models)
        folds = fold_statistics(ds.schema, ds.numeric, ds.nominal, ds.labels,
                                assignment, len(models))
        for model, stats in zip(models, folds):
            model.schema, model.stats = ds.schema, stats
        return models

    def _predict_codes(self, num, nom):
        return np.argmax(self.stats.log_scores(num, nom), axis=1)


# ---------------------------------------------------------------------------
# decision tree


# C4.5's default confidence factor CF for pessimistic pruning (Quinlan 1993)
PRUNING_CONFIDENCE = 0.25
# the standard normal quantile of 1 - PRUNING_CONFIDENCE
_PRUNING_Z = NormalDist().inv_cdf(1.0 - PRUNING_CONFIDENCE)
# instances a split must leave in at least two branches (C4.5's and Weka
# J48's -M 2)
TREE_MIN_LEAF = 2


class _TreeNode:
    __slots__ = ("counts", "majority", "col", "kind", "threshold", "children",
                 "est_errors")

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.majority = int(np.argmax(counts))
        self.col = None          # column in the numeric/nominal matrix
        self.kind = None         # "num" or "nom"
        self.threshold = None
        self.children = None
        self.est_errors = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def to_leaf(self):
        self.col = self.kind = self.threshold = self.children = None


def entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Entropy (bits) of each row of (possibly fractional) class counts."""
    tot = rows.sum(axis=1, keepdims=True)
    safe = np.maximum(tot, 1e-300)
    p = rows / safe
    plogp = np.where(rows > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def _positive_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy (bits) of each row's positive counts alone. Rows with as many
    positive counts share one `entropy_rows` call; zeros are left out, not
    padded in, because numpy's pairwise sum groups eight or more terms by
    position and zeros would move the last bits."""
    positive = rows > 0
    width = positive.sum(axis=1)
    out = np.empty(len(rows))
    for w in np.flatnonzero(np.bincount(width)):
        same = width == w
        out[same] = entropy_rows(rows[same][positive[same]].reshape(-1, w))
    return out


def _gain_ratio(gains: np.ndarray, split_infos: np.ndarray) -> np.ndarray:
    """C4.5's split key: the gain ratio, or the gain where the split info is
    zero."""
    return np.divide(gains, split_infos, out=gains.copy(),
                     where=split_infos > 1e-12)


def _open(counts: np.ndarray) -> np.ndarray:
    """Which nodes of these class-count rows the tree may split: those that
    hold two classes and rows enough for two TREE_MIN_LEAF branches."""
    return ((counts > 0).sum(axis=1) > 1) \
        & (counts.sum(axis=1) >= 2 * TREE_MIN_LEAF)


def _partition(order: np.ndarray, key: np.ndarray, keep: int) -> np.ndarray:
    """Each row of `order` stably sorted by the `key` of its entries and cut
    to its first `keep` entries."""
    by_key = np.argsort(np.take(key, order), axis=1, kind="stable")
    out = np.empty((len(order), keep), dtype=order.dtype)
    for row, perm, dest in zip(order, by_key, out):
        np.take(row, perm[:keep], out=dest)
    return out


def _pessimistic_extra_errors(n: float, e: float) -> float:
    """Upper-confidence extra error count for a node with n >= 1 instances
    and e <= n - 1 errors (its majority class holds at least one)."""
    if e == 0:
        return n * (1.0 - PRUNING_CONFIDENCE ** (1.0 / n))
    z = _PRUNING_Z
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (1 + z * z / n)
    return r * n - e


class DecisionTree(BatchModel):
    """C4.5-style tree: multiway nominal splits, binary numeric threshold
    splits at class-boundary midpoints, gain-ratio selection (info gain when
    the split info is zero), pessimistic pruning by subtree replacement. A
    split is admissible only when at least two branches hold TREE_MIN_LEAF
    instances and its information gain is positive.

    At prediction, a nominal value with no branch (unseen at the node) falls
    back to the node's majority class.
    """

    def _fit(self, train: Dataset) -> None:
        self.n_classes = len(train.schema.class_labels)
        num, nom = train.numeric, train.nominal
        y = train.labels.astype(np.int32)
        self._nom_domain_sizes = [
            len(train.schema.attributes[p].domain)
            for p in train.schema.nominal_positions
        ]
        self.root = self._grow(num, nom, y)
        self._prune()

    def _grow(self, num, nom, y):
        """Grow the unpruned tree one level at a time (SLIQ's breadth-first
        growth) and return its root.

        Row i < n_num of `order` lists the level's open rows by ascending
        value of numeric column i, ties by row index, and its last row lists
        them by row index alone. In every row each open node holds one
        contiguous block, the nodes in the same order. The root sorts once.
        One split search scores every open node of the level, and one stable
        partition of `order` by child gives the next level: a child keeps its
        rows in its parent's order, which is exactly the stable argsort of
        the child's own values. A pure node, a node too small to leave
        TREE_MIN_LEAF rows in two branches and a node without an admissible
        split are leaves.
        """
        n_classes, n_nom, n_num = self.n_classes, nom.shape[1], num.shape[1]
        counts = np.bincount(y, minlength=n_classes)[None]
        root = _TreeNode(counts[0])
        nodes = [root] if _open(counts)[0] else []
        order = np.empty((n_num + 1, len(y)), dtype=np.int32)
        order[:n_num] = np.argsort(num, axis=0, kind="stable").T
        order[n_num] = np.arange(len(y))
        # a split's branches on each column: nominal columns, then numeric
        n_branches = np.array(self._nom_domain_sizes + [2] * n_num, dtype=int)
        while nodes:
            n_open, size = len(nodes), counts.sum(axis=1)
            node = np.repeat(np.arange(n_open), size)  # position -> node
            rows = order[-1]
            y_rows = y[rows]
            h_parent = _positive_entropies(counts)
            # the gain ratio of each node's best split on each column, -inf
            # where the column has no admissible split at the node
            keys = np.full((n_open, n_nom + n_num), -np.inf)
            self._nominal_keys(keys, nom[rows], node, y_rows, size, h_parent)
            cut_node, cut_col, gains, split_infos, cut_thresholds = \
                self._numeric_cuts(num, y, order[:-1], size, counts, h_parent)
            keys[cut_node, n_nom + cut_col] = _gain_ratio(gains, split_infos)
            threshold = np.zeros((n_open, n_num))
            threshold[cut_node, cut_col] = cut_thresholds

            # A node's split is its first best key: a later column wins only
            # with a strictly higher gain ratio.
            best = keys.argmax(axis=1)
            split = keys[np.arange(n_open), best] > -np.inf
            col = np.where(best < n_nom, best, best - n_nom)
            n_kids = np.where(split, n_branches[best], 0)
            first_kid = np.cumsum(n_kids) - n_kids
            for k in np.flatnonzero(split):
                nd = nodes[k]
                nd.col, nd.children = int(col[k]), [None] * int(n_kids[k])
                if best[k] < n_nom:
                    nd.kind = "nom"
                else:
                    nd.kind, nd.threshold = "num", threshold[k, col[k]]
            # A row of a split node goes to its node's first child plus its
            # branch. The rows of the other nodes leave the growth.
            going = np.flatnonzero(split[node])
            at = node[going]
            kid = first_kid[at]
            by_num = best[at] >= n_nom
            g, a = rows[going[by_num]], at[by_num]
            kid[by_num] += num[g, col[a]] > threshold[a, col[a]]
            g, a = rows[going[~by_num]], at[~by_num]
            kid[~by_num] += nom[g, col[a]]
            kid_counts = np.bincount(
                kid * n_classes + y_rows[going],
                minlength=int(n_kids.sum()) * n_classes).reshape(-1, n_classes)
            parent = np.repeat(np.arange(n_open), n_kids)
            kids = {}
            for c in np.flatnonzero(kid_counts.any(axis=1)):
                kids[c] = _TreeNode(kid_counts[c])
                nodes[parent[c]].children[c - first_kid[parent[c]]] = kids[c]

            # The next level holds the open children in child order. One
            # stable sort of each row of `order` by the rank of the row's
            # child (past the last one for the rows that leave) partitions it.
            opens = np.flatnonzero(_open(kid_counts))
            nodes, counts = [kids[c] for c in opens], kid_counts[opens]
            rank = np.full(len(kid_counts), len(opens),
                           dtype=np.min_scalar_type(len(opens)))
            rank[opens] = np.arange(len(opens))
            row_rank = np.full(len(y), len(opens), dtype=rank.dtype)
            row_rank[rows[going]] = rank[kid]
            order = _partition(order, row_rank, int(counts.sum()))
        return root

    def _nominal_keys(self, keys, nom_rows, node, y_rows, size, h_parent):
        """Write into keys[:, col] the gain ratio of each node's split on
        each nominal column col where it is admissible. Row i of nom_rows,
        node and y_rows holds a row of the level: its nominal codes, its
        node and its class."""
        n_nodes, n_classes = len(size), self.n_classes
        for col, d in enumerate(self._nom_domain_sizes):
            if d < 2:
                continue
            table = np.bincount(
                (node * d + nom_rows[:, col]) * n_classes + y_rows,
                minlength=n_nodes * d * n_classes
            ).reshape(n_nodes, d, n_classes)
            sizes = table.sum(axis=2)
            ok = np.flatnonzero(((sizes > 0).sum(axis=1) >= 2)
                                & ((sizes >= TREE_MIN_LEAF).sum(axis=1) >= 2))
            h_branches = entropy_rows(table.reshape(-1, n_classes)
                                      ).reshape(n_nodes, d)
            gains = np.array([
                h_parent[k] - float((sizes[k] / size[k]) @ h_branches[k])
                for k in ok])
            ok, gains = ok[gains > 1e-12], gains[gains > 1e-12]
            keys[ok, col] = _gain_ratio(gains, _positive_entropies(sizes[ok]))

    def _numeric_cuts(self, num, y, order, size, counts, h_parent):
        """The best admissible cut of each (node, numeric column) segment of
        a level that has one, as arrays (node, col, gain, split_info,
        threshold) ordered by column, then node.

        Row `col` of `order` lists the level's open rows sorted by numeric
        column col, each node in one block of `size` rows (see `_grow`);
        `counts` and `h_parent` are the nodes' class counts and entropies. A
        cut between two runs of equal values is a candidate when the runs do
        not hold one and the same class and both sides keep TREE_MIN_LEAF
        of the node's rows. Run numbering, boundary points and admissible
        positions restart at each node's block. Every candidate of the level
        is scored at once, and a segment's cut is its first best one.
        """
        n_num, m = order.shape
        n_nodes, n_classes = len(size), self.n_classes
        start = np.cumsum(size) - size
        node = np.repeat(np.arange(n_nodes), size)  # position -> node
        # the cut after position i of a block leaves i + 1 rows on the left
        i = np.arange(m) - start[node]
        admissible = (i >= TREE_MIN_LEAF - 1) \
            & (i < size[node] - TREE_MIN_LEAF)
        is_last = np.zeros(m, dtype=bool)  # a block's last position
        is_last[start + size - 1] = True
        # step[col, i]: a run of equal values ends at position i
        step = np.empty((n_num, m - 1), dtype=bool)
        for col, rows in enumerate(order):
            sv = np.take(num[:, col], rows)
            np.not_equal(sv[1:], sv[:-1], out=step[col])
        sy = np.take(y, order)
        # runs numbered across all segments; each block starts a run
        starts = np.ones((n_num, m), dtype=bool)
        starts[:, 1:] = step
        starts[:, start] = True
        run = np.cumsum(starts, dtype=np.int32).reshape(n_num, m)
        run -= 1
        n_runs = np.count_nonzero(starts)
        # a run's class, or -1 when its classes differ
        mixed = np.zeros(n_runs, dtype=bool)
        mixed[run[:, 1:][~starts[:, 1:] & (sy[:, 1:] != sy[:, :-1])]] = True
        pure = np.where(mixed, -1, sy[starts])
        del starts, mixed
        boundary = np.zeros(n_runs, dtype=bool)  # run r vs run r + 1
        boundary[:-1] = (pure[:-1] == -1) | (pure[1:] == -1) \
            | (pure[:-1] != pure[1:])
        # Marks: the candidate cuts, then each segment's last row as well.
        marks = np.zeros((n_num, m), dtype=bool)
        np.logical_and(step, boundary[run[:, :-1]], out=marks[:, :-1])
        del step, run, pure, boundary
        marks &= admissible
        marks[:, is_last] = True
        # Left-side class counts at every mark: the rows up to a mark, from
        # the previous one on, form its piece; one bincount counts each
        # piece's classes and a cumulative sum over the pieces, restarted at
        # each segment, runs them up. Absent classes stay zero columns:
        # numpy's pairwise sum groups eight or more terms by position, so
        # dropping them would move the entropies' last bits.
        flat = marks.ravel()
        at = np.flatnonzero(flat)  # the flat position of each mark
        piece = np.cumsum(flat, dtype=np.int32)
        piece -= flat
        piece *= n_classes
        piece += sy.ravel()
        del sy, marks, flat
        left = np.bincount(piece, minlength=len(at) * n_classes
                           ).reshape(len(at), n_classes)
        del piece
        at_last = is_last[at % m]
        seg_end = np.flatnonzero(at_last)  # segment s = col * n_nodes + node
        left[seg_end[:-1] + 1] -= np.tile(counts, (n_num, 1))[:-1]
        np.cumsum(left, axis=0, out=left)
        cut = ~at_last
        left = left[cut]
        cols, pos = np.divmod(at[cut], m)
        nodes = node[pos]
        del at, at_last, cut

        seg = cols * n_nodes + nodes
        opens = np.ones(len(seg), dtype=bool)  # a segment's first candidate
        np.not_equal(seg[1:], seg[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        seg = np.cumsum(opens, dtype=np.int32) - 1  # candidate -> segment
        n = size[nodes]
        n_left = (i[pos] + 1).astype(np.float64)
        h_left = entropy_rows(left)
        h_right = entropy_rows(np.subtract(counts[nodes], left, out=left))
        gains = h_parent[nodes] - (n_left * h_left + (n - n_left) * h_right) / n
        top = np.flatnonzero(gains == np.maximum.reduceat(gains, first)[seg])
        chosen = top[np.searchsorted(top, first)]  # each segment's first best
        chosen = chosen[gains[chosen] > 1e-12]
        n_left, n = n_left[chosen], n[chosen]
        split_infos = entropy_rows(np.column_stack((n_left, n - n_left)))
        cols, pos = cols[chosen], pos[chosen]
        below = num[order[cols, pos], cols]
        above = num[order[cols, pos + 1], cols]
        thresholds = (below + above) / 2.0
        # The midpoint of two adjacent floats can round up to `above` (or
        # overflow to inf) and send every row left, so the cut falls back to
        # `below`, as Weka's C4.5 does.
        thresholds = np.where(thresholds < above, thresholds, below)
        return nodes[chosen], cols, gains[chosen], split_infos, thresholds

    def _prune(self) -> None:
        stack = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            n = float(node.counts.sum())
            e = float(n - node.counts.max())
            if node.is_leaf:
                node.est_errors = e + _pessimistic_extra_errors(n, e)
                continue
            if not processed:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if c is not None)
                continue
            subtree = sum(c.est_errors for c in node.children if c is not None)
            as_leaf = e + _pessimistic_extra_errors(n, e)
            if as_leaf <= subtree + 0.1:
                node.to_leaf()
                node.est_errors = as_leaf
            else:
                node.est_errors = subtree

    def _route(self, num_row, nom_row) -> _TreeNode:
        node = self.root
        while not node.is_leaf:
            if node.kind == "num":
                child = node.children[0] if num_row[node.col] <= node.threshold \
                    else node.children[1]
            else:
                child = node.children[nom_row[node.col]]
            if child is None:
                break
            node = child
        return node

    def _predict_codes(self, num, nom):
        out = np.empty(len(num), dtype=np.int64)
        for i in range(len(num)):
            out[i] = self._route(num[i], nom[i]).majority
        return out

    def n_leaves(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend(c for c in node.children if c is not None)
        return count

    def depth(self) -> int:
        best, stack = 0, [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            if not node.is_leaf:
                stack.extend((c, d + 1) for c in node.children if c is not None)
        return best


# ---------------------------------------------------------------------------
# k nearest neighbors

def mixed_distances(q_num, q_nom, t_cols, t_nom, out, buf) -> np.ndarray:
    """Distances from one query row to every training row: the euclidean
    distance over the numeric attributes plus the nominal mismatch count.

    The training rows come column-major: `t_cols` is (n_num, n_train) and
    `t_nom` is (n_nom, n_train). The caller owns the two float64 buffers of
    length n_train: the distances are written to `out` and returned, and
    `buf` takes one column's squared differences at a time, so a query
    needs no (n_num, n_train) temporary. The squared columns are
    added to `out` one after another, in column order, with elementwise
    IEEE operations only, so a distance does not depend on the BLAS, the
    SIMD path, the number of training rows or where its row sits: a
    self-distance is exactly 0 and equal rows get bit-equal distances.
    """
    out.fill(0.0)
    for t_col, q in zip(t_cols, q_num):
        np.subtract(t_col, q, out=buf)
        np.multiply(buf, buf, out=buf)
        out += buf
    np.sqrt(out, out=out)
    for t_col, q in zip(t_nom, q_nom):
        out += t_col != q
    return out


def neighbor_vote(neighbors) -> int:
    """The class code winning the majority vote of (distance, class code)
    pairs given nearest first.

    Equal vote counts go to the class with the smaller summed neighbor
    distance, each sum added in neighbor order from 0.0, then to the lower
    class index.
    """
    votes: dict[int, int] = {}
    sums: dict[int, float] = {}
    for d, c in neighbors:
        votes[c] = votes.get(c, 0) + 1
        sums[c] = sums.get(c, 0.0) + d
    return min(votes, key=lambda c: (-votes[c], sums[c], c))


def knn_vote(dist: np.ndarray, labels: np.ndarray, k: int) -> int:
    """The class code winning `neighbor_vote` among the k nearest of one
    query; among equal distances the lower index is nearer."""
    kth = np.partition(dist, k - 1)[k - 1]
    cand = np.flatnonzero(dist <= kth)
    nb = cand[np.argsort(dist[cand], kind="stable")[:k]]
    return neighbor_vote(zip(dist[nb].tolist(), labels[nb].tolist()))


class KNN(BatchModel):
    """Brute-force k-NN over the mixed distance, majority vote.

    The training rows are kept column-major and each test row is scored
    against all of them by `mixed_distances`; among equal distances the
    earlier training row wins. Prediction refines the plain majority at
    exact vote ties: tied classes are separated by smaller summed neighbor
    distance first, then by ascending class index.
    """

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def _fit(self, train: Dataset) -> None:
        if self.k > len(train):
            raise DataError(
                f"k={self.k} exceeds training size {len(train)}")
        self.t_cols = np.ascontiguousarray(train.numeric.T)
        self.t_nom = np.ascontiguousarray(train.nominal.T)
        self.t_labels = train.labels.astype(np.int64)

    def _predict_codes(self, num, nom):
        out, buf = np.empty((2, len(self.t_labels)))
        return np.array([
            knn_vote(mixed_distances(q_num, q_nom, self.t_cols, self.t_nom,
                                     out, buf),
                     self.t_labels, self.k)
            for q_num, q_nom in zip(num, nom)], dtype=np.int64)


# ---------------------------------------------------------------------------
# multilayer perceptron


# SGD step size and momentum: the defaults of Weka's MultilayerPerceptron
MLP_LEARNING_RATE = 0.3
MLP_MOMENTUM = 0.2
# passes of per-instance SGD over the training set
MLP_EPOCHS = 10


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The unipolar (logistic) sigmoid 1 / (1 + exp(-z))."""
    return 1.0 / (1.0 + np.exp(-z))


def mlp_forward(params, x):
    w1, b1, w2, b2 = params
    hidden = _sigmoid(x @ w1 + b1)
    out = _sigmoid(hidden @ w2 + b2)
    return hidden, out


def mlp_gradients(params, x, target):
    """Backpropagated gradients of the half squared error for one instance."""
    w1, b1, w2, b2 = params
    hidden, out = mlp_forward(params, x)
    delta_out = (out - target) * out * (1.0 - out)
    g_w2 = np.outer(hidden, delta_out)
    g_b2 = delta_out
    delta_hid = (w2 @ delta_out) * hidden * (1.0 - hidden)
    g_w1 = np.outer(x, delta_hid)
    g_b1 = delta_hid
    return g_w1, g_b1, g_w2, g_b2


class MLP(BatchModel):
    """Three-layer feed-forward net, unipolar sigmoid on hidden and output
    layers, trained by per-instance SGD on half squared error with momentum.
    The hidden layer has ceil((inputs + classes) / 2) units. Inputs are
    all-numeric: the CLI builds it inside `Pipeline(encode=True)`.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def _fit(self, train: Dataset) -> None:
        x = train.numeric
        y = train.labels
        n, d = x.shape
        c = len(train.schema.class_labels)
        h = math.ceil((d + c) / 2)
        rng = np.random.default_rng(self.seed)
        params = (rng.uniform(-0.5, 0.5, (d, h)), rng.uniform(-0.5, 0.5, h),
                  rng.uniform(-0.5, 0.5, (h, c)), rng.uniform(-0.5, 0.5, c))
        velocity = tuple(np.zeros_like(p) for p in params)
        targets = np.zeros((n, c))
        targets[np.arange(n), y] = 1.0

        for _ in range(MLP_EPOCHS):
            for i in rng.permutation(n):
                grads = mlp_gradients(params, x[i], targets[i])
                for p, v, g in zip(params, velocity, grads):
                    v *= MLP_MOMENTUM
                    v -= MLP_LEARNING_RATE * g
                    p += v
            w1, _, w2, _ = params
            if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
                raise TrainingError(
                    "non-finite weights: learning rate too high for this data")
        self.params = params

    def _predict_codes(self, num, nom):
        # argmax of the normalized outputs: the division can round two
        # outputs equal, and the tie then goes to the lower class index
        _, out = mlp_forward(self.params, num)
        return np.argmax(out / out.sum(axis=1, keepdims=True), axis=1)


# ---------------------------------------------------------------------------
# linear soft-margin SVM trained by pairwise dual optimization


# box constraint C, KKT/convergence tolerance and pass limit of the SMO
# training (C and the tolerance are the defaults of Platt's SMO in Weka)
SVM_C = 1.0
SVM_TOLERANCE = 1e-3
SVM_MAX_PASSES = 50
# a step refreshes only its own two cached errors; the stale rest sway only
# the choice of second multipliers, so refresh them all every this many steps
SVM_REFRESH_EVERY = 256


class LinearSVM(BatchModel):
    """Binary linear SVM trained by sequential two-multiplier dual updates.

    Class code 0 maps to -1 and class code 1 to +1 (with the binary variant's
    label order that is normal vs attack). Candidate first multipliers are
    KKT violators; the second is chosen by the largest error difference, with
    deterministic fallbacks over non-bound then all multipliers. Training
    stops when no multiplier moved by more than SVM_TOLERANCE over a full
    pass, or after SVM_MAX_PASSES passes. A decision value of exactly 0
    predicts the +1 class. Inputs are all-numeric and two-class: the CLI
    builds it inside `Pipeline(encode=True)` and only for variant v2.
    """

    def _fit(self, train: Dataset) -> None:
        counts = np.bincount(train.labels, minlength=2)
        if (counts == 0).any():
            absent = train.schema.class_labels[int(np.argmin(counts))]
            raise DataError(f"SVM training fold has no {absent!r} instance")
        x = train.numeric
        y = np.where(train.labels == 0, -1.0, 1.0)
        self.w, self.b, self.alpha_, self.passes_ = self._smo(x, y)

    def _smo(self, x, y):
        n, d = x.shape
        c = SVM_C
        tol = SVM_TOLERANCE
        alpha = np.zeros(n)
        w = np.zeros(d)
        b = 0.0
        xsq = (x * x).sum(axis=1)
        e_cache = -y.copy()
        steps = 0

        def exact_e(i):
            return float(x[i] @ w + b - y[i])

        def try_step(i, j, ei):  # ei: exact_e(i), unchanged until a step
            nonlocal b, w, steps
            if i == j:
                return 0.0
            ej = exact_e(j)
            ai, aj = alpha[i], alpha[j]
            if y[i] != y[j]:
                lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
            else:
                lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
            if hi - lo < 1e-12:
                return 0.0
            kij = float(x[i] @ x[j])
            eta = xsq[i] + xsq[j] - 2.0 * kij
            if eta <= 1e-15:
                return 0.0
            aj_new = min(max(aj + y[j] * (ei - ej) / eta, lo), hi)
            delta_j = aj_new - aj
            if abs(delta_j) < 1e-12:
                return 0.0
            ai_new = ai + y[i] * y[j] * (aj - aj_new)
            delta_i = ai_new - ai
            b1 = b - ei - y[i] * delta_i * xsq[i] - y[j] * delta_j * kij
            b2 = b - ej - y[i] * delta_i * kij - y[j] * delta_j * xsq[j]
            if 1e-12 < ai_new < c - 1e-12:
                b = b1
            elif 1e-12 < aj_new < c - 1e-12:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            w += y[i] * delta_i * x[i] + y[j] * delta_j * x[j]
            alpha[i], alpha[j] = ai_new, aj_new
            steps += 1
            if steps % SVM_REFRESH_EVERY == 0:
                e_cache[:] = x @ w + b - y
            else:
                e_cache[i] = exact_e(i)
                e_cache[j] = exact_e(j)
            return abs(delta_j)

        def examine(i):
            ei = exact_e(i)
            r = ei * y[i]
            if not ((r < -tol and alpha[i] < c) or (r > tol and alpha[i] > 0)):
                return 0.0
            gap = np.abs(e_cache - ei)
            gap[i] = -1.0
            moved = try_step(i, int(np.argmax(gap)), ei)
            if moved:
                return moved
            for j in np.flatnonzero((alpha > 1e-12) & (alpha < c - 1e-12)):
                moved = try_step(i, int(j), ei)
                if moved:
                    return moved
            for j in range(n):
                moved = try_step(i, j, ei)
                if moved:
                    return moved
            return 0.0

        passes = 0
        examine_all = True
        while passes < SVM_MAX_PASSES:
            e_cache[:] = x @ w + b - y
            max_delta = 0.0
            if examine_all:
                targets = range(n)
            else:
                targets = np.flatnonzero((alpha > 1e-12) & (alpha < c - 1e-12))
            for i in targets:
                max_delta = max(max_delta, examine(int(i)))
            passes += 1
            if examine_all:
                if max_delta <= tol:
                    break
                examine_all = False
            elif max_delta == 0.0:
                examine_all = True
        return w, b, alpha, passes

    def _predict_codes(self, num, nom):
        return (num @ self.w + self.b >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# preprocessing pipeline wrapper


class Pipeline(BatchModel):
    """Fits per-fold preprocessing on the training split, then the model.

    Stages, applied in order: an optional class-stratified training
    subsample, min-max normalization, optional one-hot encoding. The
    normalizer is fitted on the training split only and transforms every
    later input, so no test data reaches its fitting.
    """

    def __init__(self, model: BatchModel, encode: bool = False,
                 subsample: int | None = None, seed: int = 1):
        super().__init__()
        self.model = model
        self.encode = encode
        self.subsample = subsample
        self.seed = seed

    def _fit(self, train: Dataset) -> None:
        ds = train
        if self.subsample is not None and len(ds) > self.subsample:
            idx = stratified_sample(ds.labels, self.subsample, self.seed)
            ds = ds.subset(idx, note=f"stratified subsample {self.subsample}")
        self._normalizer = fit_normalizer(ds)
        self.model.fit(self._transform(ds))

    def _transform(self, ds: Dataset) -> Dataset:
        ds = apply_normalizer(self._normalizer, ds)
        if self.encode:
            ds = one_hot_encode(ds)
        return ds

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        if ds.schema != self.schema:
            raise ValueError("dataset schema differs from the fitted schema")
        return self.model.predict_dataset(self._transform(ds))
