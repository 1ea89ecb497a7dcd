"""Batch learner behavior against hand-computed and brute-force oracles."""

import math
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nidsbench.batch_learners as batch_learners
import nidsbench.nbcore as nbcore
from nidsbench.batch_learners import (
    KNN,
    MLP,
    DecisionTree,
    LinearSVM,
    NaiveBayes,
    Pipeline,
    mixed_distances,
    mlp_forward,
    mlp_gradients,
)
from nidsbench.cli import RunConfig, prepare
from nidsbench.dataset import (
    NOMINAL,
    NUMERIC,
    Attribute,
    AttributeSchema,
    DataError,
    kdd99_schema,
    load_dataset,
)
from nidsbench.evaluation import assign_stratified_folds
from nidsbench.nbcore import ClassConditionalStats, fold_statistics
from nidsbench.stream_learners import StreamingNaiveBayes

from conftest import build_dataset, code_rows, mlp_loss, predict_labels


# --- naive Bayes ------------------------------------------------------------


def test_nb_single_class_always_predicted():
    ds = build_dataset([("x", "numeric")], [(1.0,), (5.0,), (9.0,)],
                       ["only"] * 3)
    model = NaiveBayes().fit(ds)
    assert predict_labels(model, (123.0,)) == ["only"]


def test_nb_matches_hand_computed_posterior(tiny_mixed_dataset):
    model = NaiveBayes().fit(tiny_mixed_dataset)

    # independent evaluation of the smoothed Bayes rule, in logs
    def log_gauss(x, mu, var):
        return -0.5 * (x - mu) ** 2 / var - 0.5 * math.log(2 * math.pi * var)

    # class a: x in {1, 2}; class b: x in {3, 4}; population variances
    expect = {}
    for cls, mu, var, n_red in (("a", 1.5, 0.25, 2), ("b", 3.5, 0.25, 0)):
        prior = 0.5
        p_red = (n_red + 1) / (2 + 2)  # Laplace over domain {red, blue}
        expect[cls] = math.log(prior) + log_gauss(2.5, mu, var) \
            + math.log(p_red)

    query = code_rows(model.schema, (2.5, "red"))
    scores = model.stats.log_scores(query.numeric, query.nominal)[0]
    for i, lab in enumerate(model.schema.class_labels):
        assert scores[i] == pytest.approx(expect[lab], rel=1e-9)
    assert predict_labels(model, (2.5, "red")) == [max(expect, key=expect.get)]


def _stats_bits(stats):
    """Every statistic of a ClassConditionalStats, as bytes, dtypes and
    shapes, with the type and value of `total`."""
    arrays = (stats.class_counts, stats.mean, stats.m2, *stats.nominal_counts)
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays],
            type(stats.total), stats.total)


def test_nb_batch_statistics_equal_streaming_updates():
    # v3 with every attribute: 13 classes, 34 numeric and 7 nominal columns
    ds = _golden_slice("v3", "all")
    model = NaiveBayes().fit(ds)
    stream = StreamingNaiveBayes(ds.schema)
    for i in range(len(ds)):
        stream.learn_row(ds.numeric[i], ds.nominal[i], int(ds.labels[i]))
    assert _stats_bits(model.stats) == _stats_bits(stream.stats)


def test_nb_fold_statistics_equal_add_rows_on_the_slice():
    # 13 classes, 34 numeric and 7 nominal columns, 1,350 training rows a
    # fold: gathers of 14 steps, lanes ending in many of them
    ds = _golden_slice("v3", "all")
    assignment = assign_stratified_folds(ds.labels, 10, seed=1)
    folds = fold_statistics(ds.schema, ds.numeric, ds.nominal, ds.labels,
                            assignment, 10)
    for fold, stats in enumerate(folds):
        train = ds.subset(np.flatnonzero(assignment != fold))
        assert _stats_bits(stats) == _stats_bits(NaiveBayes().fit(train).stats)


# numeric values spanning the float64 range: overflow to inf and nan,
# subnormals and a signed zero
_NB_VALUES = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, -0.0, 0.0]))


def _nb_case(n_num, domains, n_classes, seen, block):
    """A schema with n_num numeric and len(domains) nominal attributes, plus
    the rows statistics saw before and the block to add, each as coded
    (numeric, nominal, labels) arrays built from (values, codes, label)
    rows."""
    attrs = [Attribute(f"x{j}", NUMERIC) for j in range(n_num)]
    attrs += [Attribute(f"c{j}", NOMINAL, tuple(f"v{i}" for i in range(d)))
              for j, d in enumerate(domains)]
    schema = AttributeSchema(tuple(attrs),
                             tuple(f"k{i}" for i in range(n_classes)))

    def arrays(rows):
        n = len(rows)
        return (np.array([r[0] for r in rows], np.float64).reshape(n, n_num),
                np.array([r[1] for r in rows], np.int32).reshape(n, len(domains)),
                np.array([r[2] for r in rows], np.int32))
    return schema, arrays(seen), arrays(block)


@st.composite
def _nb_cases(draw):
    n_num = draw(st.integers(0, 3))
    domains = draw(st.lists(st.integers(1, 4), max_size=3))
    n_classes = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(_NB_VALUES, min_size=n_num, max_size=n_num),
        st.tuples(*(st.integers(0, d - 1) for d in domains)),
        st.integers(0, n_classes - 1))
    return _nb_case(n_num, domains, n_classes,
                    draw(st.lists(row, max_size=6)),
                    draw(st.lists(row, max_size=30)))


# seen rows, then a block where k0 has extreme values, k1 one row and k2 none
_NB_SEEN = [([1.5, -2.0], (0, 2), 0), ([3.0, 0.25], (1, 0), 3)]
_NB_BLOCK = [([1e300, -0.0], (1, 1), 0), ([-1e-300, 1e-300], (0, 2), 3),
             ([-1e300, 7.0], (0, 0), 0), ([-0.0, -1e300], (1, 2), 1),
             ([1e-300, 2.5], (1, 1), 0), ([0.0, -0.0], (0, 1), 3)]


# constant tails: warm stats whose k0 means already equal the tail values
# 1.5, 0.0 and 2.0; a tail of signed zeros; a constant column (k1's 7.0);
# a tail that runs for steps before the mean reaches it (k2's 0.3), or
# never does (k1's 1e300)
_NB_WARM = [([1.5, 0.0, 2.0], (0,), 0), ([1.5, -0.0, 2.0], (1,), 0)]
_NB_TAILS = [([1.5, 0.0, 1.0], (0,), 0), ([7.0, 5.0, -3.0], (1,), 1),
             ([1.5, -0.0, 3.0], (1,), 0), ([1.0, 1.0, 1.0], (0,), 2),
             ([7.0, 1e300, 2.0], (0,), 1), ([1.5, 0.0, 2.0], (1,), 0),
             ([0.3, -0.0, 0.3], (0,), 2), ([1.5, -0.0, 2.0], (0,), 0),
             ([7.0, 1e300, 2.0], (1,), 1), ([0.3, 0.0, 0.3], (1,), 2),
             ([1.5, 0.0, 2.0], (0,), 0), ([0.3, -0.0, 0.3], (0,), 2),
             ([0.3, -0.0, 0.3], (1,), 2)]


@given(_nb_cases())
@example(_nb_case(2, [2, 3], 4, _NB_SEEN, _NB_BLOCK))
@example(_nb_case(3, [2], 3, _NB_WARM, _NB_TAILS))
@example(_nb_case(3, [2], 3, [], _NB_TAILS))
# tails of infinities: once the mean is inf, a step on inf makes it nan
@example(_nb_case(1, [], 2, [], [([math.inf], (), 0), ([math.inf], (), 0),
                                 ([1.0], (), 1), ([-math.inf], (), 1),
                                 ([-math.inf], (), 1)]))
@example(_nb_case(0, [2, 3, 1], 4,
                  [([], (c[0], c[1], 0), k) for _, c, k in _NB_SEEN],
                  [([], (c[0], c[1], 0), k) for _, c, k in _NB_BLOCK]))
@settings(max_examples=200, deadline=None)
def test_nb_add_rows_equals_one_update_per_row(case):
    schema, seen, block = case
    by_row, by_block = ClassConditionalStats(schema), ClassConditionalStats(schema)
    with np.errstate(all="ignore"):  # +-1e300 sums overflow to inf, then nan
        for stats in by_row, by_block:
            for num, nom, label in zip(*seen):
                stats.update(num, nom, int(label))
        for num, nom, label in zip(*block):
            by_row.update(num, nom, int(label))
        by_block.add_rows(*block)
    assert _stats_bits(by_block) == _stats_bits(by_row)


# adds near the top of the float64 range, which overflow to inf and then
# nan, beside the values above
_FOLD_VALUES = st.one_of(_NB_VALUES, st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]))


@st.composite
def _fold_cases(draw):
    """A schema and rows as `_nb_cases` builds them, plus n_folds >= 2 and
    each row's fold: any fold in [0, n_folds), so a fold may lose a class
    from its training rows, keep one row of it, or hold no rows at all."""
    n_num = draw(st.integers(0, 3))
    domains = draw(st.lists(st.integers(1, 4), max_size=3))
    n_classes = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(_FOLD_VALUES, min_size=n_num, max_size=n_num),
        st.tuples(*(st.integers(0, d - 1) for d in domains)),
        st.integers(0, n_classes - 1))
    rows = draw(st.lists(row, min_size=2, max_size=30))
    n_folds = draw(st.integers(2, len(rows)))
    folds = draw(st.lists(st.integers(0, n_folds - 1), min_size=len(rows),
                          max_size=len(rows)))
    return _fold_case(n_num, domains, n_classes, rows, folds, n_folds)


def _fold_case(n_num, domains, n_classes, rows, folds, n_folds):
    schema, _, block = _nb_case(n_num, domains, n_classes, [], rows)
    return schema, block, np.array(folds, np.int32), n_folds


# one fold per row (leave-one-out), with classes of one row and extremes
_FOLD_ROWS = [([1e308, -0.0], (1,), 0), ([1e308, 2.5], (0,), 0),
              ([-0.0, 1e-300], (1,), 1), ([3.0, -1e308], (0,), 0),
              ([0.0, -1e308], (1,), 2)]


@given(_fold_cases())
@example(_fold_case(2, [2], 4, _FOLD_ROWS, range(5), 5))
@example(_fold_case(0, [2], 3, [([], c, k) for _, c, k in _FOLD_ROWS],
                    range(5), 5))
@example(_fold_case(1, [], 3, [([x[0]], (), k) for x, _, k in _FOLD_ROWS],
                    [0, 0, 1, 1, 1], 2))
@settings(max_examples=200, deadline=None)
def test_nb_fold_statistics_equal_add_rows_and_updates(case):
    schema, (num, nom, labels), assignment, n_folds = case
    with np.errstate(all="ignore"):  # +-1e308 sums overflow to inf, then nan
        folds = fold_statistics(schema, num, nom, labels, assignment,
                                n_folds)
        # the same in gathers of one step and of two, which end mid-lane
        lanes = n_folds * len(schema.class_labels) * num.shape[1]
        for block in (1, 2 * lanes):
            with mock.patch.object(nbcore, "LANE_BLOCK", block):
                assert [_stats_bits(s) for s in fold_statistics(
                    schema, num, nom, labels, assignment, n_folds)] \
                    == [_stats_bits(s) for s in folds]
        assert len(folds) == n_folds
        for fold, stats in enumerate(folds):
            train = assignment != fold
            by_block = ClassConditionalStats(schema)
            by_block.add_rows(num[train], nom[train], labels[train])
            by_row = ClassConditionalStats(schema)
            for x, codes, label in zip(num[train], nom[train], labels[train]):
                by_row.update(x, codes, int(label))
            assert _stats_bits(stats) == _stats_bits(by_block)
            assert _stats_bits(stats) == _stats_bits(by_row)


def test_nb_variance_floor_handles_constant_attribute():
    ds = build_dataset([("x", "numeric")], [(3.0,), (3.0,), (4.0,)],
                       ["a", "a", "b"])
    model = NaiveBayes().fit(ds)
    assert predict_labels(model, (3.0,)) == ["a"]
    query = code_rows(model.schema, (3.0,))
    assert np.isfinite(model.stats.log_scores(query.numeric,
                                              query.nominal)).all()


# --- decision tree ----------------------------------------------------------


def _entropy_oracle(labels):
    n = len(labels)
    return -sum(c / n * math.log2(c / n) for c in Counter(labels).values())


def _nominal_gain_oracle(values, labels):
    n = len(labels)
    h = _entropy_oracle(labels)
    for v in set(values):
        part = [lab for x, lab in zip(values, labels) if x == v]
        h -= len(part) / n * _entropy_oracle(part)
    return h


def test_tree_pure_training_set_is_single_leaf():
    ds = build_dataset([("x", "numeric")], [(1.0,), (2.0,)], ["a", "a"])
    tree = DecisionTree().fit(ds)
    assert tree.root.is_leaf
    assert predict_labels(tree, (99.0,)) == ["a"]


def _unpruned_tree(monkeypatch, min_leaf=batch_learners.TREE_MIN_LEAF):
    """A DecisionTree that grows without pruning, with TREE_MIN_LEAF set to
    min_leaf."""
    monkeypatch.setattr(batch_learners, "TREE_MIN_LEAF", min_leaf)
    monkeypatch.setattr(DecisionTree, "_prune", lambda self: None)
    return DecisionTree()


def test_tree_xor_style_set_matches_gain_oracle(monkeypatch):
    # Asymmetric two-attribute xor-ish set: counts (a,a)x3 -> c0, (a,b)x1 -> c1,
    # (b,a)x2 -> c1, (b,b)x2 -> c0. Attribute A carries more gain than B; the
    # grown tree splits A at the root, then B on both branches: depth 2, 100%.
    rows = [("a", "a")] * 3 + [("a", "b")] + [("b", "a")] * 2 + [("b", "b")] * 2
    labels = ["c0"] * 3 + ["c1"] + ["c1"] * 2 + ["c0"] * 2
    ds = build_dataset([("A", "nominal"), ("B", "nominal")], rows, labels)

    gain_a = _nominal_gain_oracle([r[0] for r in rows], labels)
    gain_b = _nominal_gain_oracle([r[1] for r in rows], labels)
    assert gain_a > gain_b > 0

    tree = _unpruned_tree(monkeypatch, min_leaf=1).fit(ds)
    assert tree.root.kind == "nom"
    assert ds.schema.attributes[ds.schema.nominal_positions[tree.root.col]] \
        .name == "A"
    assert tree.depth() == 2
    assert (tree.predict_dataset(ds) == ds.labels).all()


def test_tree_numeric_threshold_at_boundary_midpoint(monkeypatch):
    ds = build_dataset([("x", "numeric")],
                       [(1.0,), (2.0,), (10.0,), (11.0,)],
                       ["a", "a", "b", "b"])
    tree = _unpruned_tree(monkeypatch).fit(ds)
    assert tree.root.kind == "num"
    assert tree.root.threshold == pytest.approx(6.0)  # midpoint of 2 and 10
    assert predict_labels(tree, (5.0,), (7.0,)) == ["a", "b"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tree_fully_grown_is_perfect_on_distinct_data(data):
    # with one all-distinct numeric attribute every impure node admits a
    # positive-gain boundary split, so the unpruned tree reaches purity
    n = data.draw(st.integers(2, 40))
    labels = data.draw(st.lists(st.sampled_from("pqr"), min_size=n, max_size=n))
    extra = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    perm = np.random.default_rng(data.draw(st.integers(0, 999))).permutation(n)
    rows = [(float(perm[i]), float(extra[i])) for i in range(n)]
    ds = build_dataset([("uid", "numeric"), ("noise", "numeric")], rows, labels)
    with pytest.MonkeyPatch.context() as monkeypatch:
        tree = _unpruned_tree(monkeypatch, min_leaf=1).fit(ds)
    assert (tree.predict_dataset(ds) == ds.labels).all()


def test_tree_pruning_collapses_noise_splits(monkeypatch):
    # one dominant class with a few scattered exceptions: the pessimistic
    # estimate favors the collapsed leaf
    rng = np.random.default_rng(5)
    values = rng.random(60)
    labels = ["a"] * 57 + ["b"] * 3
    ds = build_dataset([("x", "numeric")], [(float(v),) for v in values],
                       labels)
    monkeypatch.setattr(batch_learners, "TREE_MIN_LEAF", 1)
    pruned = DecisionTree().fit(ds)
    grown = _unpruned_tree(monkeypatch, min_leaf=1).fit(ds)
    assert pruned.n_leaves() < grown.n_leaves()


def test_tree_unseen_nominal_value_falls_back_to_majority(monkeypatch):
    # zzz is in the domain, but no training row has it: the root split has
    # no branch for it
    ds = build_dataset([("c", "nominal", ("p", "q", "zzz"))],
                       [("p",), ("p",), ("p",), ("q",), ("q",)],
                       ["a", "a", "a", "b", "b"])
    tree = _unpruned_tree(monkeypatch, min_leaf=1).fit(ds)
    assert tree.root.kind == "nom"
    assert predict_labels(tree, ("zzz",)) == ["a"]


def test_tree_cut_between_adjacent_floats_separates_them(monkeypatch):
    # the midpoint of these two adjacent floats rounds up to 1000.0, and the
    # cut `x > 1000.0` would send both rows left: the same node again, grown
    # forever. The cut is checked first, so such a cut fails here instead of
    # hanging in fit.
    below, above = np.nextafter(1000.0, 0.0), 1000.0
    assert (below + above) / 2.0 == above
    ds = build_dataset([("x", "numeric")], [(below,), (above,)], ["a", "b"])
    tree = _unpruned_tree(monkeypatch, min_leaf=1)
    tree.n_classes = 2
    order = np.argsort(ds.numeric, axis=0, kind="stable").T.astype(np.int32)
    node, col, _, _, threshold = tree._numeric_cuts(
        ds.numeric, ds.labels, order, np.array([2]), np.array([[1, 1]]),
        np.array([1.0]))
    assert (node.tolist(), col.tolist(), threshold.tolist()) \
        == ([0], [0], [below])
    tree.fit(ds)
    assert tree.n_leaves() == 2
    assert predict_labels(tree, (below,), (above,)) == ["a", "b"]


def _oracle_numeric_cut(vals, y_sub, counts, h_parent, n_classes):
    """One numeric column's best cut at a node, searched on its own: a stable
    argsort of the node's values, the candidate cuts between runs of equal
    values, and left class counts by one searchsorted per class. Returns
    (gain, split_info, threshold) or None."""
    n = len(vals)
    if n < 2 * batch_learners.TREE_MIN_LEAF:
        return None
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    sy = y_sub[order]
    chg = np.flatnonzero(sv[1:] != sv[:-1])
    if not len(chg):
        return None
    run_starts = np.concatenate(([0], chg + 1))
    run_min = np.minimum.reduceat(sy, run_starts)
    run_max = np.maximum.reduceat(sy, run_starts)
    pure = np.where(run_min == run_max, run_min, -1)
    boundary = (pure[:-1] == -1) | (pure[1:] == -1) | (pure[:-1] != pure[1:])
    ok = boundary & (chg + 1 >= batch_learners.TREE_MIN_LEAF) \
        & (n - chg - 1 >= batch_learners.TREE_MIN_LEAF)
    cand = chg[ok]
    if not len(cand):
        return None
    left = np.empty((len(cand), n_classes))
    for c in range(n_classes):
        pos_c = np.flatnonzero(sy == c)
        left[:, c] = np.searchsorted(pos_c, cand, side="right")
    right = counts[None, :] - left
    n_left = (cand + 1).astype(np.float64)
    both = batch_learners.entropy_rows(np.vstack([left, right]))
    m = len(cand)
    gains = h_parent - (n_left * both[:m] + (n - n_left) * both[m:]) / n
    best_i = int(np.argmax(gains))
    gain = float(gains[best_i])
    if gain <= 1e-12:
        return None
    pos = cand[best_i]
    threshold = (sv[pos] + sv[pos + 1]) / 2.0
    if threshold == sv[pos + 1]:  # rounded up: every row would go left
        threshold = sv[pos]
    # the split info's scalar formula (both sides hold rows), as the reference
    p = np.array([pos + 1, n - pos - 1], dtype=np.float64) / n
    split_info = float(-(p * np.log2(p)).sum())
    return gain, split_info, threshold


def _oracle_tree(monkeypatch):
    """A DecisionTree whose numeric split search is `_oracle_numeric_cut`,
    node by node and column by column, on each node's rows in ascending row
    order. At every level it also runs the program's search, which scores
    all the level's nodes at once, and checks that each (node, column) gain,
    split info and threshold are the same to the bit."""
    tree = DecisionTree()

    def numeric_cuts(num, y, order, size, counts, h_parent):
        cuts = []
        starts = np.cumsum(size) - size
        for col in range(len(order)):
            for k, (start, n) in enumerate(zip(starts, size)):
                # each row of `order` holds the node's rows in one block
                idx = np.sort(order[0, start:start + n])
                found = _oracle_numeric_cut(num[idx, col], y[idx], counts[k],
                                            h_parent[k], tree.n_classes)
                if found is not None:
                    cuts.append((k, col, *found))
        got = DecisionTree._numeric_cuts(tree, num, y, order, size, counts,
                                         h_parent)
        assert [(k, c, g.hex(), s.hex(), float(t).hex())
                for k, c, g, s, t in zip(*got)] \
            == [(k, c, g.hex(), s.hex(), float(t).hex())
                for k, c, g, s, t in cuts]
        return tuple(np.array(v, dtype=dtype) for v, dtype in
                     zip(list(zip(*cuts)) or [()] * 5,
                         (int, int, float, float, float)))

    monkeypatch.setattr(tree, "_numeric_cuts", numeric_cuts)
    return tree


def _tree_shape(node):
    """A node and its subtree, with thresholds and error estimates to the
    bit."""
    if node is None:
        return None
    threshold = None if node.threshold is None else \
        float(node.threshold).hex()
    children = None if node.is_leaf else \
        tuple(_tree_shape(child) for child in node.children)
    return (node.kind, node.col, threshold, node.counts.tolist(),
            float(node.est_errors).hex(), children)


@st.composite
def _tree_sets(draw):
    """Small mixed datasets with heavy value ties, constant columns and
    classes that only some rows (or none) hold; either column kind may be
    missing."""
    n_classes = draw(st.integers(2, 10))
    n_num = draw(st.integers(0, 3))
    n_nom = draw(st.integers(0 if n_num else 1, 2))
    n = draw(st.integers(1, 60))
    held = draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                         max_size=n_classes, unique=True))
    labels = draw(st.lists(st.sampled_from(held), min_size=n, max_size=n))
    cols = []
    for _ in range(n_num):
        kind = draw(st.sampled_from(("ties", "ties", "floats", "constant")))
        if kind == "constant":
            cols.append([draw(st.floats(-10.0, 10.0))] * n)
        else:
            value = st.sampled_from((-1.0, -0.0, 0.0, 0.5, 2.0)) \
                if kind == "ties" else st.floats(-1e3, 1e3)
            cols.append(draw(st.lists(value, min_size=n, max_size=n)))
    for _ in range(n_nom):
        symbols = "pqrs"[:draw(st.integers(1, 4))]
        cols.append(draw(st.lists(st.sampled_from(symbols), min_size=n,
                                  max_size=n)))
    specs = [(f"x{j}", "numeric") for j in range(n_num)] \
        + [(f"s{j}", "nominal") for j in range(n_nom)]
    return build_dataset(specs, list(zip(*cols)),
                         [f"k{c}" for c in labels],
                         [f"k{c}" for c in range(n_classes)])


@settings(max_examples=200, deadline=None)
@given(_tree_sets(), st.integers(1, 3), st.booleans())
def test_tree_with_the_scalar_search_grows_the_same_tree(ds, min_leaf, prune):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(batch_learners, "TREE_MIN_LEAF", min_leaf)
        if not prune:
            monkeypatch.setattr(DecisionTree, "_prune", lambda self: None)
        fast = DecisionTree().fit(ds)
        slow = _oracle_tree(monkeypatch).fit(ds)
    assert _tree_shape(fast.root) == _tree_shape(slow.root)


def _assert_children_grow_alone(tree, ds):
    """Each child subtree of `tree`, fitted on ds, is the tree fitted on the
    rows routed to that child alone."""
    stack = [(tree.root, np.arange(len(ds)))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            continue
        if node.kind == "num":
            branch = ds.numeric[rows, node.col] > node.threshold
        else:
            branch = ds.nominal[rows, node.col]
        for b, child in enumerate(node.children):
            if child is not None:
                part = rows[branch == b]
                alone = DecisionTree().fit(ds.subset(part))
                assert _tree_shape(child) == _tree_shape(alone.root)
                stack.append((child, part))


@settings(max_examples=200, deadline=None)
@given(_tree_sets(), st.integers(1, 3))
def test_tree_child_subtree_is_the_tree_of_the_child_rows(ds, min_leaf):
    # A level's split search scores sibling nodes side by side. A run, a
    # class count or a cut that leaked across a node's block would make a
    # child's subtree differ from the tree grown on the child's rows alone.
    with pytest.MonkeyPatch.context() as monkeypatch:
        tree = _unpruned_tree(monkeypatch, min_leaf).fit(ds)
        _assert_children_grow_alone(tree, ds)


def test_tree_sibling_blocks_that_meet_on_a_value_stay_apart(monkeypatch):
    # The root splits on s, and both children are leaves. In the next
    # level's x order the q block (x = 0 only, classes a and b) ends and the
    # p block (all b up to x = 1, then one a) starts on x = 0. A run carried
    # over from q would make p's first run mixed and its cut after x = 0, a
    # non-boundary cut, a candidate: p would split.
    rows = [(0.0, "q"), (1.0, "p"), (0.0, "p"), (0.0, "q"), (0.0, "q"),
            (1.0, "p"), (0.0, "q"), (3.0, "p"), (0.0, "p")]
    labels = ["b", "b", "b", "b", "a", "b", "a", "a", "b"]
    ds = build_dataset([("x", "numeric"), ("s", "nominal")], rows, labels)
    tree = _unpruned_tree(monkeypatch).fit(ds)
    assert tree.root.kind == "nom"
    assert all(child.is_leaf for child in tree.root.children)
    _assert_children_grow_alone(tree, ds)


def _golden_slice(variant, attrs):
    """The 1,500-row NSL-KDD-shaped slice of test_golden.py, prepared as the
    CLI prepares it."""
    path = Path(__file__).parent / "data" / "nsl_s1_head1500.txt.gz"
    raw = load_dataset(path, kdd99_schema())
    return prepare(raw, RunConfig(variant=variant, attrs=attrs))


def test_tree_with_the_scalar_search_grows_the_same_tree_on_the_slice(
        monkeypatch):
    # v3 with every attribute: 13 classes, 34 numeric and 7 nominal columns,
    # thousands of tied values
    ds = _golden_slice("v3", "all")
    monkeypatch.setattr(DecisionTree, "_prune", lambda self: None)
    fast = DecisionTree().fit(ds)
    slow = _oracle_tree(monkeypatch).fit(ds)
    assert fast.n_leaves() >= 20
    assert _tree_shape(fast.root) == _tree_shape(slow.root)


# tracemalloc peak of DecisionTree().fit on the slice, v1 with every
# attribute (34 numeric columns), in KiB: 940 measured with numpy 2.4.6,
# plus 28 % headroom. The same search with int64 orders, labels, run ids and
# running counts peaks at 1,755.
TREE_FIT_PEAK_KIB = 1_200


def test_tree_fit_memory_stays_bounded():
    ds = _golden_slice("v1", "all")
    tracemalloc.start()
    try:
        DecisionTree().fit(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1024 <= TREE_FIT_PEAK_KIB


# --- k-NN -------------------------------------------------------------------


def test_knn_k1_identical_instance_wins():
    ds = build_dataset([("x", "numeric"), ("c", "nominal")],
                       [(0.0, "p"), (5.0, "q"), (9.0, "p")],
                       ["a", "b", "c"])
    model = KNN(1).fit(ds)
    assert predict_labels(model, (5.0, "q")) == ["b"]


def test_knn_three_point_hand_distances():
    ds = build_dataset([("x", "numeric")], [(0.0,), (1.0,), (4.0,)],
                       ["a", "b", "b"])
    model = KNN(3).fit(ds)
    # query 0.5: distances 0.5, 0.5, 3.5 -> votes a=1, b=2
    assert predict_labels(model, (0.5,)) == ["b"]


def test_knn_vote_tie_broken_by_summed_distance():
    ds = build_dataset([("x", "numeric")], [(0.0,), (1.0,)], ["a", "b"])
    model = KNN(2).fit(ds)
    # 0.4: summed distance 0.4 < 0.6; 0.5: a full tie goes to class 0
    assert predict_labels(model, (0.4,), (0.6,), (0.5,)) == ["a", "b", "a"]


def test_knn_neighbor_distance_tie_prefers_lower_index():
    ds = build_dataset([("x", "numeric")], [(0.0,), (0.0,), (0.0,)],
                       ["b", "a", "a"])
    model = KNN(1).fit(ds)
    assert predict_labels(model, (0.0,)) == ["b"]


def test_mixed_distance_of_a_copy_is_exactly_zero():
    # 200 wide-range rows, each twice: the expanded form |q|^2 + |t|^2 - 2q.t
    # left 38 of these self-distances nonzero (up to 4.3e-5)
    rng = np.random.default_rng(0)
    rows = rng.random((200, 10)) * 1000.0
    nom = rng.integers(0, 3, (200, 2)).astype(np.int32)
    t_cols = np.ascontiguousarray(np.hstack([rows.T, rows.T]))
    t_nom = np.ascontiguousarray(np.hstack([nom.T, nom.T]))
    out, buf = np.empty((2, 400))
    for i in range(200):
        dist = mixed_distances(rows[i], nom[i], t_cols, t_nom, out, buf)
        assert dist[i] == 0.0 and dist[200 + i] == 0.0
        assert np.array_equal(dist[:200], dist[200:])


def test_mixed_distance_does_not_depend_on_the_training_rows_beside_it():
    # 12 wide-range columns: numpy's pairwise sum of one row's 12 squares
    # groups them differently from the column-by-column sum, and differs
    # from it in the last bits for some of these rows
    rng = np.random.default_rng(2)
    n, n_num = 300, 12
    rows = rng.random((n, n_num)) * 10.0 ** rng.integers(-3, 5, n_num)
    nom = rng.integers(0, 3, (n, 1)).astype(np.int32)
    t_cols, t_nom = np.ascontiguousarray(rows.T), np.ascontiguousarray(nom.T)
    query = rng.random(n_num) * 10.0 ** rng.integers(-3, 5, n_num)
    together = mixed_distances(query, nom[0], t_cols, t_nom,
                               *np.empty((2, n)))
    alone = [mixed_distances(query, nom[0], t_cols[:, i:i + 1],
                             t_nom[:, i:i + 1], *np.empty((2, 1)))[0]
             for i in range(n)]
    assert together.tobytes() == np.array(alone).tobytes()


def test_mixed_distance_without_numeric_columns_counts_mismatches():
    t_nom = np.array([[0, 1, 2], [1, 1, 0]], dtype=np.int32)
    dist = mixed_distances(np.zeros(0), np.array([1, 1], dtype=np.int32),
                           np.zeros((0, 3)), t_nom, *np.empty((2, 3)))
    assert dist.tolist() == [1.0, 0.0, 2.0]


def test_knn_duplicated_wide_range_rows_tie_to_the_earlier_row():
    rng = np.random.default_rng(1)
    rows = [tuple(r) for r in (rng.random((30, 10)) * 1000.0).tolist()]
    attrs = [(f"x{j}", "numeric") for j in range(10)]
    # each row twice, the earlier copy labeled a and the later one b
    model = KNN(1).fit(build_dataset(attrs, rows + rows,
                                     ["a"] * 30 + ["b"] * 30))
    assert predict_labels(model, *rows) == ["a"] * 30


def test_knn_tie_at_the_kth_distance_goes_to_the_earliest_rows():
    # n rows at distance 1 from the query, the first labeled b, then two
    # copies of the query labeled a and b: the third neighbor is row 0
    for n in range(1, 70):
        xs = [1.0] * n + [0.0, 0.0]
        model = KNN(3).fit(build_dataset([("x", "numeric")],
                                         [(x,) for x in xs],
                                         ["b"] + ["a"] * n + ["b"]))
        assert predict_labels(model, (0.0,)) == ["b"], n


def test_knn_mixed_distance_includes_nominal_mismatch():
    ds = build_dataset([("x", "numeric"), ("c", "nominal")],
                       [(0.0, "p"), (0.8, "q")], ["a", "b"])
    model = KNN(1).fit(ds)
    # query (0.0, "q"): d(a) = 0 + 1 = 1.0; d(b) = 0.8 + 0 = 0.8
    assert predict_labels(model, (0.0, "q")) == ["b"]


def test_knn_k_equal_to_train_size_predicts_majority():
    ds = build_dataset([("x", "numeric")],
                       [(float(i),) for i in range(7)],
                       ["a"] * 4 + ["b"] * 3)
    model = KNN(7).fit(ds)
    assert predict_labels(model, (0.0,), (3.5,), (100.0,)) == ["a"] * 3


def test_knn_k_larger_than_train_errors():
    ds = build_dataset([("x", "numeric")], [(0.0,), (1.0,)], ["a", "b"])
    with pytest.raises(DataError, match="k=3 exceeds training size 2"):
        KNN(3).fit(ds)


# --- MLP --------------------------------------------------------------------


def test_mlp_zero_weights_output_half_and_class_zero(monkeypatch):
    ds = build_dataset([("x", "numeric"), ("y", "numeric")],
                       [(0.2, 0.4), (0.9, 0.1)], ["u", "v"])
    monkeypatch.setattr(batch_learners, "MLP_EPOCHS", 1)
    model = MLP(1).fit(ds)
    h = model.params[0].shape[1]
    model.params = (np.zeros((2, h)), np.zeros(h), np.zeros((h, 2)),
                    np.zeros(2))
    _, out = mlp_forward(model.params, np.array([3.0, -1.0]))
    assert np.allclose(out, 0.5)
    assert predict_labels(model, (3.0, -1.0)) == ["u"]  # tie -> index 0


def _finite_difference_grads(params, x, target, step):
    grads = []
    for p_idx, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = mlp_loss(params, x, target)
            flat[i] = orig - step
            down = mlp_loss(params, x, target)
            flat[i] = orig
            gf[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def test_mlp_gradient_matches_central_differences_2_2_2():
    rng = np.random.default_rng(11)
    params = (rng.normal(size=(2, 2)), rng.normal(size=2),
              rng.normal(size=(2, 2)), rng.normal(size=2))
    x = rng.normal(size=2)
    target = np.array([1.0, 0.0])
    analytic = mlp_gradients(params, x, target)
    numeric = _finite_difference_grads(params, x, target, step=1e-6)
    for a, n in zip(analytic, numeric):
        assert np.abs(a - n).max() / max(np.abs(n).max(), 1.0) < 1e-6


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4),
       st.integers(0, 10_000))
def test_mlp_gradient_check_random_networks(d, h, c, seed):
    rng = np.random.default_rng(seed)
    params = (rng.normal(size=(d, h)), rng.normal(size=h),
              rng.normal(size=(h, c)), rng.normal(size=c))
    x = rng.normal(size=d)
    target = np.zeros(c)
    target[rng.integers(0, c)] = 1.0
    analytic = mlp_gradients(params, x, target)
    numeric = _finite_difference_grads(params, x, target, step=1e-5)
    for a, n in zip(analytic, numeric):
        denom = max(np.abs(n).max(), 1e-3)
        assert np.abs(a - n).max() / denom < 1e-4


def test_mlp_learns_linearly_separable_data(monkeypatch):
    rng = np.random.default_rng(0)
    x = rng.random((120, 2))
    labels = ["pos" if a + b > 1.0 else "neg" for a, b in x]
    ds = build_dataset([("a", "numeric"), ("b", "numeric")],
                       [tuple(map(float, r)) for r in x], labels)
    monkeypatch.setattr(batch_learners, "MLP_EPOCHS", 40)
    model = MLP(1).fit(ds)
    acc = (model.predict_dataset(ds) == ds.labels).mean()
    assert acc > 0.95


def test_mlp_deterministic_with_fixed_seed(monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.random((50, 3))
    labels = ["p" if r[0] > 0.5 else "q" for r in x]
    ds = build_dataset([(f"f{i}", "numeric") for i in range(3)],
                       [tuple(map(float, r)) for r in x], labels)
    monkeypatch.setattr(batch_learners, "MLP_EPOCHS", 5)
    a = MLP(9).fit(ds)
    b = MLP(9).fit(ds)
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa, pb)


# --- linear SVM -------------------------------------------------------------


def _binary(rows, labels):
    return build_dataset([(f"f{i}", "numeric") for i in range(len(rows[0]))],
                         rows, labels, class_labels=("normal", "attack"))


def test_svm_two_separable_points():
    ds = _binary([(0.0,), (1.0,)], ["normal", "attack"])
    model = LinearSVM().fit(ds)
    assert predict_labels(model, (0.0,), (1.0,)) == ["normal", "attack"]
    boundary = -model.b / model.w[0]
    assert 0.0 < boundary < 1.0


def _dual_objective(x, y, alpha):
    k = x @ x.T
    return alpha.sum() - 0.5 * float((alpha * y) @ k @ (alpha * y))


def test_svm_four_point_dual_against_grid_oracle():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    ds = _binary([tuple(r) for r in x],
                 ["normal", "normal", "attack", "attack"])
    model = LinearSVM().fit(ds)

    # brute-force maximization of the dual over a coarse feasible grid
    grid = np.linspace(0.0, 1.0, 11)
    best = -np.inf
    for a0 in grid:
        for a1 in grid:
            for a2 in grid:
                a3 = a0 + a1 - a2  # equality constraint sum(alpha*y) = 0
                if not (0.0 - 1e-12 <= a3 <= 1.0 + 1e-12):
                    continue
                cand = np.array([a0, a1, a2, a3])
                best = max(best, _dual_objective(x, y, cand))

    achieved = _dual_objective(x, y, model.alpha_)
    assert achieved >= best - 1e-6
    assert achieved == pytest.approx(0.5, abs=0.01)  # known optimum
    preds = model.predict_dataset(ds)
    assert np.array_equal(preds, ds.labels)
    assert model.w[0] == pytest.approx(1.0, abs=0.05)
    assert model.w[1] == pytest.approx(0.0, abs=0.05)


def test_svm_zero_decision_value_maps_to_attack():
    ds = _binary([(-1.0,), (1.0,)], ["normal", "attack"])
    model = LinearSVM().fit(ds)
    model.w = np.array([0.0])
    model.b = 0.0
    assert predict_labels(model, (0.0,)) == ["attack"]


def test_svm_requires_two_present_classes():
    missing = build_dataset([("x", "numeric")], [(0.0,), (1.0,)],
                            ["a", "a"], class_labels=("a", "b"))
    with pytest.raises(DataError, match="SVM training fold has no 'b'"):
        LinearSVM().fit(missing)


def test_svm_separates_shifted_clusters():
    rng = np.random.default_rng(4)
    neg = rng.normal(0.0, 0.4, (40, 3))
    pos = rng.normal(3.0, 0.4, (40, 3))
    rows = [tuple(map(float, r)) for r in np.vstack([neg, pos])]
    ds = _binary(rows, ["normal"] * 40 + ["attack"] * 40)
    model = LinearSVM().fit(ds)
    assert (model.predict_dataset(ds) == ds.labels).mean() == 1.0


# --- shared contract ---------------------------------------------------------


def test_pipeline_fits_preprocessing_inside_fold(tiny_mixed_dataset):
    ds = tiny_mixed_dataset
    model = Pipeline(NaiveBayes(), encode=True).fit(ds)
    assert (model.predict_dataset(ds) == ds.labels).all()


def test_pipeline_subsample_reduces_training_set():
    rows = [(float(i),) for i in range(100)]
    labels = ["a"] * 50 + ["b"] * 50
    ds = build_dataset([("x", "numeric")], rows, labels)
    inner = KNN(1)
    Pipeline(inner, subsample=20, seed=1).fit(ds)
    assert len(inner.t_labels) == 20


_SCHEMA_CHECKED = {
    "nb": NaiveBayes,
    "j48": DecisionTree,
    "knn": lambda: KNN(1),
    "pipeline knn": lambda: Pipeline(KNN(1), subsample=4),
    "pipeline mlp": lambda: Pipeline(MLP(1), encode=True),
    "pipeline svm": lambda: Pipeline(LinearSVM(), encode=True),
}


@pytest.mark.parametrize("name", _SCHEMA_CHECKED)
def test_model_rejects_data_coded_against_another_domain(
        domain_swapped_pair, name):
    # the codes of such data name other symbols: predicting it would answer
    # [a, b] for the true labels [b, a]
    train, test = domain_swapped_pair
    model = _SCHEMA_CHECKED[name]().fit(train)
    assert len(model.predict_dataset(train)) == len(train)
    with pytest.raises(ValueError, match="differs from the fitted schema"):
        model.predict_dataset(test)


# --- metamorphic: column order -----------------------------------------------


def _column_orders(seed):
    """(train, query, permuted train, permuted query, k): one seeded set of
    mixed columns, and the same data with its columns in another order."""
    rng = np.random.default_rng(seed)
    n_num, n_nom, n = int(rng.integers(1, 4)), int(rng.integers(0, 3)), 60
    labels = rng.integers(0, 2, n)
    specs = [(f"x{j}", "numeric") for j in range(n_num)] \
        + [(f"s{j}", "nominal") for j in range(n_nom)]
    cols = [rng.normal(labels, 1.0).round(2).tolist() for _ in range(n_num)] \
        + [[f"v{v}" for v in rng.integers(0, 3, n)] for _ in range(n_nom)]
    rows = list(zip(*cols))
    perm = rng.permutation(len(specs))
    names = [f"c{y}" for y in labels]
    sets = []
    for order in (range(len(specs)), perm):
        ds = build_dataset([specs[i] for i in order],
                           [tuple(r[i] for i in order) for r in rows], names)
        sets += [ds.subset(np.arange(40)), ds.subset(np.arange(40, n))]
    return (*sets, int(rng.choice([1, 3, 5])))


# Summing the same terms in another order moves a naive-Bayes log score by a
# few ulps. The k-NN distance adds its squared numeric differences in column
# order, so permuting the columns moves only its last bits in the same way.
ORDER_TOL = 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nb_predictions_do_not_depend_on_column_order(seed):
    train, query, train_p, query_p, _ = _column_orders(seed)
    a, b = NaiveBayes().fit(train), NaiveBayes().fit(train_p)
    sa = a.stats.log_scores(query.numeric, query.nominal)
    sb = b.stats.log_scores(query_p.numeric, query_p.nominal)
    assert np.allclose(sa, sb, rtol=0.0, atol=ORDER_TOL)
    top2 = np.sort(sa, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > ORDER_TOL
    assert clear.any()
    assert np.array_equal(a.predict_dataset(query)[clear],
                          b.predict_dataset(query_p)[clear])


def _sorted_distances(model, query):
    n = len(model.t_labels)
    return np.sort([mixed_distances(q_num, q_nom, model.t_cols, model.t_nom,
                                    *np.empty((2, n)))
                    for q_num, q_nom in zip(query.numeric, query.nominal)],
                   axis=1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_knn_predictions_do_not_depend_on_column_order(seed):
    train, query, train_p, query_p, k = _column_orders(seed)
    a, b = KNN(k).fit(train), KNN(k).fit(train_p)
    da, db = _sorted_distances(a, query), _sorted_distances(b, query_p)
    assert np.allclose(da, db, rtol=0.0, atol=ORDER_TOL)
    clear = da[:, k] - da[:, k - 1] > ORDER_TOL
    assert clear.any()
    assert np.array_equal(a.predict_dataset(query)[clear],
                          b.predict_dataset(query_p)[clear])
