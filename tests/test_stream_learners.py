"""Stream learner behavior: bounds, Hoeffding tree, windowed k-NN, boosting."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nidsbench.stream_learners as stream_learners
from nidsbench.batch_learners import KNN, NaiveBayes, entropy_rows
from nidsbench.cli import RunConfig, load, prepare
from nidsbench.dataset import Attribute, AttributeSchema, Dataset
from nidsbench.evaluation import prequential_run
from nidsbench.nbcore import VARIANCE_FLOOR, ClassConditionalStats
from nidsbench.stream_learners import (
    HoeffdingTree,
    OzaBoost,
    StreamingNaiveBayes,
    StreamModel,
    WindowKNN,
    _HTSplit,
    hoeffding_bound,
    poisson_knuth,
)

from conftest import build_dataset, gen_drift_stream


# --- hoeffding bound ----------------------------------------------------------


def test_hoeffding_bound_closed_form_value():
    # sqrt(1 * ln(1e7) / 2000) evaluated independently = 0.0897721996...
    assert hoeffding_bound(1.0, 1e-7, 1000) == pytest.approx(0.0897721996248235,
                                                             abs=1e-9)


def test_hoeffding_bound_zero_range():
    assert hoeffding_bound(0.0, 1e-7, 50) == 0.0


def test_hoeffding_bound_sqrt_scaling():
    a = hoeffding_bound(1.0, 1e-3, 100)
    b = hoeffding_bound(1.0, 1e-3, 1000)
    assert a / b == pytest.approx(math.sqrt(10.0), rel=1e-12)


@settings(max_examples=40)
@given(st.integers(1, 10_000), st.integers(2, 50))
def test_hoeffding_bound_decreasing_in_n(n, extra):
    eps_n = hoeffding_bound(2.0, 1e-7, n)
    eps_more = hoeffding_bound(2.0, 1e-7, n + extra)
    assert eps_more < eps_n  # a gap that clears eps at n clears it at n' > n


# --- streaming naive Bayes -----------------------------------------------------


def _stream_rows(ds):
    for i in range(len(ds)):
        yield ds.numeric[i], ds.nominal[i], int(ds.labels[i])


def test_streaming_nb_cold_start_predicts_class_zero(tiny_mixed_dataset):
    model = StreamingNaiveBayes(tiny_mixed_dataset.schema)
    num, nom, _ = next(_stream_rows(tiny_mixed_dataset))
    assert model.predict_code(num, nom) == 0


def test_streaming_nb_statistics_equal_batch_exactly(tiny_mixed_dataset):
    ds = tiny_mixed_dataset
    stream = StreamingNaiveBayes(ds.schema)
    for num, nom, y in _stream_rows(ds):
        stream.learn_row(num, nom, y)
    batch = NaiveBayes().fit(ds)
    assert np.array_equal(stream.stats.class_counts, batch.stats.class_counts)
    assert np.array_equal(stream.stats.mean, batch.stats.mean)
    assert np.array_equal(stream.stats.m2, batch.stats.m2)
    for s_counts, b_counts in zip(stream.stats.nominal_counts,
                                  batch.stats.nominal_counts):
        assert np.array_equal(s_counts, b_counts)
    # and the derived quantities agree to far better than 1e-9 relative
    assert np.allclose(stream.stats.variances(), batch.stats.variances(),
                       rtol=1e-12)


def test_streaming_nb_predictions_converge(tiny_mixed_dataset):
    ds = tiny_mixed_dataset
    model = StreamingNaiveBayes(ds.schema)
    for num, nom, y in _stream_rows(ds):
        model.learn_row(num, nom, y)
    batch = NaiveBayes().fit(ds)
    for i in range(len(ds)):
        assert model.predict_code(ds.numeric[i], ds.nominal[i]) == \
            batch.predict_dataset(ds.subset([i]))[0]


def test_streaming_nb_predict_does_not_mutate(tiny_mixed_dataset):
    ds = tiny_mixed_dataset
    model = StreamingNaiveBayes(ds.schema)
    model.learn_row(ds.numeric[0], ds.nominal[0], int(ds.labels[0]))
    before = (model.stats.class_counts.copy(), model.stats.mean.copy(),
              model.stats.m2.copy())
    for _ in range(3):
        model.predict_code(ds.numeric[1], ds.nominal[1])
    assert np.array_equal(before[0], model.stats.class_counts)
    assert np.array_equal(before[1], model.stats.mean)
    assert np.array_equal(before[2], model.stats.m2)


# --- Hoeffding tree -------------------------------------------------------------


def _depth1_concept_stream(n, seed, n_symbols=2):
    """signal nominal attribute determines the class outright."""
    rng = np.random.default_rng(seed)
    signal = rng.integers(0, n_symbols, n).astype(np.int32)
    noise = rng.random(n)
    schema = AttributeSchema(
        (Attribute("signal", "nominal", tuple("abcdef"[:n_symbols])),
         Attribute("noise", "numeric")),
        tuple(f"c{i}" for i in range(n_symbols)),
    )
    from nidsbench.dataset import Dataset
    return Dataset(schema, noise.reshape(-1, 1), signal.reshape(-1, 1),
                   signal.astype(np.int32), "depth-1 concept")


def test_ht_first_instance_predicts_class_zero():
    stream = _depth1_concept_stream(10, 0)
    model = HoeffdingTree(stream.schema)
    assert model.predict_code(stream.numeric[0], stream.nominal[0]) == 0


def test_ht_learns_depth1_concept_and_splits_on_signal():
    stream = _depth1_concept_stream(50_000, 3)
    model = HoeffdingTree(stream.schema)
    trace = prequential_run(stream, model, alpha=0.95)
    assert model.n_splits >= 1
    root = model.root
    assert root.kind == "nom" and root.col == 0  # split on the signal attr
    assert trace.correct[-10_000:].mean() > 0.99


def test_ht_split_carries_startup_distributions():
    stream = _depth1_concept_stream(2_000, 1)
    model = HoeffdingTree(stream.schema)
    for i in range(len(stream)):
        model.learn_row(stream.numeric[i], stream.nominal[i],
                        int(stream.labels[i]))
    # right after a split each child predicts its branch's majority
    assert model.n_splits == 1
    for code in (0, 1):
        row_nom = np.array([code], dtype=np.int32)
        row_num = np.array([0.5])
        assert model.predict_code(row_num, row_nom) == code


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.floats(-1e6, 1e6),
                          st.integers(0, 1)), max_size=80))
def test_stats_total_counts_the_updates(rows):
    schema = AttributeSchema((Attribute("x", "numeric"),
                              Attribute("s", "nominal", ("a", "b"))),
                             ("c0", "c1", "c2"))
    stats = ClassConditionalStats(schema)
    for y, x, code in rows:
        stats.update(np.array([x]), np.array([code], dtype=np.int32), y)
    assert stats.total == int(stats.class_counts.sum()) == len(rows)
    assert type(stats.total) is int


_FOLD_VALUES = (st.sampled_from((0.0, -0.0, 1e300, -1e300, 1.5, -1.5))
                | st.floats(-1e6, 1e6))
# (label, x0, x1, s0, s1): a leaf over n_num <= 2 numeric columns reads the
# first n_num values
_FOLD_ROWS = st.lists(st.tuples(st.integers(0, 2), _FOLD_VALUES, _FOLD_VALUES,
                                st.integers(0, 1), st.integers(0, 2)),
                      min_size=1, max_size=40)


def _fold_schema(n_num):
    return AttributeSchema(
        tuple(Attribute(f"x{j}", "numeric") for j in range(n_num))
        + (Attribute("s0", "nominal", ("a", "b")),
           Attribute("s1", "nominal", ("a", "b", "c"))), ("c0", "c1", "c2"))


@settings(max_examples=200, deadline=None)
@given(_FOLD_ROWS, st.integers(1, 9), st.integers(0, 2))
# three grace periods and a part: a class seen once, ties of 0.0 and -0.0 in
# both columns, and values that overflow the Welford sums
@example([(0, 0.0, -0.0, 0, 0), (2, -0.0, 0.0, 1, 2), (0, 1e300, -0.0, 1, 1),
          (0, -0.0, 1e300, 0, 0), (0, -1e300, 0.0, 0, 2), (0, 0.0, -1e300, 1, 0),
          (0, -0.0, -0.0, 0, 1)], 2, 2)
# a 9-row fold of one column whose last zero is -0.0: numpy's 8-lane min over
# the column returns the earlier 0.0
@example([(0, 1.0, 0.0, 0, 0)] * 6 + [(1, 0.0, 0.0, 1, 1), (0, 1.0, 0.0, 0, 2),
                                      (2, -0.0, 0.0, 1, 0), (1, 0.5, 0.0, 0, 0)],
         9, 1)
# constant columns over several folds, so that a fold starts from warm stats
# whose mean already equals its tail value (1.5, 0.0 and -0.0)
@example([(y, 1.5, (0.0, -0.0)[i % 2], i % 2, i % 3)
          for i, y in enumerate([0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 0, 0])], 3, 2)
# constant tails after varied values: x0 ends in a run of 0.3 that takes
# steps to reach the mean, x1 in a run of signed zeros
@example([(0, x0, x1, 0, 0) for x0, x1 in [(1.0, 4.0), (0.3, -1.0), (0.3, 0.0),
                                            (0.3, -0.0), (0.3, 0.0)]]
         + [(1, 2.0, 5.0, 1, 1), (0, 0.3, -0.0, 1, 2), (0, 0.3, 0.0, 0, 1)],
         4, 2)
def test_ht_leaf_fold_equals_one_update_per_row(rows, grace, n_num):
    schema = _fold_schema(n_num)
    want = ClassConditionalStats(schema)
    vmin, vmax = np.full(n_num, np.inf), np.full(n_num, -np.inf)
    num = np.array([[x0, x1][:n_num] for _, x0, x1, _, _ in rows]).reshape(
        len(rows), n_num)
    nom = np.array([[s0, s1] for *_, s0, s1 in rows], dtype=np.int32)
    labels = np.array([y for y, *_ in rows])
    # +-1e300 sums overflow to inf, then nan
    with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(all="ignore"):
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", grace)
        leaf = stream_learners._HTLeaf(schema)
        for i, y in enumerate(labels.tolist()):
            if leaf.learn(i, y):
                leaf.fold(num, nom, labels)
            assert len(leaf.pending) < grace
            want.update(num[i], nom[i], y)
            np.minimum(vmin, num[i], out=vmin)
            np.maximum(vmax, num[i], out=vmax)
            assert leaf.majority == int(want.class_counts.argmax())
        if leaf.pending:
            leaf.fold(num, nom, labels)
    got = leaf.stats
    assert type(got.total) is int and got.total == want.total == len(rows)
    for a, b in [(got.class_counts, want.class_counts),
                 (np.array(leaf.class_counts), want.class_counts),
                 (got.mean, want.mean), (got.m2, want.m2), (leaf.vmin, vmin),
                 (leaf.vmax, vmax), *zip(got.nominal_counts,
                                         want.nominal_counts)]:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())


def test_ht_fed_through_one_refilled_row_buffer_equals_fresh_rows(
        monkeypatch):
    # a leaf refers to a call's arrays only during the call: each learn_row
    # folds its row before it returns, so refilling the buffer changes
    # nothing the tree keeps
    ds = _threshold_stream(2, 3_000)
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    fresh, refilled = HoeffdingTree(ds.schema), HoeffdingTree(ds.schema)
    num_buf = np.empty(ds.numeric.shape[1])
    nom_buf = np.empty(ds.nominal.shape[1], dtype=ds.nominal.dtype)
    for num, nom, y in _stream_rows(ds):
        num_buf[:], nom_buf[:] = num, nom
        assert fresh.predict_code(num, nom) \
            == refilled.predict_code(num_buf, nom_buf)
        fresh.learn_row(num.copy(), nom.copy(), y)
        refilled.learn_row(num_buf, nom_buf, y)
    assert fresh.n_splits == refilled.n_splits >= 3
    assert _tree_shape(fresh.root) == _tree_shape(refilled.root)


def test_ht_child_total_counts_only_its_routed_rows():
    # a numeric split hands each child a fractional startup distribution;
    # the grace period must count the rows the child observed, not that mass
    rng = np.random.default_rng(5)
    x = rng.random(5_000)
    schema = AttributeSchema((Attribute("x", "numeric"),), ("lo", "hi"))
    model = HoeffdingTree(schema)
    rows = iter(zip(x.reshape(-1, 1), (x > 0.5).astype(int).tolist()))
    nom = np.zeros(0, dtype=np.int32)
    for num, y in rows:
        model.learn_row(num, nom, y)
        if model.n_splits:
            break
    children = model.root.children
    assert all(leaf.stats.total == 0 and not leaf.pending
               for leaf in children)
    routed = [0, 0]

    def learn_next():
        num, y = next(rows)
        routed[children.index(_walk(model, num, nom)[0])] += 1
        model.learn_row(num, nom, y)

    for _ in range(150):
        learn_next()
    assert model.n_splits == 1
    for leaf, n in zip(children, routed):
        # each learn_row folds its row before it returns
        assert leaf.stats.total == n and not leaf.pending
        assert leaf.stats.total == int(leaf.stats.class_counts.sum())
        assert sum(leaf.class_counts) > n  # the startup mass on top
    assert any(not float(c).is_integer()
               for leaf in children for c in leaf.class_counts)
    # on this stream a child splits at its first attempt, which comes with
    # its HT_GRACE_PERIOD-th routed row
    while model.n_splits == 1:
        learn_next()
    split = [isinstance(node, _HTSplit) for node in model.root.children]
    assert split.count(True) == 1
    assert routed[split.index(True)] == stream_learners.HT_GRACE_PERIOD


def test_ht_numeric_split_learns_threshold_concept():
    rng = np.random.default_rng(8)
    x = rng.random(30_000)
    labels = (x > 0.5).astype(np.int32)
    schema = AttributeSchema((Attribute("x", "numeric"),), ("lo", "hi"))
    from nidsbench.dataset import Dataset
    stream = Dataset(schema, x.reshape(-1, 1),
                     np.zeros((len(x), 0), dtype=np.int32), labels)
    model = HoeffdingTree(stream.schema)
    trace = prequential_run(stream, model, 0.95)
    assert model.n_splits >= 1
    assert trace.correct[-5_000:].mean() > 0.95


def test_ht_predict_does_not_mutate():
    stream = _depth1_concept_stream(500, 2)
    model = HoeffdingTree(stream.schema)
    for i in range(300):
        model.learn_row(stream.numeric[i], stream.nominal[i],
                        int(stream.labels[i]))
    leaf_counts_before = model.root.class_counts.copy() \
        if hasattr(model.root, "class_counts") else None
    splits_before = model.n_splits
    for i in range(300, 400):
        model.predict_code(stream.numeric[i], stream.nominal[i])
    assert model.n_splits == splits_before
    if leaf_counts_before is not None:
        assert np.array_equal(model.root.class_counts, leaf_counts_before)


def test_ht_grace_period_batches_split_checks(monkeypatch):
    stream = _depth1_concept_stream(399, 4)
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 400)
    model = HoeffdingTree(stream.schema)
    for i in range(len(stream)):
        model.learn_row(stream.numeric[i], stream.nominal[i],
                        int(stream.labels[i]))
    assert model.n_splits == 0  # evaluation never ran below the grace period


def _mixed_stream(seed, n, n_classes, n_num, domain_sizes):
    """Seeded stream: class-shifted numeric columns rounded to force ties,
    uniform nominal codes, and a skewed class mix that may leave classes
    unseen."""
    rng = np.random.default_rng(seed)
    attrs = tuple(Attribute(f"x{j}", "numeric") for j in range(n_num)) + tuple(
        Attribute(f"s{j}", "nominal", tuple(f"v{k}" for k in range(d)))
        for j, d in enumerate(domain_sizes))
    schema = AttributeSchema(attrs, tuple(f"c{k}" for k in range(n_classes)))
    labels = rng.choice(n_classes, n, p=rng.dirichlet(np.full(n_classes, 0.5)))
    numeric = rng.normal(labels[:, None], 1.0, (n, n_num)).round(
        int(rng.integers(0, 3)))
    nominal = rng.integers(0, np.array(domain_sizes, dtype=np.int64),
                           (n, len(domain_sizes)))
    return Dataset(schema, numeric, nominal.astype(np.int32),
                   labels.astype(np.int32), "mixed stream")


_MIXED_STREAMS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
                      n_classes=st.integers(2, 4), n_num=st.integers(0, 3),
                      domain_sizes=st.lists(st.integers(1, 4), max_size=2))


@settings(max_examples=25, deadline=None)
@given(**_MIXED_STREAMS)
def test_ht_unsplit_majority_leaf_predicts_running_majority(
        seed, n, n_classes, n_num, domain_sizes):
    # Metamorphic: below the grace period a majority-leaf tree is a
    # majority-class learner; ties go to the lowest class index.
    ds = _mixed_stream(seed, n, n_classes, n_num, domain_sizes)
    ht = HoeffdingTree(ds.schema)
    counts = [0] * n_classes
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", n + 1)
        for i in range(n):
            num, nom, y = ds.numeric[i], ds.nominal[i], int(ds.labels[i])
            assert ht.predict_code(num, nom) == counts.index(max(counts))
            ht.learn_row(num, nom, y)
            counts[y] += 1
    assert ht.n_splits == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5)), min_size=2, max_size=5)
       .flatmap(lambda startup: st.tuples(
           st.just(startup),
           st.lists(st.integers(0, len(startup) - 1), max_size=30))))
def test_ht_leaf_majority_is_the_first_maximum(case):
    # fractional, often tied startup masses, as a split hands its children
    startup, labels = case
    schema = AttributeSchema((Attribute("x", "numeric"),),
                             tuple(f"c{k}" for k in range(len(startup))))
    leaf = stream_learners._HTLeaf(schema, np.array(startup))
    assert leaf.majority == int(np.argmax(startup))
    for y in labels:
        leaf.learn(0, y)
        assert leaf.majority == int(np.argmax(leaf.class_counts))


# --- Hoeffding-tree numeric split search ---------------------------------------


def _oracle_numeric_candidates(tree, leaf):
    """The documented split search, one column, cut and class at a time.

    Cut i of b is lo + i * (hi - lo) / (b + 1) on a column whose observed
    min and max are finite and differ; an observed class c sends
    n_c * (1 + erf((t - mu_c) / (sigma_c * sqrt 2))) / 2 to the left, or
    n_c when mu_c <= t if its variance is at the floor; a cut with an empty
    side is skipped; a column offers its first cut of the highest gain.
    """
    counts = leaf.stats.class_counts
    n_total = counts.sum()
    parent_h = float(entropy_rows(counts[None])[0])
    bins = stream_learners.HT_NUMERIC_BINS
    var = leaf.stats.variances()
    found = []
    for col in range(len(leaf.vmin)):
        lo, hi = leaf.vmin[col], leaf.vmax[col]
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            continue
        best = None
        for i in range(1, bins + 1):
            t = lo + i * (hi - lo) / (bins + 1)
            left = np.zeros(tree.n_classes)
            for c in range(tree.n_classes):
                if counts[c] == 0:
                    continue
                mu, sigma = leaf.stats.mean[c, col], math.sqrt(var[c, col])
                if sigma > math.sqrt(VARIANCE_FLOOR):
                    frac = 0.5 * (1.0 + math.erf((t - mu)
                                                 / (sigma * math.sqrt(2))))
                else:
                    frac = 1.0 if mu <= t else 0.0
                left[c] = counts[c] * frac
            right = counts - left
            nl, nr = left.sum(), right.sum()
            if nl <= 0 or nr <= 0:
                continue
            dists = np.vstack([left, right])
            h_left, h_right = entropy_rows(dists)
            gain = parent_h - float(nl / n_total * h_left
                                    + nr / n_total * h_right)
            if best is None or gain > best[0]:
                best = (gain, ("num", col, t, dists))
        if best is not None:
            found.append(best)
    return found


def _leaf_state(counts, mean, m2, vmin, vmax):
    """A tree and a leaf holding the given statistics ((C, cols) arrays).

    The arrays are written directly, so the instance count is set to match:
    `_attempt_split` reads it for the Hoeffding bound."""
    mean = np.asarray(mean, dtype=float)
    n_classes, n_num = mean.shape
    schema = AttributeSchema(
        tuple(Attribute(f"x{j}", "numeric") for j in range(n_num)),
        tuple(f"c{k}" for k in range(n_classes)))
    tree = HoeffdingTree(schema)
    tree.root = leaf = stream_learners._HTLeaf(schema,
                                               np.array(counts, dtype=float))
    leaf.stats.class_counts[:] = counts
    leaf.stats.total = int(sum(counts))
    leaf.stats.mean[:] = mean
    leaf.stats.m2[:] = m2
    leaf.vmin[:] = vmin
    leaf.vmax[:] = vmax
    return tree, leaf


def _bits(candidate):
    """A candidate with its floats as bytes, to compare bit for bit."""
    gain, (kind, col, t, dists) = candidate
    return (np.float64(gain).tobytes(), kind, col, np.float64(t).tobytes(),
            dists.shape, dists.tobytes())


def _assert_same_candidates(got, want):
    assert [_bits(c) for c in got] == [_bits(c) for c in want]


_GRID = (-1.0, 0.0, 0.25, 0.5, 1.0, 3.0)


@st.composite
def _leaf_states(draw):
    """(tree, leaf, bin count): a leaf state and an HT_NUMERIC_BINS to
    search it with."""
    n_classes = draw(st.integers(2, 5))
    n_num = draw(st.integers(1, 4))
    value = st.sampled_from(_GRID) | st.floats(-5.0, 5.0)
    counts = draw(st.lists(st.sampled_from((0, 1, 3, 40)) | st.integers(0, 500),
                           min_size=n_classes, max_size=n_classes)
                  .filter(any))
    mean = [[draw(value) for _ in range(n_num)] for _ in range(n_classes)]
    # m2 0 puts a class's variance at the floor (the step branch)
    m2 = [[draw(st.sampled_from((0.0, 1e-12)) | st.floats(1e-3, 1e3))
           for _ in range(n_num)] for _ in range(n_classes)]
    vmin, vmax = [], []
    for _ in range(n_num):
        lo = draw(value)
        kind = draw(st.sampled_from(("range", "range", "constant", "unseen")))
        if kind == "unseen":
            lo, hi = math.inf, -math.inf
        elif kind == "constant":
            hi = lo
        else:
            hi = lo + draw(st.sampled_from((0.5, 1.0, 4.0)) | st.floats(1e-6, 10.0))
        vmin.append(lo)
        vmax.append(hi)
    return (*_leaf_state(counts, mean, m2, vmin, vmax),
            draw(st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(_leaf_states())
def test_ht_numeric_candidates_equal_the_scalar_formula(state):
    tree, leaf, bins = state
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream_learners, "HT_NUMERIC_BINS", bins)
        _assert_same_candidates(tree._numeric_candidates(leaf),
                                _oracle_numeric_candidates(tree, leaf))


# each case: the `_leaf_state` arguments (class counts, (class, column)
# means and M2, column minima and maxima), then the columns that must offer
# a candidate
_SPLIT_CASES = {
    "constant column skipped": (
        ([5, 5], [[2.0, 0.0], [2.0, 1.0]], [[1.0, 2.0], [1.0, 2.0]],
         [2.0, 0.0], [2.0, 1.0]), [1]),
    "class at the variance floor": (
        ([6, 9], [[0.3, 0.2], [0.6, 0.8]], [[0.0, 0.0], [2.0, 0.0]],
         [0.0, 0.0], [1.0, 1.0]), [0, 1]),
    "class never seen": (
        ([10, 0, 4], [[0.2, 1.0], [0.0, 0.0], [0.7, 3.0]],
         [[1.0, 5.0], [0.0, 0.0], [2.0, 1.0]], [0.0, 0.0], [1.0, 4.0]),
        [0, 1]),
    "every cut one-sided": (
        ([4, 7], [[1.0, 0.5], [1.0, 0.5]], [[0.0, 3.0], [0.0, 3.0]],
         [0.0, 0.0], [1.0, 1.0]), [1]),
    "equal cuts": (
        ([8, 8], [[0.1, 0.5], [0.9, 0.5]], [[0.0, 4.0], [0.0, 4.0]],
         [0.0, 0.0], [1.0, 1.0]), [0, 1]),
    "equal columns": (
        ([3, 5], [[0.2, 0.2], [0.7, 0.7]], [[0.5, 0.5], [0.4, 0.4]],
         [0.0, 0.0], [1.0, 1.0]), [0, 1]),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_ht_numeric_candidates_edge_cases(case):
    state, cols = _SPLIT_CASES[case]
    tree, leaf = _leaf_state(*state)
    got = tree._numeric_candidates(leaf)
    _assert_same_candidates(got, _oracle_numeric_candidates(tree, leaf))
    assert [c for _, (_, c, _, _) in got] == cols


def test_ht_numeric_candidate_ties_go_to_first_cut_and_lower_column():
    # both classes sit at the variance floor at 0.1 and 0.9, so every cut
    # in between separates them: cuts 2..9 of 10 all reach the full gain
    tree, leaf = _leaf_state(*_SPLIT_CASES["equal cuts"][0])
    (gain, (_, col, t, _)), _ = tree._numeric_candidates(leaf)
    assert (col, t, gain) == (0, 2 / 11, 1.0)
    # two identical columns tie on every cut; the stable sort of the
    # candidates splits on the lower column
    tree, leaf = _leaf_state([2_000, 2_000], [[0.2, 0.2], [0.7, 0.7]],
                             [[500.0, 500.0], [400.0, 400.0]],
                             [0.0, 0.0], [1.0, 1.0])
    (g0, (_, c0, _, _)), (g1, (_, c1, _, _)) = tree._numeric_candidates(leaf)
    assert (c0, c1) == (0, 1) and g0 == g1 > 0.0
    tree._attempt_split(leaf, None, None)
    assert tree.n_splits == 1 and tree.root.col == 0


def _tree_shape(node):
    if isinstance(node, _HTSplit):
        return (node.kind, node.col, np.float64(node.threshold).tobytes()
                if node.threshold is not None else None,
                tuple(_tree_shape(child) for child in node.children))
    assert node.majority == int(np.argmax(node.class_counts))
    return np.array(node.class_counts).tobytes()


def _threshold_stream(seed, n):
    """Four classes set by nested thresholds on x0 and x1 (5 % label noise);
    x2 and the nominal attribute carry no signal."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3)).round(2)
    labels = (x[:, 0] > 0.5) + 2 * (x[:, 1] > np.where(x[:, 0] > 0.5, 0.3, 0.7))
    noise = rng.random(n) < 0.05
    labels[noise] = rng.integers(0, 4, noise.sum())
    schema = AttributeSchema(
        tuple(Attribute(f"x{j}", "numeric") for j in range(3))
        + (Attribute("s", "nominal", ("a", "b", "c")),), tuple("abcd"))
    return Dataset(schema, x, rng.integers(0, 3, (n, 1)).astype(np.int32),
                   labels.astype(np.int32), "threshold stream")


def test_ht_with_the_scalar_search_grows_the_same_tree(monkeypatch):
    ds = _threshold_stream(1, 6_000)
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    fast = HoeffdingTree(ds.schema)
    slow = HoeffdingTree(ds.schema)
    monkeypatch.setattr(slow, "_numeric_candidates",
                        lambda leaf: _oracle_numeric_candidates(slow, leaf))
    for num, nom, y in _stream_rows(ds):
        assert fast.predict_code(num, nom) == slow.predict_code(num, nom)
        fast.learn_row(num, nom, y)
        slow.learn_row(num, nom, y)
    assert fast.n_splits == slow.n_splits >= 3
    assert _tree_shape(fast.root) == _tree_shape(slow.root)


@settings(max_examples=60, deadline=None)
@given(**_MIXED_STREAMS)
def test_ht_candidate_gains_are_at_most_the_class_entropy(
        seed, n, n_classes, n_num, domain_sizes):
    # what makes the skip exact: no gain the search computes, nominal or
    # numeric, exceeds the entropy of the leaf's class counts
    ds = _mixed_stream(seed, n, n_classes, n_num, domain_sizes)
    tree = HoeffdingTree(ds.schema)
    leaf = tree.root
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", n)
        assert [leaf.learn(i, y) for i, y in enumerate(ds.labels.tolist())][-1]
    leaf.fold(ds.numeric, ds.nominal, ds.labels)
    h = entropy_rows(leaf.stats.class_counts[None])[0]
    for gain, _ in (tree._nominal_candidates(leaf)
                    + tree._numeric_candidates(leaf)):
        assert gain <= h


KDD_SLICE = Path(__file__).resolve().parent / "data" / "kdd99_s1_head5000.data.gz"


@pytest.mark.parametrize("stream", ["threshold", "kdd99"])
@pytest.mark.parametrize("algo", ["ht", "ozaboost"])
def test_ht_without_the_skip_grows_the_same_tree(monkeypatch, algo, stream):
    # the skip returns only where the search and the split test would
    # return: with it turned off the same trees grow, and the same traces
    if stream == "threshold":
        ds = _threshold_stream(1, 6_000)
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    else:
        ds = prepare(load(KDD_SLICE)[0],
                     RunConfig(data=str(KDD_SLICE), variant="v2", algo="ht"))
    skip = stream_learners._cannot_split
    skipped = []

    def counted(counts, eps):
        skipped.append(skip(counts, eps))
        return skipped[-1]

    def run():
        model = HoeffdingTree(ds.schema) if algo == "ht" \
            else OzaBoost(ds.schema, 1)
        trace = prequential_run(ds, model, 0.95)
        trees = [model] if algo == "ht" else model.members
        return ([trace.correct.tobytes(), trace.faded.tobytes()],
                [(t.n_splits, _tree_shape(t.root)) for t in trees])

    monkeypatch.setattr(stream_learners, "_cannot_split", counted)
    with_skip = run()
    monkeypatch.setattr(stream_learners, "_cannot_split", lambda c, e: False)
    assert run() == with_skip
    # the streams exercise the skip, and splits too
    assert any(skipped) and not all(skipped)
    assert sum(n for n, _ in with_skip[1]) >= 2


# --- windowed k-NN --------------------------------------------------------------


def test_wknn_single_slot_window_predicts_previous_label(tiny_mixed_dataset,
                                                         monkeypatch):
    ds = tiny_mixed_dataset
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 1)
    model = WindowKNN(ds.schema, 1)
    assert model.predict_code(ds.numeric[0], ds.nominal[0]) == 0  # empty
    prev = None
    for num, nom, y in zip(ds.numeric, ds.nominal, ds.labels):
        if prev is not None:
            assert model.predict_code(num, nom) == prev
        model.learn_row(num, nom, int(y))
        prev = int(y)


def test_wknn_evicts_oldest_instance(monkeypatch):
    ds = build_dataset([("x", "numeric")],
                       [(0.0,), (100.0,), (101.0,)],
                       ["a", "b", "b"])
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 2)
    model = WindowKNN(ds.schema, 1)
    for num, nom, y in zip(ds.numeric, ds.nominal, ds.labels):
        model.learn_row(num, nom, int(y))
    # the a-instance at x=0 was evicted; nearest remaining is b
    assert model.predict_code(np.array([0.0]), np.zeros(0, dtype=np.int32)) == 1
    assert model.size == 2


def test_wknn_state_never_exceeds_window(monkeypatch):
    rng = np.random.default_rng(0)
    schema = AttributeSchema((Attribute("x", "numeric"),), ("a", "b"))
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 5)
    model = WindowKNN(schema, 3)
    for i in range(50):
        model.learn_row(np.array([rng.random()]), np.zeros(0, dtype=np.int32),
                        int(rng.integers(0, 2)))
        assert model.size <= 5


def test_wknn_evicts_the_oldest_instance_of_a_repeated_row(monkeypatch):
    # a window of 3 on four rows, one of them repeated under new labels;
    # with k = 1 a query reads the label of its nearest instance, the older
    # one of equal distances. After each learn, the predictions for the
    # queries 0, 10 and 30 show which instances are still in the window.
    schema = AttributeSchema((Attribute("x", "numeric"),), tuple("abcdefg"))
    no_nom = np.zeros(0, dtype=np.int32)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 3)
    model = WindowKNN(schema, 1)
    stream = [0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 30.0]
    expected = [
        "aaa",  # 0/a
        "abb",  # 0/a 10/b
        "abb",  # 0/a 10/b 0/c
        "cbd",  # 10/b 0/c 20/d: the older copy of 0 went first
        "ccd",  # 0/c 20/d 0/e: 10 is gone, its equals tie to the oldest
        "edf",  # 20/d 0/e 30/f
        "eef",  # 0/e 30/f 30/g
    ]
    got = []
    for label, x in enumerate(stream):
        model.learn_row(np.array([x]), no_nom, label)
        got.append("".join(
            schema.class_labels[model.predict_code(np.array([q]), no_nom)]
            for q in (0.0, 10.0, 30.0)))
        assert model.size == min(label + 1, 3)
    assert got == expected


def test_wknn_duplicated_rows_tie_to_the_older_instance(monkeypatch):
    rng = np.random.default_rng(4)
    rows = rng.random((4, 10)) * 1000.0
    schema = AttributeSchema(
        tuple(Attribute(f"x{j}", "numeric") for j in range(10)),
        tuple("abcdefg"))
    no_nom = np.zeros(0, dtype=np.int32)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 5)
    model = WindowKNN(schema, 1)
    # rows 0, 1, 2 then their copies, then row 3: the window wraps and holds
    # r2/c, r0/d, r1/e, r2/f, r3/g, with r2/f stored in a lower ring slot
    # than r2/c
    for label, r in enumerate((0, 1, 2, 0, 1, 2, 3)):
        model.learn_row(rows[r], no_nom, label)
    assert [model.predict_code(rows[r], no_nom) for r in range(4)] \
        == [3, 4, 2, 6]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wknn_holding_every_row_predicts_like_batch_knn(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 30)), int(rng.choice([1, 3, 5]))
    k = min(k, n)
    # n training rows, then 10 more queries; few distinct values, so that
    # distances tie often
    m = n + 10
    rows = list(zip(rng.integers(0, 4, m).astype(float).tolist(),
                    (rng.integers(0, 3, m) * 333.3).tolist(),
                    [f"v{v}" for v in rng.integers(0, 2, m)]))
    queries = build_dataset([("x", "numeric"), ("y", "numeric"),
                             ("c", "nominal")], rows,
                            [f"c{y}" for y in rng.integers(0, 3, m)],
                            ("c0", "c1", "c2"))
    train = queries.subset(np.arange(n))
    batch = KNN(k).fit(train)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_learners, "WKNN_WINDOW", n + int(rng.integers(0, 3)))
        window = WindowKNN(train.schema, k)
    for num, nom, y in zip(train.numeric, train.nominal, train.labels):
        window.learn_row(num, nom, int(y))
    assert [window.predict_code(num, nom)
            for num, nom in zip(queries.numeric, queries.nominal)] \
        == batch.predict_dataset(queries).tolist()


# few values, so that rows repeat, under conflicting labels too; 0.0,
# -0.0 and 1e-170 (whose square underflows to 0.0) make rows with different
# bytes at distance 0
_WINDOW_VALUES = st.sampled_from([0.0, -0.0, 1e-170, 1.0, 2.5])
_WINDOW_ROWS = st.lists(st.tuples(_WINDOW_VALUES, _WINDOW_VALUES,
                                  st.integers(0, 1), st.integers(0, 2)),
                        min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 5]), st.integers(1, 8), _WINDOW_ROWS)
# evictions of copies under conflicting labels
@example(3, 4, [(1.0, 0.0, 0, 0), (1.0, 0.0, 0, 1)] * 3
         + [(2.5, 0.0, 1, 2)] * 3)
# 0.0 and -0.0: two rows, two entries, the same distances
@example(1, 3, [(0.0, 1.0, 0, 1), (-0.0, 1.0, 0, 0), (0.0, 1.0, 0, 2),
                (-0.0, 1.0, 0, 0), (0.0, 2.5, 1, 1)])
# a full window of two distinct rows against k = 5
@example(5, 6, [(0.0, 0.0, 0, 0), (2.5, 1.0, 1, 1), (0.0, 0.0, 0, 2)] * 4)
# the last query's own row has k instances in the window, but an older
# instance of another row lies at distance 0 too and wins the vote: -0.0
# against 0.0, then 1e-170 against 0.0
@example(1, 4, [(-0.0, 1.0, 0, 0), (0.0, 1.0, 0, 1), (0.0, 1.0, 0, 1)])
@example(3, 8, [(-0.0, 2.5, 1, 0)] * 2 + [(0.0, 2.5, 1, 2)] * 4)
@example(1, 4, [(1e-170, 1.0, 0, 0), (0.0, 1.0, 0, 1), (0.0, 1.0, 0, 1)])
# a row with an infinity, learned through learn_row, is not at distance 0
# from itself: its own copies score NaN and the finite row is nearest,
# before and after the window of 3 drops the first finite instance
@example(1, 3, [(1.0, 0.0, 0, 1), (math.inf, 0.0, 0, 0),
                (math.inf, 0.0, 0, 2), (1.0, 0.0, 0, 1),
                (math.inf, 0.0, 0, 0)])
def test_wknn_predicts_like_batch_knn_fitted_on_its_window(k, window, rows):
    # at every step, the window predicts what a batch k-NN fitted on the
    # live window, oldest first, predicts; with fewer instances than k,
    # every instance is a neighbor
    stream = Dataset(
        AttributeSchema((Attribute("x", "numeric"), Attribute("y", "numeric"),
                         Attribute("c", "nominal", ("u", "v"))),
                        ("c0", "c1", "c2")),
        np.array([r[:2] for r in rows], dtype=np.float64),
        np.array([r[2:3] for r in rows], dtype=np.int32),
        np.array([r[3] for r in rows], dtype=np.int32))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_learners, "WKNN_WINDOW", window)
        model = WindowKNN(stream.schema, k)
    for i, (num, nom, y) in enumerate(zip(stream.numeric, stream.nominal,
                                          stream.labels)):
        live = np.arange(max(0, i - window), i)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN
            expected = 0 if i == 0 else int(
                KNN(min(k, len(live))).fit(stream.subset(live))
                .predict_dataset(stream.subset([i]))[0])
            assert model.predict_code(num, nom) == expected, i
        model.learn_row(num, nom, int(y))


# --- OzaBoost --------------------------------------------------------------------


class _FixedModel(HoeffdingTree):
    """Spy member: a one-leaf tree that predicts a fixed class and counts
    the learns the boosting loop asks of it, learning none of them."""

    def __init__(self, schema, fixed_code):
        super().__init__(schema)
        self.root.majority = fixed_code
        self.learn_calls = 0

    def _learn(self, route, num, nom, labels, i, y):
        self.learn_calls += 1
        return route


def _two_class_schema():
    return AttributeSchema((Attribute("x", "numeric"),), ("c0", "c1"))


def _boost(schema, seed, members):
    """OzaBoost(schema, seed) built with `members` in place of its
    BOOST_MEMBERS Hoeffding trees."""
    given = iter(members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_learners, "BOOST_MEMBERS", len(members))
        mp.setattr(stream_learners, "HoeffdingTree", lambda _: next(given))
        return OzaBoost(schema, seed)


def test_ozaboost_single_step_lambda_update():
    schema = _two_class_schema()
    spies = [_FixedModel(schema, fixed_code=0) for _ in range(2)]
    boost = _boost(schema, 1, spies)
    # label 0: member 1 correct -> sc 0->1, lambda 1 -> 1*(1+0)/(2*1) = 0.5
    # member 2 also correct -> sc 0->0.5, lambda 0.5 -> 0.5*(0.5)/(2*0.5)=0.25
    boost.learn_row(np.array([0.0]), np.zeros(0, dtype=np.int32), 0)
    assert boost.lam_sc.tolist() == [1.0, 0.5]
    assert boost.lam_sw.tolist() == [0.0, 0.0]

    # label 1: both wrong -> sw gets the lambda, lambda grows
    boost.learn_row(np.array([0.0]), np.zeros(0, dtype=np.int32), 1)
    assert boost.lam_sw[0] == 1.0
    # lambda into member 2 = 1 * (sc+sw)/(2*sw) = (1+1)/(2*1) = 1.0
    assert boost.lam_sw[1] == pytest.approx(1.0)


def test_ozaboost_member_one_mass_equals_steps():
    schema = _two_class_schema()
    rng = np.random.default_rng(3)
    boost = _boost(schema, 2, [_FixedModel(schema, int(rng.integers(0, 2)))
                               for _ in range(4)])
    n = 137
    for i in range(n):
        boost.learn_row(np.array([float(i)]), np.zeros(0, dtype=np.int32),
                        int(rng.integers(0, 2)))
    assert boost.lam_sc[0] + boost.lam_sw[0] == pytest.approx(n)


def test_ozaboost_lambda_mass_conservation_against_replay():
    """Each member's sc+sw must equal the lambda mass routed to it, and its
    learns the Poisson(lambda) draws of the seeded generator, replayed by an
    independent simulation of the update rule."""
    schema = _two_class_schema()
    spies = [_FixedModel(schema, m % 2) for m in range(3)]
    boost = _boost(schema, 5, spies)
    rng = np.random.default_rng(10)
    n_steps = 200
    labels = rng.integers(0, 2, n_steps)

    exp_sc = [0.0, 0.0, 0.0]
    exp_sw = [0.0, 0.0, 0.0]
    routed = [0.0, 0.0, 0.0]
    learns = [0, 0, 0]
    uniform = stream_learners.uniform_draws(np.random.default_rng(5))
    for y in labels:
        lam = 1.0
        for m in range(3):
            routed[m] += lam
            learns[m] += poisson_knuth(lam, uniform)
            correct = (m % 2) == y  # member m always predicts m % 2
            if correct:
                exp_sc[m] += lam
                lam *= (exp_sc[m] + exp_sw[m]) / (2 * exp_sc[m])
            else:
                exp_sw[m] += lam
                lam *= (exp_sc[m] + exp_sw[m]) / (2 * exp_sw[m])

    for y in labels:
        boost.learn_row(np.array([0.0]), np.zeros(0, dtype=np.int32), int(y))

    for m in range(3):
        assert boost.lam_sc[m] == pytest.approx(exp_sc[m], rel=1e-12)
        assert boost.lam_sw[m] == pytest.approx(exp_sw[m], rel=1e-12)
        assert boost.lam_sc[m] + boost.lam_sw[m] == pytest.approx(
            routed[m], rel=1e-12)
    assert [spy.learn_calls for spy in spies] == learns


def test_ozaboost_single_member_equals_member_vote():
    schema = _two_class_schema()
    boost = _boost(schema, 1, [_FixedModel(schema, 1)])
    num = np.array([0.0])
    nom = np.zeros(0, dtype=np.int32)
    assert boost.predict_code(num, nom) == 0  # no mass yet -> class 0
    boost.learn_row(num, nom, 1)
    assert boost.predict_code(num, nom) == 1


def test_ozaboost_weighted_vote_prefers_accurate_members():
    schema = _two_class_schema()
    boost = _boost(schema, 1, [_FixedModel(schema, m) for m in range(2)])
    num = np.array([0.0])
    nom = np.zeros(0, dtype=np.int32)
    for _ in range(20):
        boost.learn_row(num, nom, 0)  # member 0 always right, member 1 wrong
    weights = boost.member_weights()
    assert weights[0] > 0 > weights[1]
    assert boost.predict_code(num, nom) == 0


def test_ozaboost_votes_zero_before_any_row_and_finite_weights_after_one():
    stream = _depth1_concept_stream(300, 3)
    boost = OzaBoost(stream.schema, 1)
    num, nom = stream.numeric, stream.nominal
    assert boost.predict_code(num[0], nom[0]) == 0  # every weight is 0
    boost.learn_row(num[0], nom[0], int(stream.labels[0]))
    assert np.isfinite(boost.member_weights()).all()
    for i in range(1, len(stream)):
        boost.learn_row(num[i], nom[i], int(stream.labels[i]))
    # the same bits as the guarded form for members without mass
    mass = boost.lam_sc + boost.lam_sw
    eps = np.clip(np.divide(boost.lam_sw, mass, out=np.zeros_like(mass),
                            where=mass > 0), 1e-10, 1.0 - 1e-10)
    guarded = np.where(mass > 0, np.log((1.0 - eps) / eps), 0.0)
    assert np.array_equal(boost.member_weights(), guarded)


def test_ozaboost_deterministic_with_seed():
    stream = gen_drift_stream(2_000, 1_000, seed=4)

    def run():
        model = _boost(stream.schema, 7,
                       [HoeffdingTree(stream.schema) for _ in range(3)])
        trace = prequential_run(stream, model, 0.95)
        return trace.correct.copy(), model.lam_sc.copy(), model.lam_sw.copy()

    c1, sc1, sw1 = run()
    c2, sc2, sw2 = run()
    assert np.array_equal(c1, c2)
    assert np.array_equal(sc1, sc2)
    assert np.array_equal(sw1, sw2)


def test_ozaboost_on_stationary_concept_beats_cold_start():
    stream = _depth1_concept_stream(5_000, 9)
    model = _boost(stream.schema, 1,
                   [HoeffdingTree(stream.schema) for _ in range(5)])
    trace = prequential_run(stream, model, 0.95)
    assert trace.correct[-1_000:].mean() > 0.98


# --- the learners' own prequential loops -----------------------------------------


def _split_stream(seed, n):
    """Four classes: the nominal attribute gives classes 0 and 1 outright,
    and under its third value a cut of x0 tells 2 from 3 (5 % label noise),
    so trees split on both kinds of attribute."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2)).round(2)
    s = rng.integers(0, 3, n)
    labels = np.where(s < 2, s, 2 + (x[:, 0] > 0.5))
    noise = rng.random(n) < 0.05
    labels[noise] = rng.integers(0, 4, noise.sum())
    schema = AttributeSchema(
        (Attribute("x0", "numeric"), Attribute("x1", "numeric"),
         Attribute("s", "nominal", ("a", "b", "c"))), tuple("abcd"))
    return Dataset(schema, x, s.reshape(-1, 1).astype(np.int32),
                   labels.astype(np.int32), "split stream")


def _ht_state(tree):
    """A Hoeffding tree bit for bit: its splits, and each leaf's counts,
    majority, statistics, ranges and pending rows."""
    def state(node):
        if isinstance(node, _HTSplit):
            return (node.kind, node.col, np.float64(node.threshold).tobytes(),
                    tuple(state(child) for child in node.children))
        stats = node.stats
        arrays = [np.array(node.class_counts), stats.class_counts,
                  stats.mean, stats.m2, *stats.nominal_counts, node.vmin,
                  node.vmax]
        return (node.majority, stats.total, tuple(node.pending),
                tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays))
    return tree.n_splits, state(tree.root)


def _model_state(model):
    if isinstance(model, OzaBoost):
        return ([_ht_state(m) for m in model.members], model.lam_sc.tobytes(),
                model.lam_sw.tobytes(), model._weights)
    return _ht_state(model)


def _walk(tree, num_row, nom_row):
    """The (leaf, parent split, slot) one row reaches, walked node by node
    with Python floats and ints."""
    x, s = num_row.tolist(), nom_row.tolist()
    node, parent, slot = tree.root, None, None
    while isinstance(node, _HTSplit):
        branch = (0 if x[node.col] <= node.threshold else 1) \
            if node.kind == "num" else s[node.col]
        node, parent, slot = node.children[branch], node, branch
    return node, parent, slot


def _ht_leaves(node):
    if isinstance(node, _HTSplit):
        for child in node.children:
            yield from _ht_leaves(child)
    else:
        yield node


def _new_model(algo, schema, seed):
    return HoeffdingTree(schema) if algo == "ht" else OzaBoost(schema, seed)


def _oracle_learn_row(boost, num_row, nom_row, label_code):
    """OzaBoost's boosting update of one row, member by member through the
    members' `learn_row` and `predict_code` (Oza & Russell, AISTATS 2001):
    the reference the boosting loop is checked against."""
    sc, sw = boost.lam_sc, boost.lam_sw
    lam = 1.0
    for i, member in enumerate(boost.members):
        for _ in range(poisson_knuth(lam, boost._uniform)):
            member.learn_row(num_row, nom_row, label_code)
        if member.predict_code(num_row, nom_row) == label_code:
            sc[i] += lam
            lam *= (sc[i] + sw[i]) / (2.0 * sc[i])
        else:
            sw[i] += lam
            lam *= (sc[i] + sw[i]) / (2.0 * sw[i])
    boost._weights = boost.member_weights().tolist()


def _per_row_runs(algo, schema, seed, num, nom, labels):
    """The codes and `_model_state` of a fresh model fed the stream row by
    row: through `predict_code` and `learn_row`, one-row calls of its own
    loop, and for OzaBoost also through `_oracle_learn_row`."""
    model = _new_model(algo, schema, seed)
    runs = [(StreamModel.prequential_codes(model, num, nom, labels),
             _model_state(model))]
    if algo == "ozaboost":
        oracle = OzaBoost(schema, seed)
        codes = []
        for i, y in enumerate(labels.tolist()):
            codes.append(oracle.predict_code(num[i], nom[i]))
            _oracle_learn_row(oracle, num[i], nom[i], y)
        runs.append((codes, _model_state(oracle)))
    return runs


def _kinds(tree):
    """The kinds of a tree's splits."""
    nodes, kinds = [tree.root], []
    while nodes:
        node = nodes.pop()
        if isinstance(node, _HTSplit):
            kinds.append(node.kind)
            nodes += node.children
    return kinds


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algo", ["ht", "ozaboost"])
def test_own_loop_equals_the_per_row_loop(monkeypatch, algo, seed):
    ds = _split_stream(seed, 2_500)
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    args = ds.numeric, ds.nominal, ds.labels
    own = _new_model(algo, ds.schema, seed)
    got = own.prequential_codes(*args), _model_state(own)
    for run in _per_row_runs(algo, ds.schema, seed, *args):
        assert run == got
    # the streams split on both kinds of attribute
    trees = own.members if algo == "ozaboost" else [own]
    assert {"num", "nom"} <= {k for tree in trees for k in _kinds(tree)}


_BLOCK = stream_learners.ROUTE_BLOCK


@pytest.mark.parametrize("m", [1, 777, 1_234, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("algo", ["ht", "ozaboost"])
def test_own_loop_on_two_halves_equals_one_call(monkeypatch, algo, m):
    # a cut at the routing block's bound, or next to it, splits a block
    # across the calls or starts the second call on a block's bound
    ds = _split_stream(4, max(2_000, m + 500))
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    num, nom, labels = ds.numeric, ds.nominal, ds.labels
    whole = _new_model(algo, ds.schema, 4)
    want = whole.prequential_codes(num, nom, labels)
    halves = _new_model(algo, ds.schema, 4)
    first = num[:m].copy(), nom[:m].copy(), labels[:m].copy()
    codes = halves.prequential_codes(*first)
    # the first call ends mid-grace-period: some leaf has folded rows short
    # of a split attempt, and none keeps pending rows
    trees = halves.members if algo == "ozaboost" else [halves]
    leaves = [leaf for tree in trees for leaf in _ht_leaves(tree.root)]
    assert any(leaf.stats.total % stream_learners.HT_GRACE_PERIOD
               for leaf in leaves)
    assert not any(leaf.pending for leaf in leaves)
    # no model refers to the first call's arrays after it returns
    first[0][:] = np.nan
    first[1][:] = 0
    first[2][:] = 0
    codes += halves.prequential_codes(num[m:], nom[m:], labels[m:])
    assert codes == want
    assert _model_state(halves) == _model_state(whole)


def test_ozaboost_member_learns_on_after_a_split(monkeypatch):
    # a member whose leaf splits part way through its Poisson-weighted
    # learns of a row learns the rest of them in the child the row reaches
    ds = _split_stream(5, 2_500)
    monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", 50)
    args = ds.numeric, ds.nominal, ds.labels
    runs = _per_row_runs("ozaboost", ds.schema, 5, *args)
    learn, attempt = stream_learners._HTLeaf.learn, HoeffdingTree._attempt_split
    events = []

    def logged_learn(leaf, i, y):
        events.append(("learn", leaf, i))
        return learn(leaf, i, y)

    def logged_attempt(tree, leaf, parent, slot):
        split = attempt(tree, leaf, parent, slot)
        if split:
            node = tree.root if parent is None else parent.children[slot]
            events.append(("split", node.children, events[-1][2]))
        return split

    monkeypatch.setattr(stream_learners._HTLeaf, "learn", logged_learn)
    monkeypatch.setattr(HoeffdingTree, "_attempt_split", logged_attempt)
    own = OzaBoost(ds.schema, 5)
    got = own.prequential_codes(*args), _model_state(own)
    for run in runs:
        assert run == got
    assert any(kind == "split" and after == "learn" and leaf in children
               and i == j for (kind, children, i), (after, leaf, j)
               in zip(events, events[1:]))


@settings(max_examples=20, deadline=None)
@given(grace=st.integers(2, 12), **_MIXED_STREAMS)
# few drawn streams split a member; in these members split 3-5 times, on
# numeric columns only, nominal ones only, a 4-class stream and both kinds
@example(grace=5, seed=2, n=120, n_classes=2, n_num=3, domain_sizes=[])
@example(grace=5, seed=2, n=120, n_classes=2, n_num=0, domain_sizes=[4, 4])
@example(grace=2, seed=3, n=120, n_classes=4, n_num=1, domain_sizes=[])
@example(grace=2, seed=2, n=120, n_classes=2, n_num=1, domain_sizes=[3])
def test_ozaboost_loop_equals_its_per_row_forms(grace, seed, n, n_classes,
                                                n_num, domain_sizes):
    # numeric-only, nominal-only and attribute-free schemas, up to 4 classes
    ds = _mixed_stream(seed, n, n_classes, n_num, domain_sizes)
    args = ds.numeric, ds.nominal, ds.labels
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", grace)
        own = OzaBoost(ds.schema, seed)
        got = own.prequential_codes(*args), _model_state(own)
        for run in _per_row_runs("ozaboost", ds.schema, seed, *args):
            assert run == got


# x0 and x1 values: the cuts of [0, 1] a root split takes (its equal-width
# cuts k / 11), the doubles next to them, signed zeros and NaN
_ROUTE_VALUES = tuple(v for k in range(12)
                      for v in (k / 11, math.nextafter(k / 11, -math.inf),
                                math.nextafter(k / 11, math.inf))) \
    + (-0.0, math.nan)
# (x0, x1, s): s takes codes 0-2 of a 4-value domain
_ROUTE_ROWS = st.lists(st.tuples(st.sampled_from(_ROUTE_VALUES),
                                 st.sampled_from(_ROUTE_VALUES),
                                 st.integers(0, 2)), min_size=60,
                       max_size=300)


def _route_stream(rows):
    """Class s for s = 0 and s = 1; under s = 2, class 1 when x0 > 0.5, so
    trees split on both kinds of attribute."""
    x = np.array([[x0, x1] for x0, x1, _ in rows])
    s = np.array([[code] for *_, code in rows], dtype=np.int32)
    labels = np.where(s[:, 0] < 2, s[:, 0], x[:, 0] > 0.5)
    return x, s, labels.astype(np.int32)


@settings(max_examples=60, deadline=None)
@given(_ROUTE_ROWS, st.sampled_from(["ht", "ozaboost"]), st.integers(5, 20),
       st.integers(1, 12))
def test_block_routes_equal_a_walk_row_by_row(rows, algo, grace, block):
    schema = AttributeSchema(
        (Attribute("x0", "numeric"), Attribute("x1", "numeric"),
         Attribute("s", "nominal", ("a", "b", "c", "d"))), ("no", "yes"))
    route = HoeffdingTree._route

    def checked_route(tree, num, nom, routed):
        # every routing, of a block, of the rows after a split in it, of a
        # row after a split or of predict_code's row, reaches the leaves,
        # parents and slots a walk row by row reaches
        got = route(tree, num, nom, routed)
        assert got == [_walk(tree, num[i], nom[i]) for i in routed.tolist()]
        return got

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream_learners, "HT_GRACE_PERIOD", grace)
        monkeypatch.setattr(stream_learners, "ROUTE_BLOCK", block)
        monkeypatch.setattr(HoeffdingTree, "_route", checked_route)
        model = _new_model(algo, schema, 1)
        model.prequential_codes(*_route_stream(rows))
        # a second call over rows at, just below and just above each
        # threshold of the trees, signed zeros and NaN, with every code,
        # the one no row had so far included
        trees = model.members if algo == "ozaboost" else [model]
        values = [0.0, -0.0, math.nan]
        for tree in trees:
            nodes = [tree.root]
            while nodes:
                node = nodes.pop()
                if isinstance(node, _HTSplit):
                    nodes += node.children
                    if node.kind == "num":
                        t = node.threshold
                        values += [t, math.nextafter(t, -math.inf),
                                   math.nextafter(t, math.inf)]
        # each value in each column, with each code
        probes = [(x0, x1, code) for x0, x1 in zip(values, values[::-1])
                  for code in range(4)]
        x, s, labels = _route_stream(probes)
        model.prequential_codes(x, s, labels)
        for tree in trees:
            for num_row, nom_row in zip(x, s):
                assert tree.predict_code(num_row, nom_row) \
                    == _walk(tree, num_row, nom_row)[0].majority


# --- poisson sampler -------------------------------------------------------------


def test_uniform_draws_are_the_generators_doubles_in_order():
    draw = stream_learners.uniform_draws(np.random.default_rng(3))
    rng = np.random.default_rng(3)
    n = 2 * stream_learners.UNIFORM_BLOCK + 5
    assert [draw() for _ in range(n)] == [rng.random() for _ in range(n)]


def test_poisson_knuth_cap_and_zero():
    rng = np.random.default_rng(0)
    assert poisson_knuth(0.0, rng.random) == 0
    assert poisson_knuth(-1.0, rng.random) == 0
    draws = [poisson_knuth(1e9, rng.random) for _ in range(50)]
    assert set(draws) == {stream_learners.POISSON_CAP}


def test_poisson_knuth_mean_and_determinism():
    rng = np.random.default_rng(42)
    draws = [poisson_knuth(2.0, rng.random) for _ in range(20_000)]
    assert np.mean(draws) == pytest.approx(2.0, abs=0.05)
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    a = [poisson_knuth(1.5, rng_a.random) for _ in range(100)]
    b = [poisson_knuth(1.5, rng_b.random) for _ in range(100)]
    assert a == b

