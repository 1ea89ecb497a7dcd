"""Folds, cross-validation, prequential traces, metrics, drift annotation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidsbench.batch_learners import BatchModel
from nidsbench.cli import RunConfig, load, make_stream_model, prepare
import nidsbench.stream_learners as stream_learners
from nidsbench.dataset import Attribute, AttributeSchema, DataError, Dataset
from nidsbench.evaluation import (
    ConfusionMatrix,
    PrequentialTrace,
    annotate_drifts,
    assign_stratified_folds,
    cross_validate,
    faded_update,
    metrics,
    prequential_run,
    write_confusion_csv,
    write_trace_csv,
)
from nidsbench.stream_learners import StreamingNaiveBayes, StreamModel, \
    WindowKNN, _HTSplit

from conftest import assert_same_dataset, build_dataset, gen_drift_stream


# --- stratified folds ---------------------------------------------------------


@settings(max_examples=40)
@given(st.data())
def test_fold_partition_and_proportionality(data):
    n = data.draw(st.integers(6, 120))
    n_classes = data.draw(st.integers(1, 4))
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                         min_size=n, max_size=n)))
    f = data.draw(st.integers(2, min(6, n)))
    assignment = assign_stratified_folds(labels, f, seed=1)
    assert len(assignment) == n
    assert set(assignment) <= set(range(f))
    sizes = np.bincount(assignment, minlength=f)
    assert sizes.max() - sizes.min() <= 1
    for c in np.unique(labels):
        per_fold = np.bincount(assignment[labels == c], minlength=f)
        assert per_fold.max() - per_fold.min() <= 1


def test_fold_sizes_for_nsl_kdd_shape():
    labels = np.zeros(125_973, dtype=np.int64)
    labels[:60_000] = 1
    labels[60_000:60_100] = 2
    sizes = np.bincount(assign_stratified_folds(labels, 10, seed=1))
    assert sorted(set(sizes.tolist())) == [12_597, 12_598]
    assert (sizes == 12_598).sum() == 3


def _round_robin_folds(labels, n_folds, seed):
    """The fold plan written out one instance at a time: shuffle each class,
    classes in code order, and deal with one pointer across all of them."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int32)
    cursor = 0
    for c in np.unique(labels):
        for i in rng.permutation(np.flatnonzero(labels == c)):
            assignment[i] = cursor % n_folds
            cursor += 1
    return assignment


@pytest.mark.parametrize("labels, n_folds", [
    (np.zeros(2, dtype=np.int32), 2),
    (np.array([3, 0, 3, 1, 3, 0, 2]), 7),
    (np.array([1, 0, 1, 1, 0, 2, 2, 1, 0, 2, 1]), 3),
    (np.random.default_rng(5).integers(0, 5, 6_299), 10),
    (np.repeat([0, 1, 2, 3, 4], [67_343, 45_927, 11_656, 995, 52]), 10),
])
def test_fold_plan_is_the_round_robin_deal(labels, n_folds):
    for seed in (1, 7):
        assert np.array_equal(assign_stratified_folds(labels, n_folds, seed),
                              _round_robin_folds(labels, n_folds, seed))


def test_fold_errors():
    with pytest.raises(DataError, match="5 folds exceed 3 instances"):
        assign_stratified_folds(np.zeros(3, dtype=int), 5, seed=1)


def test_fold_plan_deterministic(tiny_mixed_dataset):
    a = assign_stratified_folds(tiny_mixed_dataset.labels, 2, seed=3)
    b = assign_stratified_folds(tiny_mixed_dataset.labels, 2, seed=3)
    assert np.array_equal(a, b)


# --- cross validation -----------------------------------------------------------


class _Memorizer(BatchModel):
    """Oracle that memorizes feature->label pairs from training and, for the
    test folds of a consistent dataset, looks the answer up from the full
    dataset handed to the constructor."""

    def __init__(self, full):
        super().__init__()
        self.full = full

    def _fit(self, train):
        pass

    def predict_dataset(self, ds):
        key = {float(x): int(y) for x, y in zip(self.full.numeric[:, 0],
                                                self.full.labels)}
        return np.array([key[float(x)] for x in ds.numeric[:, 0]])


class _Constant(BatchModel):
    def _fit(self, train):
        self.code = int(np.bincount(train.labels).argmax())

    def predict_dataset(self, ds):
        return np.full(len(ds), self.code, dtype=np.int64)


def _unique_dataset(n, n_classes=3):
    labels = [f"c{i % n_classes}" for i in range(n)]
    return build_dataset([("uid", "numeric")],
                         [(float(i),) for i in range(n)], labels)


def test_cv_perfect_oracle_scores_one():
    ds = _unique_dataset(30)
    cm = cross_validate(ds, lambda: _Memorizer(ds), 5, seed=1)
    assert cm.accuracy == 1.0
    assert cm.error == 0.0
    assert cm.total == 30


def test_cv_constant_classifier_scores_majority_frequency():
    labels = ["a"] * 70 + ["b"] * 30
    ds = build_dataset([("x", "numeric")],
                       [(float(i),) for i in range(100)], labels)
    res = cross_validate(ds, _Constant, 10, seed=1)
    assert res.accuracy == pytest.approx(0.70)


def test_cv_calls_factory_once_per_fold_and_keeps_test_out_of_fit():
    ds = _unique_dataset(40)
    seen_train = []

    class _Spy(BatchModel):
        def _fit(self, train):
            seen_train.append(set(train.numeric[:, 0].tolist()))

        def predict_dataset(self, inner):
            return np.zeros(len(inner), dtype=np.int64)

    folds = 8
    cross_validate(ds, _Spy, folds, seed=2)
    assert len(seen_train) == folds
    plan = assign_stratified_folds(ds.labels, folds, seed=2)
    for fold, train_ids in enumerate(seen_train):
        test_ids = set(ds.numeric[plan == fold, 0].tolist())
        assert not (train_ids & test_ids)
        assert train_ids | test_ids == set(ds.numeric[:, 0].tolist())


@pytest.mark.parametrize("code, message", [
    (3, "instance 8: .* 3 outside"), (-1, "instance 8: .* -1 outside"),
    (0.5, "dtype float64, not integers")])
def test_cv_rejects_a_code_outside_the_classes(code, message):
    ds = _unique_dataset(30)

    class _OneBad(BatchModel):
        """Predicts `code` for the eighth row and class 0 for the rest."""

        def _fit(self, train):
            pass

        def predict_dataset(self, inner):
            return np.where(inner.numeric[:, 0] == 7.0, code, 0)

    with pytest.raises(ValueError, match=message):
        cross_validate(ds, _OneBad, 5, seed=1)


# --- faded accuracy --------------------------------------------------------------


def test_faded_update_base_case():
    assert faded_update(0.0, 0.0, 1, 0.95) == (1.0, 1.0, 1.0)


def test_faded_update_two_step_example():
    s, b, acc = faded_update(1.0, 1.0, 0, 0.95)
    assert (s, b) == (0.95, 1.95)
    assert acc == pytest.approx(0.48718, abs=1e-5)


def test_faded_all_correct_fixed_point():
    s = b = 0.0
    for _ in range(50):
        s, b, acc = faded_update(s, b, 1, 0.7)
        assert acc == 1.0


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_faded_alpha_one_equals_running_mean(outcomes):
    s = b = 0.0
    for i, a in enumerate(outcomes, start=1):
        s, b, acc = faded_update(s, b, a, 1.0)
        assert acc == pytest.approx(sum(outcomes[:i]) / i, rel=1e-12)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200),
       st.floats(0.05, 1.0))
def test_faded_is_convex_combination_of_outcomes(outcomes, alpha):
    s = b = 0.0
    for i, a in enumerate(outcomes, start=1):
        s, b, acc = faded_update(s, b, a, alpha)
        assert min(outcomes[:i]) - 1e-12 <= acc <= max(outcomes[:i]) + 1e-12


# --- prequential runs -------------------------------------------------------------


class _LabelEcho(StreamModel):
    """Predicts the class encoded in the first nominal attribute."""

    def predict_code(self, num_row, nom_row):
        return int(nom_row[0])

    def learn_row(self, num_row, nom_row, label_code):
        pass


class _Always(StreamModel):
    def __init__(self, schema, code):
        super().__init__(schema)
        self.code = code
        self.calls = []

    def predict_code(self, num_row, nom_row):
        self.calls.append("predict")
        return self.code

    def learn_row(self, num_row, nom_row, label_code):
        self.calls.append("learn")


def test_prequential_all_correct_series():
    stream = gen_drift_stream(500, 499, seed=1).subset(np.arange(499))
    model = _LabelEcho(stream.schema)
    trace = prequential_run(stream, model, 0.95)
    assert trace.correct.all()
    assert (trace.faded == 1.0).all()
    assert (trace.cumulative == 1.0).all()
    assert trace.confusion.accuracy == 1.0


def test_prequential_two_step_faded_example():
    ds = build_dataset([("x", "numeric")], [(0.0,), (1.0,)], ["c0", "c1"])
    model = _Always(ds.schema, code=0)  # correct then incorrect
    trace = prequential_run(ds, model, 0.95)
    assert trace.correct.tolist() == [1, 0]
    assert trace.faded[1] == pytest.approx(0.48718, abs=1e-5)
    assert trace.cumulative.tolist() == [1.0, 0.5]


def test_prequential_is_predict_then_train():
    ds = build_dataset([("x", "numeric")], [(float(i),) for i in range(6)],
                       ["a", "b"] * 3)
    model = _Always(ds.schema, code=0)
    prequential_run(ds, model, 0.9)
    assert model.calls == ["predict", "learn"] * 6


def test_prequential_trace_replay_is_bit_exact(monkeypatch):
    stream = gen_drift_stream(3_000, 1_500, seed=2)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 100)
    model = WindowKNN(stream.schema, 3)
    trace = prequential_run(stream, model, 0.95)
    s = b = 0.0
    replay = np.zeros(len(trace))
    for i, a in enumerate(trace.correct):
        s, b, replay[i] = faded_update(s, b, int(a), trace.alpha)
    assert np.array_equal(replay, trace.faded)


def test_prequential_confusion_totals(monkeypatch):
    stream = gen_drift_stream(400, 200, seed=3)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 50)
    model = WindowKNN(stream.schema, 1)
    trace = prequential_run(stream, model, 0.95)
    assert trace.confusion.total == 400
    assert trace.confusion.accuracy == pytest.approx(trace.cumulative[-1])


def test_prequential_rejects_stream_coded_against_another_domain(
        domain_swapped_pair):
    # the stream's codes name other symbols than the model's: running it
    # would answer [a, b] for the true labels [b, a] without an error
    train, test = domain_swapped_pair
    model = StreamingNaiveBayes(train.schema)
    prequential_run(train, model, 0.95)
    with pytest.raises(ValueError, match="differs from the model's schema"):
        prequential_run(test, model, 0.95)


def _prequential_oracle(stream, model, alpha):
    """The per-row bookkeeping that `prequential_run` derives after its loop,
    kept as its reference: (correct, faded, cumulative, confusion counts)."""
    n = len(stream)
    c = len(stream.schema.class_labels)
    correct = np.zeros(n, dtype=np.uint8)
    faded = np.zeros(n)
    cumulative = np.zeros(n)
    counts = np.zeros((c, c), dtype=np.int64)
    num, nom, labels = stream.numeric, stream.nominal, stream.labels
    s = b = 0.0
    right = 0
    for i in range(n):
        y = int(labels[i])
        pred = model.predict_code(num[i], nom[i])
        a = 1 if pred == y else 0
        correct[i] = a
        right += a
        s, b, faded[i] = faded_update(s, b, a, alpha)
        cumulative[i] = right / (i + 1)
        counts[y, pred] += 1
        model.learn_row(num[i], nom[i], y)
    return correct, faded, cumulative, counts


class _Scripted(StreamModel):
    """Predicts the given codes in turn, one per learned row."""

    def __init__(self, schema, codes):
        super().__init__(schema)
        self.codes = list(codes)
        self.learned = 0

    def predict_code(self, num_row, nom_row):
        return self.codes[self.learned]

    def learn_row(self, num_row, nom_row, label_code):
        self.learned += 1


def _labeled_stream(labels, n_classes):
    """A one-attribute stream with the given class codes."""
    schema = AttributeSchema((Attribute("x", "numeric"),),
                             tuple(f"c{k}" for k in range(n_classes)))
    n = len(labels)
    return Dataset(schema, np.zeros((n, 1)), np.zeros((n, 0), dtype=np.int32),
                   np.asarray(labels, dtype=np.int32), "scripted")


def _assert_run_equals_oracle(labels, preds, n_classes, alpha):
    stream = _labeled_stream(labels, n_classes)
    trace = prequential_run(stream, _Scripted(stream.schema, preds), alpha)
    want = _prequential_oracle(stream, _Scripted(stream.schema, preds), alpha)
    got = (trace.correct, trace.faded, trace.cumulative,
           trace.confusion.counts)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prequential_run_equals_the_per_row_loop(data):
    n_classes = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 300))
    codes = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    labels, preds = data.draw(codes), data.draw(codes)
    alpha = data.draw(st.just(1.0) | st.floats(1e-6, 1.0))
    _assert_run_equals_oracle(labels, preds, n_classes, alpha)


def test_prequential_run_equals_the_per_row_loop_at_stream_scale():
    # more rows than the stream-ht corpus (98,804), so every cumulative
    # quotient of that size is checked; the model is right in bursts
    rng = np.random.default_rng(11)
    n = 100_003
    labels = rng.integers(0, 5, n)
    wrong = np.repeat(rng.random(n // 100 + 1) < 0.3, 100)[:n]
    preds = np.where(wrong & (rng.random(n) < 0.8), (labels + 1) % 5, labels)
    _assert_run_equals_oracle(labels, preds.tolist(), 5, 0.95)


KDD_SLICE = Path(__file__).resolve().parent / "data" / "kdd99_s1_head5000.data.gz"


@pytest.fixture(scope="module")
def kdd_slice():
    """The 5,000-row KDD99-shaped slice of test_golden.py, as loaded."""
    return load(KDD_SLICE)[0]


def _ht_leaves(node):
    if isinstance(node, _HTSplit):
        for child in node.children:
            yield from _ht_leaves(child)
    else:
        yield node


@pytest.mark.parametrize("algo", ["snb", "ht", "wknn", "ozaboost"])
def test_prequential_prefix_trace_is_the_full_trace_prefix(kdd_slice, algo):
    # prequential evaluation is causal: row i's prediction depends on rows
    # before it alone. Prefixes are taken from the prepared stream, since a
    # prefix file would shrink the nominal domains (naive Bayes' Laplace
    # denominators) and the wknn normalizer's warm-up rows.
    cfg = RunConfig(data=str(KDD_SLICE), variant="v2", algo=algo)
    ds = prepare(kdd_slice, cfg)
    full = prequential_run(ds, make_stream_model(ds.schema, cfg), cfg.alpha)
    for m in (1, 777, 2_500):
        model = make_stream_model(ds.schema, cfg)
        part = prequential_run(ds.subset(np.arange(m)), model, cfg.alpha)
        for name in ("correct", "faded", "cumulative"):
            assert getattr(part, name).tobytes() \
                == getattr(full, name)[:m].tobytes(), (m, name)
        if m == 777 and algo in ("ht", "ozaboost"):
            # the run ends between folds: some leaf still holds rows
            trees = model.members if algo == "ozaboost" else [model]
            assert any(leaf.held for tree in trees
                       for leaf in _ht_leaves(tree.root))


@pytest.mark.parametrize("code, message", [
    (2, "instance 3: .* 2 outside"), (-1, "instance 3: .* -1 outside"),
    (0.5, "dtype float64, not integers")])
def test_prequential_rejects_a_code_outside_the_classes(code, message):
    stream = _labeled_stream([0, 1, 1, 0], 2)
    model = _Scripted(stream.schema, [0, 1, code, code])
    with pytest.raises(ValueError, match=message):
        prequential_run(stream, model, 0.95)


# --- metrics ----------------------------------------------------------------------


def test_metrics_examples():
    diag = ConfusionMatrix(("a", "b"), np.array([[10, 0], [0, 5]]))
    m = metrics(diag)
    assert m.accuracy == 1.0 and m.error == 0.0

    cm = ConfusionMatrix(("a", "b"), np.array([[50, 10], [5, 35]]))
    m = metrics(cm)
    assert m.accuracy == pytest.approx(0.85)
    assert m.error == pytest.approx(0.15)
    assert m.precision[0] == pytest.approx(50 / 55)
    assert m.recall[0] == pytest.approx(50 / 60)


def test_metrics_zero_division_defaults_to_zero():
    cm = ConfusionMatrix(("a", "b"), np.array([[10, 0], [4, 0]]))
    m = metrics(cm)
    assert m.precision[1] == 0.0
    assert m.recall[1] == 0.0


def test_metrics_paper_ratio():
    cm = ConfusionMatrix(("a", "b"),
                         np.array([[124_109, 0], [1_864, 0]]))
    assert metrics(cm).accuracy * 100 == pytest.approx(98.52, abs=0.01)


# --- drift annotation --------------------------------------------------------------


def _trace_from_faded(faded):
    n = len(faded)
    return PrequentialTrace(0.95, np.ones(n, dtype=np.uint8),
                            np.asarray(faded, dtype=float), np.ones(n),
                            ConfusionMatrix(("a",), np.array([[n]])))


def test_annotate_constant_trace_is_empty():
    assert annotate_drifts(_trace_from_faded(np.full(5_000, 0.97))) == []


def test_annotate_flags_single_dip_at_minimum():
    faded = np.full(4_000, 0.99)
    faded[2_000:2_200] = np.linspace(0.99, 0.60, 200)
    faded[2_200:2_400] = np.linspace(0.60, 0.99, 200)
    ann = annotate_drifts(_trace_from_faded(faded))
    assert len(ann) == 1
    assert abs(ann[0] - 2_200) <= 5  # 1-based index of the minimum


def test_annotate_merges_nearby_wobbles():
    faded = np.full(4_000, 0.99)
    faded[1_000:1_050] = 0.90
    faded[1_100:1_150] = 0.88
    ann = annotate_drifts(_trace_from_faded(faded))
    assert len(ann) == 1


def test_annotate_output_sorted_with_window_spacing():
    faded = np.full(8_000, 0.99)
    faded[2_000:2_050] = 0.80
    faded[5_000:5_050] = 0.75
    ann = annotate_drifts(_trace_from_faded(faded))
    assert ann == sorted(ann)
    assert len(ann) == 2
    assert ann[1] - ann[0] > 500


def test_annotate_synthetic_switch_detected_within_window(monkeypatch):
    stream = gen_drift_stream(8_000, 4_000, seed=7)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 500)
    model = WindowKNN(stream.schema, 3)
    trace = prequential_run(stream, model, 0.95)
    ann = annotate_drifts(trace)
    assert len(ann) == 1
    assert abs(ann[0] - 4_001) <= 500  # switch first affects instance 4001


# --- synthetic drift stream (the conftest fixture) ----------------------------------


def test_gen_drift_stream_deterministic():
    a = gen_drift_stream(1_000, 400, seed=5)
    b = gen_drift_stream(1_000, 400, seed=5)
    assert_same_dataset(a, b)


def test_gen_drift_stream_concept_inversion():
    ds = gen_drift_stream(1_000, 400, seed=6)
    signal = ds.nominal[:, 0]
    labels = ds.labels
    assert (labels[:400] == signal[:400]).all()      # concept A
    assert (labels[400:] == 1 - signal[400:]).all()  # concept B inverted


def test_gen_drift_stream_validates_switch():
    with pytest.raises(ValueError):
        gen_drift_stream(10, 0, seed=1)
    with pytest.raises(ValueError):
        gen_drift_stream(10, 10, seed=1)


# --- exports ----------------------------------------------------------------------


def test_trace_csv_format(tmp_path):
    ds = build_dataset([("x", "numeric")], [(0.0,), (1.0,)], ["c0", "c1"])
    trace = prequential_run(ds, _Always(ds.schema, 0), 0.95)
    path = write_trace_csv(trace, tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "index,correct,faded_accuracy,cumulative_accuracy"
    assert lines[1].startswith("1,1,1.0,")
    assert lines[2].split(",")[0] == "2"
    assert len(lines) == 3


def test_confusion_csv_format(tmp_path):
    cm = ConfusionMatrix(("x", "y"), np.array([[3, 1], [0, 2]]))
    path = write_confusion_csv(cm, tmp_path / "cm.csv")
    assert path.read_text() == "label,x,y\nx,3,1\ny,0,2\n"
