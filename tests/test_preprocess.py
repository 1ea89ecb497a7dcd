"""Relabeling variants, attribute selection, OneR ranking, scaling, encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidsbench.dataset import DataError
from nidsbench.preprocess import (
    ATTACK_CATEGORIES,
    DEFAULT_KEEP_INDICES,
    VARIANT_LABELS,
    apply_normalizer,
    apply_variant,
    fit_normalizer,
    one_hot_encode,
    oner_rank,
    select_attributes,
    stratified_sample,
)

from conftest import build_dataset, kdd_file, label_names

from nidsbench.dataset import load_dataset

ALL_LABELS = ("normal",) + tuple(sorted(ATTACK_CATEGORIES))


def test_attack_category_map_covers_22_attacks():
    assert len(ATTACK_CATEGORIES) == 22
    assert "normal" not in ATTACK_CATEGORIES
    assert set(ATTACK_CATEGORIES.values()) == {"dos", "probe", "u2r", "r2l"}
    # spot checks against the official category assignment
    assert ATTACK_CATEGORIES["smurf"] == "dos"
    assert ATTACK_CATEGORIES["satan"] == "probe"
    assert ATTACK_CATEGORIES["buffer_overflow"] == "u2r"
    assert ATTACK_CATEGORIES["guess_passwd"] == "r2l"


def test_variant_targets():
    assert VARIANT_LABELS["v1"] == ("normal", "dos", "probe", "u2r", "r2l")
    assert VARIANT_LABELS["v2"] == ("normal", "attack")
    assert VARIANT_LABELS["v3"] is None


def _label_dataset(labels):
    return build_dataset([("x", "numeric")], [(float(i),) for i in
                                              range(len(labels))], labels)


def test_apply_variant_examples():
    ds = _label_dataset(["smurf", "normal", "satan"])
    assert label_names(apply_variant(ds, "v2")) == ["attack", "normal",
                                                    "attack"]
    assert label_names(apply_variant(ds, "v1")) == ["dos", "normal", "probe"]
    assert label_names(apply_variant(ds, "v3")) == ["smurf", "normal",
                                                    "satan"]


def test_apply_variant_unknown_attack():
    ds = _label_dataset(["zero_day"])
    with pytest.raises(DataError, match="zero_day"):
        apply_variant(ds, "v1")
    with pytest.raises(DataError, match="zero_day"):
        apply_variant(ds, "v2")
    assert label_names(apply_variant(ds, "v3")) == ["zero_day"]


def test_apply_variant_preserves_features_and_order():
    ds = _label_dataset(["smurf", "normal", "perl", "phf"])
    for vid in ("v1", "v2", "v3"):
        out = apply_variant(ds, vid)
        assert len(out) == len(ds)
        assert np.array_equal(out.numeric, ds.numeric)
        assert np.array_equal(out.nominal, ds.nominal)


@settings(max_examples=50)
@given(st.lists(st.sampled_from(ALL_LABELS), min_size=1, max_size=50))
def test_v1_collapse_equals_v2(labels):
    ds = _label_dataset(labels)
    collapsed = ["normal" if lab == "normal" else "attack"
                 for lab in label_names(apply_variant(ds, "v1"))]
    assert collapsed == label_names(apply_variant(ds, "v2"))


def test_select_attributes_default_on_kdd(tmp_path):
    ds = load_dataset(kdd_file(tmp_path / "m.csv", ["normal", "smurf"] * 5))
    out = select_attributes(ds, DEFAULT_KEEP_INDICES)
    names = [a.name for a in out.schema.attributes]
    assert names[:3] == ["duration", "protocol_type", "src_bytes"]
    assert len(names) == 12
    assert out.schema.nominal_positions == (1,)  # protocol_type survives


def test_select_attributes_identity_and_bounds():
    ds = build_dataset([("a", "numeric"), ("b", "nominal")],
                       [(1.0, "x"), (2.0, "y")], ["u", "v"])
    same = select_attributes(ds, (1, 2))
    assert [a.name for a in same.schema.attributes] == ["a", "b"]
    assert np.array_equal(same.numeric, ds.numeric)
    # the first and the last index alone: the CLI's --attrs range is 1..n
    first, last = select_attributes(ds, (1,)), select_attributes(ds, (2,))
    assert first.schema.attributes == ds.schema.attributes[:1]
    assert np.array_equal(first.numeric, ds.numeric)
    assert first.nominal.shape == (2, 0)
    assert last.schema.attributes == ds.schema.attributes[1:]
    assert np.array_equal(last.nominal, ds.nominal)
    assert last.numeric.shape == (2, 0)


@settings(max_examples=25)
@given(st.data())
def test_select_attributes_idempotent(data):
    n_attrs = data.draw(st.integers(2, 6))
    keep = data.draw(st.lists(st.integers(1, n_attrs), min_size=1,
                              max_size=n_attrs, unique=True))
    keep = tuple(sorted(keep))
    attrs = [(f"a{i}", "numeric") for i in range(n_attrs)]
    rows = [tuple(float(i * 10 + j) for j in range(n_attrs)) for i in range(4)]
    ds = build_dataset(attrs, rows, ["p", "q", "p", "q"])
    once = select_attributes(ds, keep)
    again = select_attributes(once, tuple(range(1, len(keep) + 1)))
    assert np.array_equal(once.numeric, again.numeric)
    assert once.schema.attributes == again.schema.attributes


# --- OneR ------------------------------------------------------------------


def test_oner_perfect_nominal_predictor_first():
    ds = build_dataset(
        [("noise", "numeric"), ("signal", "nominal")],
        [(1.0, "p"), (1.0, "q"), (1.0, "p"), (1.0, "q")],
        ["a", "b", "a", "b"],
    )
    ranking = oner_rank(ds)
    assert ranking[0] == (2, 1.0)


def test_oner_constant_attribute_scores_majority_frequency():
    ds = build_dataset([("c", "nominal")],
                       [("k",)] * 6, ["a", "a", "a", "a", "b", "b"])
    ranking = oner_rank(ds)
    assert ranking == [(1, 4 / 6)]


def _oner_oracle_nominal(values, labels):
    correct = 0
    for v in set(values):
        members = [lab for x, lab in zip(values, labels) if x == v]
        correct += max(members.count(c) for c in set(members))
    return correct / len(values)


def test_oner_toy_set_against_hand_oracle():
    # 8 instances, two attributes. The numeric rule closes its first bucket
    # once class "a" reaches 6 instances (values all distinct), leaving a
    # pure remainder bucket: 8/8 correct. The nominal rule gets 7/8.
    values_num = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    values_nom = ["x", "x", "x", "x", "x", "y", "y", "y"]
    labels = ["a", "a", "a", "a", "a", "a", "b", "b"]
    ds = build_dataset(
        [("num", "numeric"), ("sym", "nominal")],
        list(zip(values_num, values_nom)),
        labels,
    )
    ranking = dict(oner_rank(ds))
    assert ranking[1] == pytest.approx(1.0)  # 6 a's then pure (b, b) bucket
    expected_nom = _oner_oracle_nominal(values_nom, labels)
    assert expected_nom == pytest.approx(7 / 8)
    assert ranking[2] == pytest.approx(expected_nom)
    assert [i for i, _ in oner_rank(ds)] == [1, 2]


@settings(max_examples=40)
@given(st.data())
def test_oner_permutation_and_score_bounds(data):
    n = data.draw(st.integers(2, 30))
    labels = data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    num_vals = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    nom_vals = data.draw(st.lists(st.sampled_from("xyz"), min_size=n,
                                  max_size=n))
    ds = build_dataset([("num", "numeric"), ("sym", "nominal")],
                       list(zip(map(float, num_vals), nom_vals)), labels)
    ranking = oner_rank(ds)
    assert sorted(i for i, _ in ranking) == [1, 2]
    majority_freq = max(labels.count(c) for c in set(labels)) / n
    for _, acc in ranking:
        assert majority_freq - 1e-12 <= acc <= 1.0
    scores = [acc for _, acc in ranking]
    assert scores == sorted(scores, reverse=True)


# --- normalizer ------------------------------------------------------------


def test_normalizer_endpoints_constant_clamp():
    train = build_dataset([("x", "numeric"), ("c", "numeric")],
                          [(2.0, 7.0), (4.0, 7.0)], ["a", "b"])
    norm = fit_normalizer(train)
    scaled = apply_normalizer(norm, train)
    assert scaled.numeric[:, 0].tolist() == [0.0, 1.0]
    assert scaled.numeric[:, 1].tolist() == [0.0, 0.0]  # constant attribute
    test = build_dataset([("x", "numeric"), ("c", "numeric")],
                         [(9.0, 7.0), (-5.0, 8.0)], ["a", "b"])
    clamped = apply_normalizer(norm, test)
    assert clamped.numeric[:, 0].tolist() == [1.0, 0.0]
    assert clamped.numeric[:, 1].tolist() == [0.0, 0.0]


def test_normalizer_schema_mismatch():
    a = build_dataset([("x", "numeric")], [(1.0,)], ["a"])
    b = build_dataset([("y", "numeric")], [(1.0,)], ["a"])
    with pytest.raises(ValueError, match="different schema"):
        apply_normalizer(fit_normalizer(a), b)


def test_normalizer_rejects_data_coded_against_another_domain(
        domain_swapped_pair):
    train, test = domain_swapped_pair
    with pytest.raises(ValueError, match="different schema"):
        apply_normalizer(fit_normalizer(train), test)


def test_normalizer_on_nominal_only_data_keeps_it():
    ds = build_dataset([("c", "nominal")], [("p",), ("q",)], ["a", "b"])
    norm = fit_normalizer(ds)
    assert norm.mins.shape == norm.maxs.shape == (0,)
    scaled = apply_normalizer(norm, ds)
    assert scaled.schema == ds.schema
    assert scaled.numeric.shape == (2, 0)
    assert np.array_equal(scaled.nominal, ds.nominal)
    assert np.array_equal(scaled.labels, ds.labels)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
                min_size=1, max_size=30))
def test_normalized_training_data_in_unit_interval(rows):
    ds = build_dataset([("x", "numeric"), ("y", "numeric")], rows,
                       ["a"] * len(rows))
    scaled = apply_normalizer(fit_normalizer(ds), ds)
    assert (scaled.numeric >= 0.0).all()
    assert (scaled.numeric <= 1.0).all()


# --- one-hot ---------------------------------------------------------------


def test_one_hot_indicator_order_and_values():
    ds = build_dataset(
        [("proto", "nominal", ("tcp", "udp", "icmp")), ("x", "numeric")],
        [("udp", 3.0), ("tcp", 4.0)],
        ["a", "b"],
    )
    out = one_hot_encode(ds)
    names = [a.name for a in out.schema.attributes]
    assert names == ["proto=tcp", "proto=udp", "proto=icmp", "x"]
    assert out.numeric[0].tolist() == [0.0, 1.0, 0.0, 3.0]
    assert out.numeric[1].tolist() == [1.0, 0.0, 0.0, 4.0]


def test_one_hot_no_nominal_is_identity():
    ds = build_dataset([("x", "numeric"), ("y", "numeric")],
                       [(1.5, -2.0), (0.0, 3.0)], ["a", "b"])
    out = one_hot_encode(ds)
    assert out.schema == ds.schema
    assert np.array_equal(out.numeric, ds.numeric)
    assert out.nominal.shape == ds.nominal.shape == (2, 0)
    assert np.array_equal(out.labels, ds.labels)


# --- stratified subsample ----------------------------------------------------


def test_stratified_sample_proportions_and_determinism():
    labels = np.array([0] * 800 + [1] * 160 + [2] * 40)
    idx = stratified_sample(labels, 100, seed=3)
    assert len(idx) == 100
    picked = labels[idx]
    assert (picked == 0).sum() == 80
    assert (picked == 1).sum() == 16
    assert (picked == 2).sum() == 4
    assert np.array_equal(idx, stratified_sample(labels, 100, seed=3))
    assert np.array_equal(stratified_sample(labels, 2000, seed=1),
                          np.arange(1000))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=60), st.data())
def test_stratified_sample_takes_each_class_within_one_of_its_share(
        labels, data):
    labels = np.array(labels)
    n = len(labels)
    size = data.draw(st.integers(1, n - 1))
    idx = stratified_sample(labels, size, seed=data.draw(st.integers(0, 9)))
    assert len(idx) == size
    assert np.array_equal(idx, np.unique(idx))  # unique and sorted
    assert 0 <= idx[0] and idx[-1] < n
    for c in np.unique(labels):
        count = int((labels == c).sum())
        taken = int((labels[idx] == c).sum())
        assert taken <= count
        assert abs(taken - count * size / n) < 1
