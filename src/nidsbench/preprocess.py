"""Class-relabeling variants, attribute selection, OneR ranking, scaling.

Three relabeling variants are supported: the five traffic categories
(normal/dos/probe/u2r/r2l), the binary normal/attack split, and the raw
23 labels. Attribute selection keeps a fixed 1-based index list; the default
is the 12-attribute list used throughout the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    NOMINAL,
    NUMERIC,
    Attribute,
    AttributeSchema,
    DataError,
    Dataset,
)

# Canonical category assignment of the 22 attack labels. "normal" is not a
# key; it always maps to itself.
ATTACK_CATEGORIES: dict[str, str] = {
    "back": "dos", "land": "dos", "neptune": "dos", "pod": "dos",
    "smurf": "dos", "teardrop": "dos",
    "ipsweep": "probe", "nmap": "probe", "portsweep": "probe", "satan": "probe",
    "ftp_write": "r2l", "guess_passwd": "r2l", "imap": "r2l", "multihop": "r2l",
    "phf": "r2l", "spy": "r2l", "warezclient": "r2l", "warezmaster": "r2l",
    "buffer_overflow": "u2r", "loadmodule": "u2r", "perl": "u2r",
    "rootkit": "u2r",
}

FIVE_CLASS_LABELS = ("normal", "dos", "probe", "u2r", "r2l")
BINARY_LABELS = ("normal", "attack")

# 1-based indices of the attributes kept by default: duration, protocol_type,
# src_bytes, dst_bytes, urgent, count, srv_count, same_srv_rate,
# dst_host_count, dst_host_srv_count, dst_host_same_srv_rate,
# dst_host_same_src_port_rate.
DEFAULT_KEEP_INDICES = (1, 2, 5, 6, 9, 23, 24, 29, 32, 33, 34, 36)


# each relabeling variant's class labels; None keeps the raw labels
VARIANT_LABELS: dict[str, tuple[str, ...] | None] = {
    "v1": FIVE_CLASS_LABELS,
    "v2": BINARY_LABELS,
    "v3": None,
}


def apply_variant(ds: Dataset, vid: str) -> Dataset:
    """Relabel classes per variant `vid`; features and order are untouched."""
    targets = VARIANT_LABELS[vid]
    if targets is None:
        return ds.with_provenance("variant v3 (raw labels)")
    mapping = np.empty(len(ds.schema.class_labels), dtype=np.int32)
    for code, label in enumerate(ds.schema.class_labels):
        if label == "normal":
            target = "normal"
        else:
            if label not in ATTACK_CATEGORIES:
                raise DataError(
                    f"unknown attack label {label!r} under variant {vid}")
            target = ATTACK_CATEGORIES[label] if vid == "v1" else "attack"
        mapping[code] = targets.index(target)
    schema = AttributeSchema(ds.schema.attributes, targets)
    return Dataset(schema, ds.numeric, ds.nominal, mapping[ds.labels],
                   ds.provenance + f"; variant {vid}")


def select_attributes(ds: Dataset, keep_indices: tuple[int, ...]) -> Dataset:
    """Keep only the attributes at the strictly increasing 1-based
    `keep_indices` of ds's schema, preserving relative order."""
    keep = [i - 1 for i in keep_indices]
    keep_set = set(keep)
    attrs = tuple(ds.schema.attributes[p] for p in keep)
    num_cols = [j for j, p in enumerate(ds.schema.numeric_positions) if p in keep_set]
    nom_cols = [j for j, p in enumerate(ds.schema.nominal_positions) if p in keep_set]
    schema = AttributeSchema(attrs, ds.schema.class_labels)
    return Dataset(schema, ds.numeric[:, num_cols], ds.nominal[:, nom_cols],
                   ds.labels, ds.provenance + f"; selected {keep_indices}")


def _majority(counts: np.ndarray) -> tuple[int, int]:
    """(majority class code, its count); ties go to the lowest class code."""
    c = int(np.argmax(counts))
    return c, int(counts[c])


# OneR's minimum bucket size (Holte, Machine Learning 1993)
ONER_MIN_BUCKET = 6


def _numeric_rule_correct(values: np.ndarray, labels: np.ndarray,
                          n_classes: int) -> int:
    """Correct count of a one-rule over a discretized numeric attribute.

    Instances are sorted by value; buckets close greedily once the bucket's
    majority class holds at least ONER_MIN_BUCKET instances, only at positions
    where the value changes (a run of equal values is never split). Adjacent
    buckets sharing a majority class are merged, which leaves the rule's
    correct count unchanged.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = labels[order]
    n = len(sv)
    buckets = []
    counts = np.zeros(n_classes, dtype=np.int64)
    for i in range(n):
        counts[sy[i]] += 1
        boundary = i == n - 1 or sv[i] != sv[i + 1]
        if boundary and counts.max() >= ONER_MIN_BUCKET:
            buckets.append(counts)
            counts = np.zeros(n_classes, dtype=np.int64)
    if counts.any():
        buckets.append(counts)
    # merge adjacent buckets with the same majority class
    merged = [buckets[0]]
    for b in buckets[1:]:
        if _majority(merged[-1])[0] == _majority(b)[0]:
            merged[-1] = merged[-1] + b
        else:
            merged.append(b)
    return sum(_majority(b)[1] for b in merged)


def oner_rank(ds: Dataset) -> list[tuple[int, float]]:
    """Rank attributes by their one-rule training accuracy.

    Returns (1-based attribute index, accuracy) sorted by accuracy descending,
    ties broken by ascending attribute index. Nominal attributes predict the
    majority class per value; numeric attributes are bucketized as described
    in `_numeric_rule_correct`.
    """
    n = len(ds)
    n_classes = len(ds.schema.class_labels)
    num_col = {p: j for j, p in enumerate(ds.schema.numeric_positions)}
    nom_col = {p: j for j, p in enumerate(ds.schema.nominal_positions)}

    scored = []
    for pos, attr in enumerate(ds.schema.attributes):
        if attr.kind == NOMINAL:
            codes = ds.nominal[:, nom_col[pos]].astype(np.int64)
            d = len(attr.domain)
            table = np.bincount(codes * n_classes + ds.labels,
                                minlength=d * n_classes).reshape(d, n_classes)
            correct = int(table.max(axis=1).sum())
        else:
            correct = _numeric_rule_correct(ds.numeric[:, num_col[pos]],
                                            ds.labels, n_classes)
        scored.append((pos + 1, correct / n))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


@dataclass(frozen=True)
class Normalizer:
    """Per-numeric-attribute min/max fitted on training data."""

    schema: AttributeSchema
    mins: np.ndarray
    maxs: np.ndarray


def fit_normalizer(ds: Dataset) -> Normalizer:
    """Per-numeric-column minima and maxima of ds, which has rows."""
    return Normalizer(ds.schema, ds.numeric.min(axis=0),
                      ds.numeric.max(axis=0))


def apply_normalizer(norm: Normalizer, ds: Dataset) -> Dataset:
    """Map numeric values to [0, 1]; constants map to 0, outliers are clamped."""
    if ds.schema != norm.schema:
        raise ValueError("normalizer was fitted on a different schema")
    span = norm.maxs - norm.mins
    scaled = np.zeros_like(ds.numeric)
    nz = span > 0
    scaled[:, nz] = (ds.numeric[:, nz] - norm.mins[nz]) / span[nz]
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(ds.schema, scaled, ds.nominal, ds.labels,
                   ds.provenance + "; min-max normalized")


def one_hot_encode(ds: Dataset) -> Dataset:
    """Expand each nominal attribute into one 0/1 indicator column per
    symbol of its domain, in domain order; numeric attributes pass through."""
    out_attrs: list[Attribute] = []
    columns: list[np.ndarray] = []
    num_col = {p: j for j, p in enumerate(ds.schema.numeric_positions)}
    nom_col = {p: j for j, p in enumerate(ds.schema.nominal_positions)}
    for pos, attr in enumerate(ds.schema.attributes):
        if attr.kind == NUMERIC:
            out_attrs.append(attr)
            columns.append(ds.numeric[:, num_col[pos]])
            continue
        codes = ds.nominal[:, nom_col[pos]]
        for k, sym in enumerate(attr.domain):
            out_attrs.append(Attribute(f"{attr.name}={sym}", NUMERIC))
            columns.append((codes == k).astype(np.float64))
    schema = AttributeSchema(tuple(out_attrs), ds.schema.class_labels)
    return Dataset(schema, np.column_stack(columns),
                   np.zeros((len(ds), 0), dtype=np.int32), ds.labels,
                   ds.provenance + "; one-hot encoded")


def stratified_sample(labels: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Indices of a class-stratified sample of `size` without replacement.

    Per-class allocations follow largest-remainder rounding of the exact
    proportional shares, so every class with at least one instance and a
    nonzero share keeps representation where possible. `Pipeline` passes
    1 <= size < len(labels), so no class is given more than its count.
    """
    n = len(labels)
    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    shares = np.array([(labels == c).sum() for c in classes], dtype=np.float64)
    exact = shares * (size / n)
    base = np.floor(exact).astype(np.int64)
    remainder = exact - base
    short = size - int(base.sum())
    for i in np.argsort(-remainder, kind="stable")[:short]:
        base[i] += 1
    picked = []
    for c, take in zip(classes, base):
        idx = np.flatnonzero(labels == c)
        if take > 0:
            picked.append(rng.permutation(idx)[:take])
    return np.sort(np.concatenate(picked))
