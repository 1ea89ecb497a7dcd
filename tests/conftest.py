"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from nidsbench.dataset import (
    Attribute,
    AttributeSchema,
    Instance,
    dataset_from_instances,
    kdd99_schema,
)

# values for each nominal attribute of the raw schema
_NOMINAL_FILL = {
    "protocol_type": ("tcp", "udp", "icmp"),
    "service": ("http", "smtp", "ftp"),
    "flag": ("SF", "S0", "REJ"),
    "land": ("0", "1"),
    "logged_in": ("0", "1"),
    "is_host_login": ("0",),
    "is_guest_login": ("0", "1"),
}


def build_dataset(attrs, rows, labels, class_labels=()):
    """Assemble a Dataset from (name, kind[, domain]) specs and value rows."""
    schema = AttributeSchema(tuple(Attribute(*a) for a in attrs),
                             tuple(class_labels))
    instances = [Instance(tuple(r), lab) for r, lab in zip(rows, labels)]
    return dataset_from_instances(schema, instances)


def code_rows(schema, *rows):
    """Value rows coded against `schema` by the program's one coder (each
    labeled with the schema's first class)."""
    return dataset_from_instances(
        schema, [Instance(tuple(r), schema.class_labels[0]) for r in rows])


def predict_labels(model, *rows):
    """The labels a fitted batch model predicts for value rows, coded against
    its fitted schema and sent through `predict_dataset`, as the CLI does."""
    codes = model.predict_dataset(code_rows(model.schema, *rows))
    return [model.schema.class_labels[c] for c in codes]


def kdd_line(label: str, rng: np.random.Generator, dotted: bool = True) -> str:
    """One syntactically valid 42-field KDD record with random-ish values."""
    fields = []
    for attr in kdd99_schema().attributes:
        if attr.kind == "nominal":
            options = _NOMINAL_FILL[attr.name]
            fields.append(options[rng.integers(0, len(options))])
        else:
            fields.append(str(int(rng.integers(0, 500))))
    fields.append(label + "." if dotted else label)
    return ",".join(fields)


def kdd_file(path, labels, seed=0, dotted=True):
    """Write a miniature KDD-format file with the given label sequence."""
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for lab in labels:
            fh.write(kdd_line(lab, rng, dotted) + "\n")
    return path


@pytest.fixture
def tiny_mixed_dataset():
    """4 instances, one numeric + one nominal attribute, two classes."""
    return build_dataset(
        [("x", "numeric"), ("color", "nominal")],
        [(1.0, "red"), (2.0, "red"), (3.0, "blue"), (4.0, "blue")],
        ["a", "a", "b", "b"],
    )


@pytest.fixture
def domain_swapped_pair():
    """(train, test): train has c in (p, q) with three p -> a and three
    q -> b; test holds q -> b then p -> a, coded on its own, so its domain is
    (q, p) and its codes name the other symbol than in train."""
    train = build_dataset([("x", "numeric"), ("c", "nominal")],
                          [(1.0, "p")] * 3 + [(1.0, "q")] * 3,
                          ["a"] * 3 + ["b"] * 3)
    test = build_dataset([("x", "numeric"), ("c", "nominal")],
                         [(1.0, "q"), (1.0, "p")], ["b", "a"],
                         class_labels=("a", "b"))
    return train, test


@pytest.fixture
def mini_kdd(tmp_path):
    """A small KDD-format file: normal, DoS (smurf, neptune, back), probe
    (portsweep) and R2L (guess_passwd), so v1 and v2 label it differently."""
    labels = (["normal", "smurf", "neptune", "normal"] * 40
              + ["back", "portsweep", "guess_passwd", "normal"] * 5)
    return kdd_file(tmp_path / "mini_kdd.csv", labels, seed=12)
