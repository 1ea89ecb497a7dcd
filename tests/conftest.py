"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nidsbench.batch_learners import mlp_forward
from nidsbench.dataset import (
    NOMINAL,
    NUMERIC,
    Attribute,
    AttributeSchema,
    ColumnCoder,
    Dataset,
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


def coded(schema, rows, labels):
    """Value rows and their class labels coded against `schema` by the
    program's one coder, in one block."""
    coder = ColumnCoder(schema, len(rows))
    coder.add([[r[p] for r in rows] for p in schema.numeric_positions],
              [[r[p] for r in rows] for p in schema.nominal_positions],
              labels)
    return coder.dataset()


def build_dataset(attrs, rows, labels, class_labels=()):
    """Assemble a Dataset from (name, kind[, domain]) specs and value rows."""
    schema = AttributeSchema(tuple(Attribute(*a) for a in attrs),
                             tuple(class_labels))
    return coded(schema, rows, labels)


def code_rows(schema, *rows):
    """Value rows coded against `schema` (each labeled with the schema's
    first class)."""
    return coded(schema, rows, [schema.class_labels[0]] * len(rows))


def label_names(ds):
    """Each row's class label, in row order."""
    return [ds.schema.class_labels[c] for c in ds.labels]


def assert_same_dataset(a, b):
    """a and b have the same schema, numeric values, nominal codes and
    labels."""
    assert a.schema == b.schema
    assert np.array_equal(a.numeric, b.numeric)
    assert np.array_equal(a.nominal, b.nominal)
    assert np.array_equal(a.labels, b.labels)


def predict_labels(model, *rows):
    """The labels a fitted batch model predicts for value rows, coded against
    its fitted schema and sent through `predict_dataset`, as the CLI does."""
    codes = model.predict_dataset(code_rows(model.schema, *rows))
    return [model.schema.class_labels[c] for c in codes]


def gen_drift_stream(n: int, switch_at: int, seed: int) -> Dataset:
    """Synthetic stream with one abrupt concept inversion.

    One nominal attribute fully determines the class; from position
    `switch_at` (0-based) onward the mapping is inverted. A second nominal
    attribute and one numeric attribute carry seeded noise.
    """
    if not 0 < switch_at < n:
        raise ValueError("need 0 < switch_at < n")
    rng = np.random.default_rng(seed)
    signal = rng.integers(0, 2, n).astype(np.int32)
    noise_sym = rng.integers(0, 2, n).astype(np.int32)
    noise_num = rng.random(n)
    labels = signal.copy()
    labels[switch_at:] = 1 - labels[switch_at:]
    schema = AttributeSchema(
        (
            Attribute("signal", NOMINAL, ("a", "b")),
            Attribute("noise_sym", NOMINAL, ("x", "y")),
            Attribute("noise_num", NUMERIC),
        ),
        ("c0", "c1"),
    )
    return Dataset(schema, noise_num.reshape(-1, 1),
                   np.column_stack([signal, noise_sym]).astype(np.int32),
                   labels.astype(np.int32),
                   provenance=f"synthetic drift stream n={n} switch={switch_at} "
                              f"seed={seed}")


def mlp_loss(params, x, target) -> float:
    """Half squared error of the MLP's outputs for one instance."""
    _, out = mlp_forward(params, x)
    return 0.5 * float(((out - target) ** 2).sum())


def run_script(name: str, argv: list, monkeypatch) -> int:
    """scripts/<name>.py's main() in this process."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return module.main()


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
