"""No k-NN result and no naive-Bayes fold statistic depends on the CPU.

A subprocess runs with OpenBLAS forced to its SSE3 (Prescott) kernel and
numpy's SIMD dispatch held to its baseline, and must hash the k-NN
distances and the batch and windowed k-NN predictions, and the statistics
of `fold_statistics`' lane pass, to the same digests as this process. The
lane pass runs the Welford steps as numpy's SIMD arithmetic where
`add_rows` runs them on Python floats, so its bits must not follow the
dispatch. The variables are set for that subprocess only.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nidsbench.stream_learners as stream_learners
from nidsbench.batch_learners import KNN, mixed_distances
from nidsbench.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema
from nidsbench.evaluation import assign_stratified_folds
from nidsbench.nbcore import fold_statistics
from nidsbench.stream_learners import WindowKNN

from conftest import build_dataset

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
# numpy's dispatch targets above its x86-64-v2 baseline
SIMD_FEATURES = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def knn_digest() -> str:
    """SHA-256 of k-NN distances and predictions on seeded wide-range rows
    (columns scaled from 1e-3 to 1e4, 60 rows duplicated)."""
    rng = np.random.default_rng(7)
    n, n_num = 400, 12
    num = rng.random((n, n_num)) * 10.0 ** rng.integers(-3, 5, n_num)
    num[200:260] = num[:60]
    nom = rng.integers(0, 3, (n, 2))
    attrs = [(f"x{j}", "numeric") for j in range(n_num)] \
        + [("s0", "nominal"), ("s1", "nominal")]
    rows = [tuple(r) + (f"v{a}", f"v{b}")
            for r, (a, b) in zip(num.tolist(), nom.tolist())]
    ds = build_dataset(attrs, rows, [f"c{y}" for y in rng.integers(0, 3, n)])
    digest = hashlib.sha256()
    t_cols = np.ascontiguousarray(ds.numeric.T)
    t_nom = np.ascontiguousarray(ds.nominal.T)
    out, buf = np.empty((2, n))
    for q_num, q_nom in zip(ds.numeric[:100], ds.nominal[:100]):
        digest.update(mixed_distances(q_num, q_nom, t_cols, t_nom, out,
                                      buf).tobytes())
    knn = KNN(3).fit(ds.subset(np.arange(300)))
    digest.update(knn.predict_dataset(ds.subset(np.arange(300, n))).tobytes())
    saved = stream_learners.WKNN_WINDOW
    stream_learners.WKNN_WINDOW = 100
    try:
        window = WindowKNN(ds.schema, 3)
    finally:
        stream_learners.WKNN_WINDOW = saved
    codes = []
    for num_row, nom_row, y in zip(ds.numeric, ds.nominal, ds.labels):
        codes.append(window.predict_code(num_row, nom_row))
        window.learn_row(num_row, nom_row, int(y))
    digest.update(np.array(codes, dtype=np.int64).tobytes())
    return digest.hexdigest()


def fold_digest() -> str:
    """SHA-256 of `fold_statistics` over 10 folds of seeded rows: 600 rows,
    3 classes, 9 numeric columns scaled from 1e-3 to 1e4 and 3 near 1e307,
    signed, with runs of repeated rows and zeros of both signs."""
    rng = np.random.default_rng(11)
    n, n_num = 600, 12
    num = rng.random((n, n_num)) * 10.0 ** rng.integers(-3, 5, n_num)
    num[:, 9:] = rng.choice([-8e307, 8e307, 1e307], (n, 3))
    num *= rng.choice([-1.0, 1.0], (n, n_num))
    num[100:160] = num[100]
    num[300:340, :3] = -0.0
    nom = rng.integers(0, 3, (n, 2)).astype(np.int32)
    labels = rng.integers(0, 3, n).astype(np.int32)
    attrs = [Attribute(f"x{j}", NUMERIC) for j in range(n_num)] \
        + [Attribute(f"s{j}", NOMINAL, ("a", "b", "c")) for j in range(2)]
    schema = AttributeSchema(tuple(attrs), ("c0", "c1", "c2"))
    assignment = assign_stratified_folds(labels, 10, seed=3)
    digest = hashlib.sha256()
    for stats in fold_statistics(schema, num, nom, labels, assignment, 10):
        for a in (stats.class_counts, stats.mean, stats.m2,
                  *stats.nominal_counts):
            digest.update(a.tobytes())
    return digest.hexdigest()


def _baseline_digest(name: str) -> str:
    """`name`() computed in a subprocess held to the baseline kernels."""
    disable = [f for f in SIMD_FEATURES if f in umath.__cpu_dispatch__]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               NPY_DISABLE_CPU_FEATURES=" ".join(disable),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    probe = ("import json\n"
             f"from test_cpu_independence import {name}, umath\n"
             "off = [f for f, on in umath.__cpu_features__.items() if not on]\n"
             f"print(json.dumps([{name}(), off]))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    digest, off = json.loads(done.stdout)
    here = {f for f, on in umath.__cpu_features__.items() if on}
    print("disabled in the subprocess:", sorted(here & set(off)))
    return digest


def test_knn_results_do_not_depend_on_the_cpu():
    assert _baseline_digest("knn_digest") == knn_digest()


def test_nb_fold_statistics_do_not_depend_on_the_cpu():
    assert _baseline_digest("fold_digest") == fold_digest()
