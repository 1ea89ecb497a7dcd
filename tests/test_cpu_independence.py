"""No k-NN result depends on the CPU.

A subprocess runs with OpenBLAS forced to its SSE3 (Prescott) kernel and
numpy's SIMD dispatch held to its baseline, and must hash the k-NN
distances and the batch and windowed k-NN predictions to the same digest as
this process. The variables are set for that subprocess only.
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


def test_knn_results_do_not_depend_on_the_cpu():
    disable = [f for f in SIMD_FEATURES if f in umath.__cpu_dispatch__]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               NPY_DISABLE_CPU_FEATURES=" ".join(disable),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    probe = ("import json\n"
             "from test_cpu_independence import knn_digest, umath\n"
             "off = [f for f, on in umath.__cpu_features__.items() if not on]\n"
             "print(json.dumps([knn_digest(), off]))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    digest, off = json.loads(done.stdout)
    here = {f for f, on in umath.__cpu_features__.items() if on}
    print("disabled in the subprocess:", sorted(here & set(off)))
    assert digest == knn_digest()
