"""Byte-identity gate: the digests of J48's outputs on a checked-in slice.

`data/nsl_s1_head1500.txt.gz` holds the first 1,500 lines of the 6,299-row
NSL-KDD-shaped corpus that `perfbench/corpus.py` writes for seed 1
(`corpus("nsl", 1, 6299, dir)`), gzipped with mtime 0. A slice rather than
a smaller corpus: the generator rejects sizes that cannot hold every label.
It has 13 of the 23 raw labels, so v3 trees see more than eight classes.

`golden_outputs.json` holds the SHA-256 of each run's confusion CSV and of
its summary JSON without `runtime_seconds`. Numpy's SIMD loops and BLAS can
round differently on another build, so the file also names the numpy
version, BLAS and CPU features the digests were recorded with, and a
failure reports both. A change that moves a digest on purpose re-records
the file with `PYTHONPATH=src python tests/test_golden.py` and says which
outputs moved and why.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nidsbench.cli import EXIT_OK, run_command

DATA_DIR = Path(__file__).resolve().parent / "data"
SLICE = "nsl_s1_head1500.txt.gz"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
RUNS = [(v, a) for v in ("v1", "v2", "v3") for a in ("selected", "all")]


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", blas["name"]),
        "cpu_features": config["SIMD Extensions"]["found"],
    }


def j48_digests(variant: str, attrs: str, out: Path) -> dict:
    """Run `batch --algo j48 --folds 3` on the slice; the digests of its
    confusion CSV and of its summary without `runtime_seconds`."""
    argv = ["batch", "--algo", "j48", "--variant", variant, "--attrs", attrs,
            "--folds", "3", "--seed", "1", "--data", SLICE, "--out", str(out)]
    assert run_command(argv) == EXIT_OK
    stem = f"{Path(SLICE).stem}_{variant}_j48_s1"
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    del summary["runtime_seconds"]
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return {
        "confusion": hashlib.sha256(
            (out / f"{stem}_confusion.csv").read_bytes()).hexdigest(),
        "summary": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.mark.parametrize("variant,attrs", RUNS)
def test_j48_outputs_match_the_golden_digests(variant, attrs, tmp_path,
                                              monkeypatch):
    # run from the slice's directory, so the summary's `dataset` is the
    # file name wherever the checkout lives
    monkeypatch.chdir(DATA_DIR)
    golden = json.loads(GOLDEN.read_text())
    got = j48_digests(variant, attrs, tmp_path)
    assert got == golden["j48"][f"{variant}_{attrs}"], (
        f"recorded with {golden['environment']}, run with {environment()}")


def record() -> None:
    os.chdir(DATA_DIR)
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{v}_{a}": j48_digests(v, a, Path(tmp)) for v, a in RUNS}
    GOLDEN.write_text(json.dumps({"environment": environment(), "j48": runs},
                                 indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
