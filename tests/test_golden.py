"""Byte-identity gate: the digests of every learner's outputs on a checked-in
slice.

`data/nsl_s1_head1500.txt.gz` holds the first 1,500 lines of the 6,299-row
NSL-KDD-shaped corpus that `perfbench/corpus.py` writes for seed 1
(`corpus("nsl", 1, 6299, dir)`), gzipped with mtime 0. A slice rather than
a smaller corpus: the generator rejects sizes that cannot hold every label.
It has 13 of the 23 raw labels, so v3 trees see more than eight classes.

`golden_outputs.json` holds, per learner and run, the SHA-256 of each file
the run writes (confusion CSV; for stream runs also the trace CSV and SVG
curve) and of its summary JSON without `runtime_seconds`. Numpy's SIMD
loops and BLAS can round differently on another build, so the file also
names the numpy version, BLAS and CPU features the digests were recorded
with, and a failure reports both. A change that moves a digest on purpose
re-records the file with `PYTHONPATH=src python tests/test_golden.py`,
which prints the entries that changed, and says which outputs moved and
why.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nidsbench.cli import EXIT_OK, STREAM_ALGOS, run_command

DATA_DIR = Path(__file__).resolve().parent / "data"
SLICE = "nsl_s1_head1500.txt.gz"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
J48_RUNS = [(v, a) for v in ("v1", "v2", "v3") for a in ("selected", "all")]
# (algorithm, variant, --attrs, further CLI arguments); batch runs use 3 folds
RUNS = [
    ("nb", "v1", "selected", ()),
    ("knn", "v1", "selected", ()),
    ("knn", "v1", "selected", ("--sample", "500")),
    ("mlp", "v1", "selected", ()),
    ("svm", "v2", "selected", ()),
    ("snb", "v2", "selected", ()),
    ("ht", "v2", "selected", ()),
    ("wknn", "v2", "selected", ()),
    ("ozaboost", "v2", "selected", ()),
    ("ozaboost", "v3", "all", ()),
]
ALL_RUNS = [("j48", v, a, ()) for v, a in J48_RUNS] + RUNS


def run_key(variant: str, attrs: str, extra: tuple) -> str:
    """A run's entry under its algorithm in the golden file: `v1_selected`,
    `v1_selected_sample_500`."""
    return "_".join((variant, attrs) + extra).replace("--", "")


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", blas["name"]),
        "cpu_features": config["SIMD Extensions"]["found"],
    }


def run_digests(algo: str, variant: str, attrs: str, extra: tuple,
                out: Path) -> dict:
    """Run the CLI on the slice (from the slice's directory); the digests of
    the files it writes, the manifest aside, and of its summary without
    `runtime_seconds`."""
    command = "stream" if algo in STREAM_ALGOS else "batch"
    argv = [command, "--algo", algo, "--variant", variant, "--attrs", attrs,
            "--seed", "1", "--data", SLICE, "--out", str(out), *extra]
    if command == "batch":
        argv += ["--folds", "3"]
    assert run_command(argv) == EXIT_OK
    stem = f"{Path(SLICE).stem}_{variant}_{algo}_s1"
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    del summary["runtime_seconds"]
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    got = {"summary": hashlib.sha256(text.encode()).hexdigest()}
    for name in ("confusion.csv", "trace.csv", "curve.svg"):
        path = out / f"{stem}_{name}"
        if path.exists():
            got[name.split(".")[0]] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return got


def check(algo, variant, attrs, extra, out, monkeypatch):
    # run from the slice's directory, so the summary's `dataset` is the
    # file name wherever the checkout lives
    monkeypatch.chdir(DATA_DIR)
    golden = json.loads(GOLDEN.read_text())
    got = run_digests(algo, variant, attrs, extra, out)
    assert got == golden[algo][run_key(variant, attrs, extra)], (
        f"recorded with {golden['environment']}, run with {environment()}")


@pytest.mark.parametrize("variant,attrs", J48_RUNS)
def test_j48_outputs_match_the_golden_digests(variant, attrs, tmp_path,
                                              monkeypatch):
    check("j48", variant, attrs, (), tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "algo,variant,attrs,extra", RUNS,
    ids=[f"{a}-{run_key(v, s, e)}" for a, v, s, e in RUNS])
def test_learner_outputs_match_the_golden_digests(algo, variant, attrs, extra,
                                                  tmp_path, monkeypatch):
    check(algo, variant, attrs, extra, tmp_path, monkeypatch)


def record() -> None:
    """Re-record every run's digests and print the entries that changed."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    os.chdir(DATA_DIR)
    runs: dict = {}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        for i, (algo, variant, attrs, extra) in enumerate(ALL_RUNS):
            runs.setdefault(algo, {})[run_key(variant, attrs, extra)] = \
                run_digests(algo, variant, attrs, extra, Path(tmp) / str(i))
    changes = []
    for algo in sorted(set(runs) | set(old) - {"environment"}):
        new_runs, old_runs = runs.get(algo, {}), old.get(algo, {})
        for key in sorted(set(new_runs) | set(old_runs)):
            if new_runs.get(key) != old_runs.get(key):
                state = ("new" if key not in old_runs else
                         "gone" if key not in new_runs else "changed")
                changes.append(f"{state}: {algo} {key}")
    if old.get("environment") != environment():
        changes.append(f"environment: was {old.get('environment')}, "
                       f"now {environment()}")
    print("\n".join(changes) or "no entry changed")
    GOLDEN.write_text(json.dumps(dict(runs, environment=environment()),
                                 indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
