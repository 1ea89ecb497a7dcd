"""Byte-identity gate: the digests of every learner's outputs on checked-in
slices.

`data/nsl_s1_head1500.txt.gz` holds the first 1,500 lines of the 6,299-row
NSL-KDD-shaped corpus that `perfbench/corpus.py` writes for seed 1
(`corpus("nsl", 1, 6299, dir)`), gzipped with mtime 0. A slice rather than
a smaller corpus: the generator rejects sizes that cannot hold every label.
It has 13 of the 23 raw labels, so v3 trees see more than eight classes.

`data/kdd99_s1_head5000.data.gz` holds the first 5,000 lines of the
15,000-row KDD99-10-shaped corpus for seed 1 (`corpus("kdd99", 1, 15000,
dir)`), written with `gzip -n -9`. It pins the Hoeffding-tree paths the NSL
slice never reaches: `ht` v2 splits twice, `ht` v3 `--attrs all` makes a
nominal split, `ozaboost` v2 splits 11 times and every member of
`ozaboost` v3 `--attrs all` (10 classes) makes one or two nominal splits.
Its runs of records that repeat exactly also fill the windowed k-NN's window
with many copies of few distinct rows, under v1, v2, v3 and v3 `--attrs
all`.

`kdd99_s1_head5000_zeros.data` is not checked in: `write_zeros_slice`
builds it from the KDD99 slice, with the `duration` field `-0` on some rows
and `1e-300` on others after the normalizer's warm-up. Min-max
normalization keeps them as -0.0 and a tiny nonzero value, so `wknn` v2
(k = 3 and k = 1) there sees rows whose bytes differ at distance 0.

`golden_outputs.json` holds, per slice, learner and run, the SHA-256 of
each file the run writes (confusion CSV; for stream runs also the trace CSV
and SVG curve) and of its summary JSON without `runtime_seconds`. Numpy's
SIMD loops and BLAS can round differently on another build, so the file also
names the numpy version, BLAS and CPU features the digests were recorded
with, and a failure reports both. A change that moves a digest on purpose
re-records the file with `PYTHONPATH=src python tests/test_golden.py`,
which prints the entries that changed, and says which outputs moved and
why.
"""

import contextlib
import gzip
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
NSL_SLICE = "nsl_s1_head1500.txt.gz"
KDD_SLICE = "kdd99_s1_head5000.data.gz"
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
KDD_RUNS = [
    ("ht", "v1", "selected", ()),
    ("ht", "v2", "selected", ()),
    ("ht", "v3", "selected", ()),
    ("ht", "v3", "all", ()),
    ("ozaboost", "v1", "selected", ()),
    ("ozaboost", "v2", "selected", ()),
    ("ozaboost", "v3", "selected", ()),
    ("ozaboost", "v3", "all", ()),
    ("snb", "v1", "selected", ()),
    ("snb", "v2", "selected", ()),
    ("snb", "v3", "selected", ()),
    ("wknn", "v1", "selected", ()),
    ("wknn", "v2", "selected", ()),
    ("wknn", "v3", "selected", ()),
    ("wknn", "v3", "all", ()),
]
ZEROS_SLICE = "kdd99_s1_head5000_zeros.data"
ZEROS_RUNS = [
    ("wknn", "v2", "selected", ()),
    ("wknn", "v2", "selected", ("--k", "1")),
]
SLICE_RUNS = {NSL_SLICE: [("j48", v, a, ()) for v, a in J48_RUNS] + RUNS,
              KDD_SLICE: KDD_RUNS, ZEROS_SLICE: ZEROS_RUNS}


def write_zeros_slice(directory: Path) -> None:
    """Write ZEROS_SLICE into `directory`: the KDD99 slice, with a duration
    of 0 written as `-0` on every 3rd line and as `1e-300` on every 7th
    (the 21st stays `-0`) from line 1,001 on, after the wknn normalizer's
    warm-up, whose minimum stays +0.0."""
    with gzip.open(DATA_DIR / KDD_SLICE, "rt") as fh:
        lines = fh.read().splitlines(keepends=True)
    for i in range(1000, len(lines)):
        duration, rest = lines[i].split(",", 1)
        if duration == "0" and (i % 3 == 0 or i % 7 == 0):
            lines[i] = ("-0," if i % 3 == 0 else "1e-300,") + rest
    (directory / ZEROS_SLICE).write_text("".join(lines))


def slice_dir(data: str, tmp: Path) -> Path:
    """The directory a slice's runs run from: the checked-in slices', or
    `tmp` with ZEROS_SLICE written into it."""
    if data != ZEROS_SLICE:
        return DATA_DIR
    write_zeros_slice(tmp)
    return tmp


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


def run_digests(data: str, algo: str, variant: str, attrs: str, extra: tuple,
                out: Path) -> dict:
    """Run the CLI on a slice (from the slices' directory); the digests of
    the files it writes, the manifest aside, and of its summary without
    `runtime_seconds`."""
    command = "stream" if algo in STREAM_ALGOS else "batch"
    argv = [command, "--algo", algo, "--variant", variant, "--attrs", attrs,
            "--seed", "1", "--data", data, "--out", str(out), *extra]
    if command == "batch":
        argv += ["--folds", "3"]
    assert run_command(argv) == EXIT_OK
    stem = f"{Path(data).stem}_{variant}_{algo}_s1"
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


def check(data, algo, variant, attrs, extra, tmp_path, monkeypatch):
    # run from the slice's directory, so the summary's `dataset` is the
    # file name wherever the checkout lives
    monkeypatch.chdir(slice_dir(data, tmp_path))
    golden = json.loads(GOLDEN.read_text())
    got = run_digests(data, algo, variant, attrs, extra, tmp_path / "out")
    assert got == golden[data][algo][run_key(variant, attrs, extra)], (
        f"recorded with {golden['environment']}, run with {environment()}")


@pytest.mark.parametrize("variant,attrs", J48_RUNS)
def test_j48_outputs_match_the_golden_digests(variant, attrs, tmp_path,
                                              monkeypatch):
    check(NSL_SLICE, "j48", variant, attrs, (), tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "algo,variant,attrs,extra", RUNS,
    ids=[f"{a}-{run_key(v, s, e)}" for a, v, s, e in RUNS])
def test_learner_outputs_match_the_golden_digests(algo, variant, attrs, extra,
                                                  tmp_path, monkeypatch):
    check(NSL_SLICE, algo, variant, attrs, extra, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "algo,variant,attrs,extra", KDD_RUNS,
    ids=[f"{a}-{run_key(v, s, e)}" for a, v, s, e in KDD_RUNS])
def test_kdd99_slice_outputs_match_the_golden_digests(algo, variant, attrs,
                                                      extra, tmp_path,
                                                      monkeypatch):
    check(KDD_SLICE, algo, variant, attrs, extra, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "algo,variant,attrs,extra", ZEROS_RUNS,
    ids=[f"{a}-{run_key(v, s, e)}" for a, v, s, e in ZEROS_RUNS])
def test_signed_and_tiny_zero_outputs_match_the_golden_digests(
        algo, variant, attrs, extra, tmp_path, monkeypatch):
    check(ZEROS_SLICE, algo, variant, attrs, extra, tmp_path, monkeypatch)


def entries(golden: dict) -> dict:
    """(slice, algorithm, run) -> digests of a golden file's runs."""
    return {(data, algo, key): digests
            for data, algos in golden.items() if data != "environment"
            for algo, keyed in algos.items()
            for key, digests in keyed.items()}


def record() -> None:
    """Re-record every run's digests and print the entries that changed."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    runs: dict = {}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        for data, slice_runs in SLICE_RUNS.items():
            os.chdir(slice_dir(data, Path(tmp)))
            for i, (algo, variant, attrs, extra) in enumerate(slice_runs):
                runs.setdefault(data, {}).setdefault(algo, {})[
                    run_key(variant, attrs, extra)] = run_digests(
                        data, algo, variant, attrs, extra,
                        Path(tmp) / "runs" / data / str(i))
    now, before = entries(runs), entries(old)
    changes = []
    for entry in sorted(now.keys() | before.keys()):
        if now.get(entry) != before.get(entry):
            state = ("new" if entry not in before else
                     "gone" if entry not in now else "changed")
            changes.append(f"{state}: {' '.join(entry)}")
    if old.get("environment") != environment():
        changes.append(f"environment: was {old.get('environment')}, "
                       f"now {environment()}")
    print("\n".join(changes) or "no entry changed")
    GOLDEN.write_text(json.dumps(dict(runs, environment=environment()),
                                 indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
