"""The benchmark's child process still finds every name it wraps.

`perfbench/child.py` replaces functions and methods of the program by name,
so a renamed or removed name breaks the benchmark, not the program's own
tests. Each case runs one traced round of a workload's CLI call on a small
file, and checks that the spans of the names the call reaches are recorded.
`ht` and `ozaboost` run their own prequential loop, which calls no
`predict_code` or `learn_row`, so they run on the golden KDD99 slice, where
their trees attempt splits, and check the split test's span. `nb` fits all
its folds in one pass, which calls no `fit`, so it checks the spans of its
predictions.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nidsbench.batch_learners import NaiveBayes
from nidsbench.cli import run_command

ROOT = Path(__file__).resolve().parent.parent


# the golden KDD99 slice, where the Hoeffding trees attempt splits
KDD_SLICE = ROOT / "tests" / "data" / "kdd99_s1_head5000.data.gz"
# the golden NSL-KDD slice, 1,500 rows of 21 labels
NSL_SLICE = ROOT / "tests" / "data" / "nsl_s1_head1500.txt.gz"


# (CLI arguments, data file or None for the mini_kdd file, spans)
CASES = [
    (["stream", "--algo", "ht"], KDD_SLICE,
     ["stream_learners.hoeffding_bound"]),
    (["stream", "--algo", "wknn"], None, ["stream_learners.learn_row"]),
    (["stream", "--algo", "ozaboost"], KDD_SLICE,
     ["stream_learners.hoeffding_bound"]),
    (["stream", "--algo", "snb"], None,
     ["nbcore.log_scores", "stream_learners.predict_code"]),
    (["batch", "--algo", "knn", "--folds", "3"], None,
     ["batch_learners.knn_vote"]),
    (["batch", "--algo", "j48", "--folds", "3"], None,
     ["batch_learners.fit"]),
    (["batch", "--algo", "nb", "--folds", "3"], None,
     ["batch_learners.predict_dataset", "nbcore.log_scores"]),
]


@pytest.mark.parametrize("argv, data, spans", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_traced_child_run_records_layer_spans(mini_kdd, tmp_path, argv, data,
                                              spans):
    npz = tmp_path / "spans.npz"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--traced",
         "--out", str(npz), "--", *argv, "--data", str(data or mini_kdd),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with np.load(npz) as rec:
        meta = json.loads(str(rec["meta"]))
        recorded = {str(rec["names"][i]) for i in np.unique(rec["name"])}
    assert meta["exit_code"] == 0, done.stderr
    assert set(spans) <= recorded
    assert "cli.run_command" in recorded


@pytest.mark.parametrize("variant, attrs", [("v1", "selected"), ("v3", "all")])
def test_traced_nb_confusion_equals_the_per_fold_fits(tmp_path, monkeypatch,
                                                      variant, attrs):
    # the one-pass fold fit, under the child's wrappers, against a fit of
    # each fold's model on its own training rows
    argv = ["batch", "--algo", "nb", "--variant", variant, "--attrs", attrs,
            "--data", str(NSL_SLICE)]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--traced",
         "--out", str(tmp_path / "spans.npz"), "--", *argv,
         "--out", str(tmp_path / "traced")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    monkeypatch.delattr(NaiveBayes, "fit_folds")
    assert run_command([*argv, "--out", str(tmp_path / "per_fold")]) == 0
    name = f"{NSL_SLICE.stem}_{variant}_nb_s1_confusion.csv"
    assert (tmp_path / "traced" / name).read_bytes() \
        == (tmp_path / "per_fold" / name).read_bytes()
