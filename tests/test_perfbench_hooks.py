"""The benchmark's child process still finds every name it wraps.

`perfbench/child.py` replaces functions and methods of the program by name,
so a renamed or removed name breaks the benchmark, not the program's own
tests. Each case runs one traced round of a workload's CLI call on a small
file.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, span", [
    (["stream", "--algo", "ht"], "stream_learners.learn_row"),
    (["stream", "--algo", "wknn"], "stream_learners.learn_row"),
    (["stream", "--algo", "ozaboost"], "stream_learners.predict_code"),
    (["stream", "--algo", "snb"], "nbcore.log_scores"),
    (["batch", "--algo", "knn", "--folds", "3"], "batch_learners.knn_vote"),
    (["batch", "--algo", "j48", "--folds", "3"], "batch_learners.fit"),
    (["batch", "--algo", "nb", "--folds", "3"], "batch_learners.fit"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_traced_child_run_records_layer_spans(mini_kdd, tmp_path, argv,
                                              span):
    npz = tmp_path / "spans.npz"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--traced",
         "--out", str(npz), "--", *argv, "--data", str(mini_kdd),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with np.load(npz) as rec:
        meta = json.loads(str(rec["meta"]))
        recorded = {str(rec["names"][i]) for i in np.unique(rec["name"])}
    assert meta["exit_code"] == 0, done.stderr
    assert span in recorded
    assert "cli.run_command" in recorded
