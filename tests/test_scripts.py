"""The reproduce scripts report what the CLI reports for the same runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nidsbench.cli as cli
from nidsbench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run_command

from conftest import run_script

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str, cwd: Path = ROOT):
    """Run scripts/<name> in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=dict(os.environ, PYTHONPATH=path),
                          cwd=cwd, capture_output=True, text=True)


def _rows(stdout: str) -> dict[str, str]:
    """A script's table rows by name."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("algorithm"))
    return {line.split()[0]: line.split(maxsplit=1)[1]
            for line in lines[start + 1:] if line.strip()
            and not line.startswith("wrote ")}


def _script(name: str, *args: str) -> dict[str, str]:
    """Run scripts/<name>; its table rows by name."""
    done = _run_script(name, *args)
    assert done.returncode == EXIT_OK, done.stderr
    return _rows(done.stdout)


def _cli_summary(argv: list[str], out: Path) -> dict:
    assert run_command(argv + ["--out", str(out)]) == EXIT_OK
    summary, = out.glob(f"*_{argv[argv.index('--algo') + 1]}_s1_summary.json")
    return json.loads(summary.read_text())


def test_batch_script_prints_the_cli_accuracies(mini_kdd, tmp_path):
    rows = _script("reproduce_batch.py", "--data", str(mini_kdd),
                   "--folds", "3", "--algos", "nb,j48,knn3",
                   "--variants", "v1,v2", "--knn-sample", "60")
    cli_args = {"nb": ["--algo", "nb"], "j48": ["--algo", "j48"],
                "knn3": ["--algo", "knn", "--k", "3", "--sample", "60"]}
    assert sorted(rows) == sorted(cli_args)
    for algo, extra in cli_args.items():
        for vid, cell in zip(("v1", "v2"), rows[algo].split()):
            summary = _cli_summary(
                ["batch", "--data", str(mini_kdd), "--variant", vid,
                 "--folds", "3", *extra], tmp_path / algo / vid)
            assert cell == f"{summary['accuracy'] * 100:.2f}%", (algo, vid)


def test_stream_script_writes_the_cli_traces(mini_kdd, tmp_path):
    rows = _script("reproduce_stream.py", "--data", str(mini_kdd),
                   "--algos", "ht,wknn,snb", "--out", str(tmp_path / "s"))
    assert sorted(rows) == ["ht", "snb", "wknn"]
    for algo, row in rows.items():
        out = tmp_path / algo
        summary = _cli_summary(["stream", "--data", str(mini_kdd),
                                "--algo", algo], out)
        cumulative, _, _, drifts = row.split(maxsplit=3)
        assert cumulative == f"{summary['accuracy'] * 100:.2f}%", algo
        assert json.loads(drifts) == summary["drift_indices"], algo
        cli_trace, = out.glob("*_trace.csv")
        assert (tmp_path / "s" / f"{algo}_trace.csv").read_bytes() == \
            cli_trace.read_bytes(), algo


def test_scripts_evaluate_through_the_cli_names(mini_kdd, tmp_path,
                                                monkeypatch, capsys):
    # wrapped where perfbench/child.py wraps them: as nidsbench.cli globals
    calls = {"cross_validate": 0, "prequential_run": 0}
    for attr in calls:
        def counted(*args, _attr=attr, _call=getattr(cli, attr)):
            calls[_attr] += 1
            return _call(*args)
        monkeypatch.setattr(cli, attr, counted)
    monkeypatch.chdir(tmp_path)

    assert run_script("reproduce_batch", [
        "--data", str(mini_kdd), "--folds", "2", "--algos", "nb,svm",
        "--variants", "v1,v2"], monkeypatch) == EXIT_OK
    cells = " ".join(_rows(capsys.readouterr().out).values()).split()
    assert len(cells) == 4 and cells.count("-") == 1  # svm runs on v2 only
    assert calls == {"cross_validate": 3, "prequential_run": 0}

    assert run_script("reproduce_stream", [
        "--data", str(mini_kdd), "--algos", "snb,ht"], monkeypatch) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 2
    assert calls == {"cross_validate": 3, "prequential_run": 2}


@pytest.mark.parametrize("script, args, code, message", [
    ("reproduce_batch.py", ["--seed", "-1"], EXIT_USAGE, "need seed >= 0"),
    ("reproduce_batch.py", ["--folds", "1"], EXIT_USAGE, "need folds >= 2"),
    ("reproduce_batch.py", ["--knn-sample", "-1"], EXIT_USAGE,
     "need knn-sample >= 0"),
    ("reproduce_batch.py", ["--seed", "x"], EXIT_USAGE,
     "ASCII digits, got 'x'"),
    ("reproduce_batch.py", ["--knn-sample", "1_0"], EXIT_USAGE,
     "need knn-sample >= 0 in ASCII digits, got '1_0'"),
    ("reproduce_stream.py", ["--seed", "+1"], EXIT_USAGE,
     "need seed >= 0 in ASCII digits, got '+1'"),
    ("reproduce_stream.py", ["--seed", "-1"], EXIT_USAGE, "need seed >= 0"),
    ("reproduce_stream.py", ["--alpha", "0"], EXIT_USAGE,
     "need 0 < alpha <= 1"),
    ("reproduce_batch.py", ["--algos", "foo"], EXIT_USAGE,
     "need algorithms from nb, j48, mlp, svm, knnK with K >= 1, got 'foo'"),
    ("reproduce_batch.py", ["--algos", "nb,knn0"], EXIT_USAGE,
     "got 'nb,knn0'"),
    ("reproduce_batch.py", ["--algos", "knn+1"], EXIT_USAGE,
     "need algorithms from nb, j48, mlp, svm, knnK with K >= 1, got 'knn+1'"),
    ("reproduce_batch.py", ["--variants", "v9"], EXIT_USAGE,
     "need variants from v1, v2, v3, got 'v9'"),
    ("reproduce_stream.py", ["--algos", "foo"], EXIT_USAGE,
     "need algorithms from snb, ht, wknn, ozaboost, got 'foo'"),
    ("reproduce_batch.py", [], EXIT_DATA, "data error: no such data file"),
    ("reproduce_stream.py", [], EXIT_DATA, "data error: no such data file"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_script_errors_exit_as_the_cli_does(tmp_path, script, args, code,
                                            message):
    # the data file does not exist: a usage error shows the flag was
    # checked before anything was read
    done = _run_script(script, "--data", str(tmp_path / "nope.csv"), *args,
                       cwd=tmp_path)
    assert done.returncode == code, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("script", ["reproduce_batch.py",
                                    "reproduce_stream.py"])
def test_script_on_a_malformed_file_is_data_error(tmp_path, script):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    done = _run_script(script, "--data", str(bad), cwd=tmp_path)
    assert done.returncode == EXIT_DATA, done.stderr
    assert done.stderr.startswith("data error: ")
    assert "Traceback" not in done.stderr
