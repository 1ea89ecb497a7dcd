"""The reproduce scripts report what the CLI reports for the same runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from nidsbench.cli import EXIT_OK, run_command

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, *args: str) -> dict[str, str]:
    """Run scripts/<name> in a fresh interpreter; its table rows by name."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("algorithm"))
    return {line.split()[0]: line.split(maxsplit=1)[1]
            for line in lines[start + 1:] if line.strip()
            and not line.startswith("wrote ")}


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
