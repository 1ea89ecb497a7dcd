"""`src/` holds only what a command runs.

Every `def` in `src/nidsbench/*.py`, nested ones included, must be called
by at least one command: every batch and stream learner, `rank`,
`preprocess --normalize`, `report`, `fetch` (from a `file://` URL, offline)
and a run on the fetched copy, a usage error, a run on a file with one
unparsable number, `--help` and both reproduce scripts. The commands run
in-process under a `sys.settrace` hook that sees call events only, on the
first 600 rows of the golden slice: enough for a Hoeffding leaf to reach
its grace period and try a split.

A function no command reaches is either test-only code, which belongs in
`tests/`, or dead code. The few that stay for another reason are listed in
ALLOWED with that reason.
"""

import ast
import gzip
import hashlib
import sys
from pathlib import Path

from nidsbench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run_command

from conftest import run_script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nidsbench"
SLICE = Path(__file__).resolve().parent / "data" / "nsl_s1_head1500.txt.gz"
HEAD_ROWS = 600

# functions no command calls, each with the reason it stays
ALLOWED = {
    "cli.main": "the console entry point; the sweep calls run_command, "
                "which is all it wraps",
    "evaluation.metrics": "per-class precision and recall; ROADMAP item 5 "
                          "decides whether summaries report them",
    "batch_learners.DecisionTree.n_leaves": "perfbench/child.py reads it; "
                                            "ROADMAP item 5 decides on it",
    "batch_learners.DecisionTree.depth": "perfbench/child.py reads it; "
                                         "ROADMAP item 5 decides on it",
}


def defined_functions() -> dict:
    """(file, first line) -> dotted name of every def under src/nidsbench.

    The first line is that of the first decorator, as in `co_firstlineno`.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), f"{path.stem}.")
    return found


def traced_calls(body) -> set:
    """(file, first line) of every code object called while body() runs."""
    seen = set()

    def on_call(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        # no local trace function: line, return and exception events stay off

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        body()
    finally:
        sys.settrace(previous)
    return {(str(Path(f).resolve()), line) for f, line in seen}


def sweep(tmp_path, monkeypatch) -> None:
    """Every command once; each must end with the exit code it should."""
    head = tmp_path / "head.txt"
    with gzip.open(SLICE, "rt") as fh:
        head.write_text("".join(next(fh) for _ in range(HEAD_ROWS)))
    data = ["--data", str(head)]
    out = ["--out", str(tmp_path / "runs")]
    runs = [
        ["batch", "--algo", "nb", "--folds", "2"],
        ["batch", "--algo", "j48", "--folds", "2", "--variant", "v3",
         "--attrs", "all"],
        ["batch", "--algo", "knn", "--folds", "2", "--sample", "200"],
        ["batch", "--algo", "mlp", "--folds", "2"],
        ["batch", "--algo", "svm", "--folds", "2", "--variant", "v2"],
        ["stream", "--algo", "snb"],
        ["stream", "--algo", "ht"],
        ["stream", "--algo", "wknn"],
        ["stream", "--algo", "ozaboost", "--variant", "v3", "--attrs", "all"],
        ["preprocess", "--normalize"],
    ]
    for argv in runs:
        assert run_command(argv + data + out) == EXIT_OK, argv
    assert run_command(["report", *out]) == EXIT_OK

    cache = tmp_path / "cache"
    digest = hashlib.sha256(head.read_bytes()).hexdigest()
    monkeypatch.setenv("NIDSBENCH_CACHE", str(cache))
    assert run_command(["fetch", "--data", "nsl-kdd", "--url",
                        head.as_uri(), "--sha256", digest]) == EXIT_OK
    assert run_command(["rank", "--data", "nsl-kdd"]) == EXIT_OK

    assert run_command(["batch", "--algo", "knn", "--k", "0"]) == EXIT_USAGE
    bad = tmp_path / "bad.txt"
    lines = head.read_text().splitlines(keepends=True)
    lines[HEAD_ROWS // 2] = "zzz," + lines[HEAD_ROWS // 2].split(",", 1)[1]
    bad.write_text("".join(lines))
    assert run_command(["batch", "--algo", "nb", "--data", str(bad),
                        *out]) == EXIT_DATA
    assert run_command(["--help"]) == EXIT_OK

    assert run_script("reproduce_batch", [
        *data, "--folds", "2", "--algos", "nb", "--variants", "v2"],
        monkeypatch) == EXIT_OK
    assert run_script("reproduce_stream", [
        *data, "--algos", "snb", "--out", str(tmp_path / "script")],
        monkeypatch) == EXIT_OK


def test_every_src_function_is_called_by_a_command(tmp_path, monkeypatch):
    defined = defined_functions()
    called = traced_calls(lambda: sweep(tmp_path, monkeypatch))
    uncalled = {name for key, name in defined.items() if key not in called}
    never = sorted(uncalled - set(ALLOWED))
    assert not never, f"no command calls {', '.join(never)}"
    # an allowed function that a command calls, or that is gone, loses its
    # entry
    assert set(ALLOWED) <= uncalled, sorted(set(ALLOWED) - uncalled)


def test_the_scan_finds_nested_and_decorated_defs():
    names = set(defined_functions().values())
    assert {"cli.checked.convert", "batch_learners.LinearSVM._smo.examine",
            "dataset.AttributeSchema.n_attributes",
            "batch_learners.LinearSVM._smo.try_step"} <= names
