"""`src/` holds only what a command runs, and checks each input once.

One sweep runs every command under a `sys.settrace` hook that records the
calls of every frame and the lines of frames in `src/nidsbench`:

- every batch and stream learner, `rank`, `preprocess --normalize`,
  `report`, `fetch` (from a `file://` URL, offline) and a run on the
  fetched copy, `--help`, a usage error, no command at all, and both
  reproduce scripts, on the first 600 rows of the golden slice: enough for
  a Hoeffding leaf to reach its grace period and try a split;
- one command per data error, each ending in exit 2 with its message: a
  missing file; a name that is not in the cache; an empty file; a
  truncated gzip file; a bad UTF-8 byte; a wrong field count; an
  unparsable number; a non-finite value; an empty nominal value; an empty
  label; an unknown attack label under v1; more folds than rows; `--k`
  larger than the training set; an SVM training fold without attacks; a
  fetch with a wrong digest, from a `file://` URL that does not exist, and
  from a URL without a scheme; `report` on a directory without trace files,
  on a trace file without rows, on one with a malformed row and on one whose
  last row has no newline.

Every `def` in `src/nidsbench/*.py`, nested ones included, must be called
during the sweep, and every `raise` must run. A function no command reaches
is test-only code, which belongs in `tests/`, or dead code; a `raise` no
command reaches repeats a check made where the input enters, or guards a
state no input can bring about. The few that stay for another reason are
listed in ALLOWED and ALLOWED_RAISES with that reason.
"""

import ast
import contextlib
import gzip
import hashlib
import io
import sys
from pathlib import Path

import pytest

from nidsbench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run_command

from conftest import run_script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nidsbench"
SLICE = Path(__file__).resolve().parent / "data" / "nsl_s1_head1500.txt.gz"
HEAD_ROWS = 600
# rows of the files that carry a data error
SMALL_ROWS = 10

# functions no command calls, each with the reason it stays
ALLOWED = {
    "cli.main": "the console entry point; the sweep calls run_command, "
                "which is all it wraps",
    "evaluation.metrics": "per-class precision and recall; ROADMAP item 3 "
                          "decides whether summaries report them",
    "batch_learners.DecisionTree.n_leaves": "perfbench/child.py reads it; "
                                            "ROADMAP item 3 decides on it",
    "batch_learners.DecisionTree.depth": "perfbench/child.py reads it; "
                                         "ROADMAP item 3 decides on it",
}

# "function: exception" of raises no command runs: program-fault guards,
# which end a run with exit 3
ALLOWED_RAISES = {
    "batch_learners.BatchModel.predict_dataset: ValueError":
        "a model fitted on one schema given data of another; every command "
        "fits and predicts on subsets of one prepared dataset",
    "batch_learners.Pipeline.predict_dataset: ValueError":
        "as BatchModel.predict_dataset",
    "evaluation.prequential_run: ValueError":
        "a stream coded against another schema than its model's; every "
        "command builds the model from the stream's schema",
    "preprocess.apply_normalizer: ValueError":
        "a normalizer fitted on another schema; every command fits it on "
        "the data it scales, a prefix of it or its training fold",
    "evaluation.confusion_matrix: ValueError":
        "a learner that predicts no integer class code in [0, C)",
    "dataset._code_block: RuntimeError":
        "the block check and the per-line parse disagree on a block",
    "batch_learners.MLP._fit: TrainingError":
        "non-finite weights; its inputs are scaled to [0, 1]",
}


def _visit(handle):
    """handle(path, node, dotted name of its function) for every node under
    src/nidsbench; module-level nodes get the module's name."""
    def visit(node, path, prefix, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handle(path, child, prefix + child.name)
                visit(child, path, f"{prefix}{child.name}.",
                      prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", func)
            else:
                handle(path, child, func)
                visit(child, path, prefix, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), f"{path.stem}.",
              path.stem)


def defined_functions() -> dict:
    """(file, first line) -> dotted name of every def under src/nidsbench.

    The first line is that of the first decorator, as in `co_firstlineno`.
    """
    found = {}

    def handle(path, node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path), first)] = name

    _visit(handle)
    return found


def defined_raises() -> dict:
    """(file, line) -> "function: exception" of every raise under
    src/nidsbench; a bare re-raise names "raise"."""
    found = {}

    def handle(path, node, func):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found[(str(path), node.lineno)] = \
                f"{func}: {ast.unparse(exc) if exc else 'raise'}"

    _visit(handle)
    return found


def traced(body) -> tuple[set, set]:
    """(calls, lines) while body() runs: the (file, first line) of every code
    object called, and the (file, line) of every line run in src/nidsbench."""
    calls, lines = set(), set()
    in_src = {}  # co_filename -> whether it is a file of src/nidsbench

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        calls.add((name, frame.f_code.co_firstlineno))
        if name not in in_src:
            in_src[name] = Path(name).resolve().parent == SRC
        return on_line if in_src[name] else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        body()
    finally:
        sys.settrace(previous)
    return ({(str(Path(f).resolve()), n) for f, n in calls},
            {(str(Path(f).resolve()), n) for f, n in lines})


def _expect(argv, code, message=""):
    """Run one command; it must exit with `code` and print `message`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv) == code, (argv, err.getvalue())
    assert message in err.getvalue(), (argv, err.getvalue())


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
        _expect(argv + data + out, EXIT_OK)
    _expect(["report", *out], EXIT_OK)

    cache = tmp_path / "cache"
    digest = hashlib.sha256(head.read_bytes()).hexdigest()
    monkeypatch.setenv("NIDSBENCH_CACHE", str(cache))
    _expect(["fetch", "--data", "nsl-kdd", "--url", head.as_uri(),
             "--sha256", digest], EXIT_OK)
    _expect(["rank", "--data", "nsl-kdd"], EXIT_OK)
    _expect(["batch", "--algo", "knn", "--k", "0"], EXIT_USAGE)
    _expect(["batch", "--algo", "knn", "--k", "+1"], EXIT_USAGE,
            "need k >= 1 in ASCII digits, got '+1'")
    _expect([], EXIT_USAGE)
    _expect(["--help"], EXIT_OK)

    # data errors, each on a small file
    lines = head.read_text().splitlines()[:SMALL_ROWS]

    def file_with(name, edit=None, rows=lines):
        """A copy of `rows` whose middle line's fields are edit(fields)."""
        rows = [line.split(",") for line in rows]
        if edit:
            rows[len(rows) // 2] = edit(rows[len(rows) // 2])
        path = tmp_path / name
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        return str(path)

    def field(pos, value):
        return lambda fields: fields[:pos] + [value] + fields[pos + 1:]

    faulty = [
        (str(tmp_path / "nowhere.txt"), "no such data file"),
        ("kdd99-10", "dataset 'kdd99-10' not in cache"),
        (file_with("empty.txt", rows=[]), "empty.txt: no instances"),
        (file_with("count.txt", lambda f: f[:40]),
         "line 6: expected 42 fields, got 40"),
        (file_with("number.txt", field(0, "zzz")),
         "line 6: field 1 (duration): cannot parse 'zzz'"),
        (file_with("inf.txt", field(4, "inf")),
         "line 6: field 5 (src_bytes): non-finite value 'inf'"),
        (file_with("nominal.txt", field(1, "")),
         "line 6: field 2 (protocol_type): empty value"),
        (file_with("label.txt", field(-2, "")), "line 6: empty class label"),
        (file_with("attack.txt", field(-2, "zero_day")),
         "unknown attack label 'zero_day' under variant v1"),
    ]
    truncated = tmp_path / "cut.gz"
    whole = gzip.compress(Path(file_with("whole.txt")).read_bytes())
    truncated.write_bytes(whole[:len(whole) // 2])
    utf8 = tmp_path / "utf8.txt"
    utf8.write_bytes(Path(file_with("ascii.txt")).read_bytes()
                     .replace(b"normal", b"norm\xffal", 1))
    faulty += [(str(truncated), "cut.gz: corrupt or truncated gzip data"),
               (str(utf8), "utf8.txt: line 1: invalid UTF-8 byte b'\\xff'")]
    for path, message in faulty:
        _expect(["batch", "--algo", "nb", "--data", path, *out], EXIT_DATA,
                message)

    three = ["--data", file_with("three.txt", rows=lines[:3]), *out]
    _expect(["batch", "--algo", "nb", "--folds", "10", *three], EXIT_DATA,
            "10 folds exceed 3 instances")
    _expect(["batch", "--algo", "knn", "--folds", "2", "--k", "5", *three],
            EXIT_DATA, "k=5 exceeds training size")
    normal = file_with("normal.txt", rows=[x for x in lines if ",normal," in x])
    _expect(["batch", "--algo", "svm", "--variant", "v2", "--folds", "2",
             "--data", normal, *out], EXIT_DATA,
            "SVM training fold has no 'attack' instance")

    fetch = ["fetch", "--data", "kdd99-10", "--sha256"]
    _expect([*fetch, "00" * 32, "--url", head.as_uri()], EXIT_DATA,
            "digest mismatch")
    _expect([*fetch, digest, "--url", (tmp_path / "gone.gz").as_uri()],
            EXIT_DATA, "No such file")
    _expect([*fetch, digest, "--url", "nowhere"], EXIT_DATA,
            "unknown url type: 'nowhere'")

    for name, text, message in [
            ("none", None, "no *_trace.csv files"),
            ("header", "index,correct,faded_accuracy,cumulative_accuracy\n",
             "a_trace.csv: no trace rows"),
            ("short", "index,correct,faded_accuracy,cumulative_accuracy\n"
             "1,1\n", "a_trace.csv: line 2: not a trace row: '1,1'"),
            ("unended", "index,correct,faded_accuracy,cumulative_accuracy\n"
             "1,1,1.0,1.0", "a_trace.csv: line 2: no newline at the end")]:
        report = tmp_path / name
        report.mkdir()
        if text is not None:
            (report / "a_trace.csv").write_text(text)
        _expect(["report", "--out", str(report)], EXIT_DATA, message)

    assert run_script("reproduce_batch", [
        *data, "--folds", "2", "--algos", "nb", "--variants", "v2"],
        monkeypatch) == EXIT_OK
    assert run_script("reproduce_stream", [
        *data, "--algos", "snb", "--out", str(tmp_path / "script")],
        monkeypatch) == EXIT_OK


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """(calls, lines) of one traced sweep, shared by the tests below."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return traced(lambda: sweep(tmp_path_factory.mktemp("sweep"),
                                    monkeypatch))


def test_every_src_function_is_called_by_a_command(swept):
    calls, _ = swept
    uncalled = {name for key, name in defined_functions().items()
                if key not in calls}
    never = sorted(uncalled - set(ALLOWED))
    assert not never, f"no command calls {', '.join(never)}"
    # an allowed function that a command calls, or that is gone, loses its
    # entry
    assert set(ALLOWED) <= uncalled, sorted(set(ALLOWED) - uncalled)


def test_every_src_raise_is_run_by_a_command(swept):
    _, lines = swept
    unreached = {name for key, name in defined_raises().items()
                 if key not in lines}
    never = sorted(unreached - set(ALLOWED_RAISES))
    assert not never, f"no command runs the raise of {', '.join(never)}"
    assert set(ALLOWED_RAISES) <= unreached, \
        sorted(set(ALLOWED_RAISES) - unreached)


def test_the_scan_finds_nested_and_decorated_defs():
    names = set(defined_functions().values())
    assert {"cli.checked.convert", "batch_learners.LinearSVM._smo.examine",
            "dataset.AttributeSchema.n_attributes",
            "batch_learners.LinearSVM._smo.try_step"} <= names


def test_the_scan_names_each_raise_by_function_and_exception():
    raises = set(defined_raises().values())
    assert {"cli.checked.convert: argparse.ArgumentTypeError",
            "dataset.fetch_dataset: raise",
            "dataset.fetch_dataset: IntegrityError",
            "cli.ArgParser.exit: _ExitRequest"} <= raises
