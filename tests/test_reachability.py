"""Every line of a function under `src/` runs in a command, or goes.

One sweep runs commands under a `sys.settrace` hook that records the lines
run in `src/nidsbench`:

- every batch and stream learner, `rank`, `preprocess --normalize`,
  `report`, `fetch` (from a `file://` URL, offline) and a run on the
  fetched copy, `--help`, no command at all, and both reproduce scripts, on
  the first 600 rows of the golden NSL slice;
- `ht` and `ozaboost` v2 on the golden KDD99 slice, whose trees split below
  the root and whose traces hold two drift episodes. Its 5,000 rows make
  two routing blocks. There OzaBoost members split during their
  Poisson-weighted learns of a row and route it, and their later rows of
  the block, again, their Poisson draws use up several blocks of uniforms,
  and each run ends with leaves that fold their pending rows
  mid-grace-period;
- small files made for one path each: a stream of one repeated line (a
  pure Hoeffding leaf, a trace without drift), a short stream of one
  repeated feature row under two labels (no split candidate), a stream
  whose only candidate has a gain of 0.0, a windowed k-NN stream through a
  window of 4 that evicts rows, ties at the k-th distance, answers a query
  from k copies of its row and, once it has learned a row that is not
  regular, scores such a query instead, a J48 file
  with a nominal split, a zero-gain nominal column, a symbol no training
  row at the node holds and a cut between adjacent doubles, and an SVM file
  with two equal rows under both labels;
- explicit `--attrs` lists, numeric-only `mlp` and nominal-only `knn`;
- a `fetch` of a cached file and of a stale one;
- every usage error the dispatcher raises, and a malformed `--attrs`;
- one command per data error, each ending in exit 2 with its message: a
  missing file; a name that is not in the cache; an empty file; a
  truncated gzip file; a bad UTF-8 byte; a wrong field count, in a file
  with and one without dotted labels; an unparsable number; a non-finite
  value; an empty nominal value; an empty label; an unknown attack label
  under v1; more folds than rows; `--k` larger than the training set; an
  SVM training fold without attacks; a fetch with a wrong digest, from a
  `file://` URL that does not exist, and from a URL without a scheme;
  `report` on a directory without trace files, on a trace file without
  rows, on one with a malformed row and on one whose last row has no
  newline.

Every statement of every function body under `src/nidsbench`, nested
functions included, must run in the sweep. A statement runs when one of its
lines does; a compound statement's lines include its body's. A statement no
command runs is dead code, a check that repeats one made where the input
enters, or test-only code, which belongs in `tests/`. The few that stay for
another reason, program-fault guards mostly, are listed in ALLOWED with that
reason, keyed by function and the statement's first line rather than by
line number, so that edits elsewhere leave the entries valid.
"""

import ast
import contextlib
import gzip
import hashlib
import importlib.util
import io
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import nidsbench.stream_learners as stream_learners
from nidsbench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run_command

from conftest import run_script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nidsbench"
DATA = Path(__file__).resolve().parent / "data"
NSL_SLICE = DATA / "nsl_s1_head1500.txt.gz"
KDD_SLICE = DATA / "kdd99_s1_head5000.data.gz"
HEAD_ROWS = 600
# rows of the files that carry a data error
SMALL_ROWS = 10

# "module.function" (all of its statements) or "module.function: first line
# of a statement" (that statement and those nested in it) that no command
# runs, each with the reason it stays
_SCHEMA_FAULT = ("a model or normalizer fitted on one schema given data of "
                 "another; every command fits and predicts on subsets of one "
                 "prepared dataset")
_PER_ROW = ("a one-row form of the learner's own prequential loop, kept "
            "for the StreamModel contract and for perfbench/child.py, which "
            "wraps it by name; every command runs that loop")
ALLOWED = {
    "cli.main": "the console entry point; the sweep calls run_command, "
                "which is all it wraps",
    "cli.run_guarded: except Exception as exc:":
        "exit 3 for a program fault, which no input brings about",
    "evaluation.metrics": "per-class precision and recall; ROADMAP item 3 "
                          "decides whether summaries report them",
    "stream_learners.HoeffdingTree.predict_code": _PER_ROW,
    "stream_learners.HoeffdingTree.learn_row": _PER_ROW,
    "stream_learners.OzaBoost.predict_code": _PER_ROW,
    "stream_learners.OzaBoost.learn_row": _PER_ROW,
    "batch_learners.NaiveBayes._fit":
        "the single-fit reference that tests check `fold_statistics`, "
        "which every batch nb command runs instead, against",
    "batch_learners.DecisionTree.n_leaves": "perfbench/child.py reads it; "
                                            "ROADMAP item 3 decides on it",
    "batch_learners.DecisionTree.depth": "perfbench/child.py reads it; "
                                         "ROADMAP item 3 decides on it",
    'batch_learners.BatchModel.predict_dataset: raise ValueError("dataset '
    'schema differs from the fitted schema")': _SCHEMA_FAULT,
    'batch_learners.Pipeline.predict_dataset: raise ValueError("dataset '
    'schema differs from the fitted schema")': _SCHEMA_FAULT,
    'preprocess.apply_normalizer: raise ValueError("normalizer was fitted on '
    'a different schema")': _SCHEMA_FAULT,
    'evaluation.prequential_run: raise ValueError("stream schema differs '
    'from the model\'s schema")':
        "a stream coded against another schema than its model's; every "
        "command builds the model from the stream's schema",
    'evaluation.confusion_matrix: raise ValueError(f"predicted class codes '
    'of dtype {predicted.dtype}, "':
        "a learner that predicts no integer class code",
    'evaluation.confusion_matrix: raise ValueError(f"instance {bad[0] + 1}: '
    'predicted class code "':
        "a learner that predicts a class code outside [0, C)",
    'dataset._code_block: raise RuntimeError(f"lines '
    '{line_nos[0]}-{line_nos[-1]}: the block "':
        "the block check and the per-line parse disagree on a block",
    "batch_learners.MLP._fit: raise TrainingError(":
        "non-finite weights; its inputs are scaled to [0, 1]",
}


class Statement(NamedTuple):
    file: str
    lines: range  # its lines, a compound statement's body included
    key: str  # "module.function: first line"
    within: tuple  # keys of the statements it is nested in, outermost first


def statements(paths) -> list[Statement]:
    """Every statement of every function body in `paths`, nested functions
    included, less docstrings and `global`/`nonlocal` declarations, which
    run no code. An `except` clause counts as a statement of its own."""
    found = []

    def scan(nodes, path, source, func, within):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Global, ast.Nonlocal)):
                continue
            key = f"{func}: {source[node.lineno - 1].strip()}"
            found.append(Statement(path, range(node.lineno,
                                               node.end_lineno + 1),
                                   key, within))
            for field in ("body", "orelse", "handlers", "finalbody"):
                scan(getattr(node, field, []), path, source, func,
                     within + (key,))

    def visit(node, path, source, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if ast.get_docstring(child) is not None:
                    body = body[1:]
                scan(body, path, source, prefix + child.name, ())
                visit(child, path, source, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, source, f"{prefix}{child.name}.")
            else:
                visit(child, path, source, prefix)

    for path in paths:
        text = Path(path).read_text()
        visit(ast.parse(text), str(Path(path).resolve()), text.splitlines(),
              f"{Path(path).stem}.")
    return found


def unrun(units: list[Statement], lines: set, allowed) -> tuple[list, list]:
    """(keys of the statements none of whose lines is in `lines` and that no
    entry of `allowed` covers, the entries that cover no such statement)."""
    allowed, never, used = set(allowed), [], set()
    for s in units:
        if any((s.file, n) in lines for n in s.lines):
            continue
        covering = {s.key.split(": ", 1)[0], s.key, *s.within} & allowed
        used |= covering
        if not covering:
            never.append(s.key)
    return never, sorted(allowed - used)


def traced(body, root: Path = SRC) -> set:
    """The (file, line) of every line run in a file directly under `root`
    while body() runs."""
    lines = set()
    under_root = {}  # co_filename -> whether its file is directly under root

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in under_root:
            under_root[name] = Path(name).resolve().parent == root
        return on_line if under_root[name] else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        body()
    finally:
        sys.settrace(previous)
    return {(str(Path(f).resolve()), n) for f, n in lines}


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
    with gzip.open(NSL_SLICE, "rt") as fh:
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
        # numeric-only and nominal-only attribute lists
        ["batch", "--algo", "mlp", "--folds", "2", "--attrs", "1,5,6"],
        ["batch", "--algo", "knn", "--folds", "2", "--attrs", "2,3,4"],
    ]
    for argv in runs:
        _expect(argv + data + out, EXIT_OK)
    _expect(["report", *out], EXIT_OK)
    for algo in ("ht", "ozaboost"):
        _expect(["stream", "--algo", algo, "--data", str(KDD_SLICE), *out],
                EXIT_OK)

    cache = tmp_path / "cache"
    digest = hashlib.sha256(head.read_bytes()).hexdigest()
    monkeypatch.setenv("NIDSBENCH_CACHE", str(cache))
    fetch = ["fetch", "--data", "nsl-kdd", "--url", head.as_uri(),
             "--sha256", digest]
    _expect(fetch, EXIT_OK)
    _expect(fetch, EXIT_OK)  # cached
    (cache / "nsl-kdd.txt").write_text("stale\n")
    _expect(fetch, EXIT_OK)
    _expect(["rank", "--data", "nsl-kdd", "--attrs", "1,2,5"], EXIT_OK)

    for argv, message in [
            (["batch", "--algo", "knn", "--k", "0"], "need k >= 1"),
            (["batch", "--algo", "knn", "--k", "+1"],
             "need k >= 1 in ASCII digits, got '+1'"),
            (["batch", "--algo", "nb", "--k", "3"],
             "--k: applies to --algo knn and wknn only"),
            (["stream", "--algo", "wknn", "--k", "5001"],
             "need k <= WKNN_WINDOW=5000 for wknn, got 5001"),
            (["fetch", "--data", "x", "--sha256", digest],
             "no default URL for 'x'; pass --url"),
            (["batch", "--algo", "j48", "--sample", "10"],
             "--sample applies to --algo knn only"),
            (["batch", "--algo", "svm", "--variant", "v1"],
             "--algo svm applies to --variant v2 only"),
            (["rank", "--attrs", "x"], "need all, selected or strictly"),
            ([], "usage: nidsbench")]:
        _expect(argv, EXIT_USAGE, message)
    _expect(["--help"], EXIT_OK)

    # small files, each made for the paths named above it
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

    def record(label, at=()):
        """The first line, an NSL record of 43 fields, with its label and
        the field at each 0-based position of `at` set to its value."""
        fields = lines[0].split(",")
        fields[-2] = label
        for pos, value in dict(at).items():
            fields[pos] = value
        return ",".join(fields)

    # a pure leaf at its grace period, and a trace longer than the drift
    # window without a drop
    _expect(["stream", "--algo", "ht", "--data",
             file_with("same.txt", rows=[lines[0]] * 600), *out], EXIT_OK)
    # two bursts of errors far enough apart to be two drift episodes
    burst = [record("normal")] * 600 + [record("neptune")] * 30
    _expect(["stream", "--algo", "snb", "--data",
             file_with("bursts.txt", rows=burst * 2), *out], EXIT_OK)
    # 250 rows alike but for their labels: no split candidate, and a trace
    # no longer than the drift window
    _expect(["stream", "--algo", "ht", "--data",
             file_with("alike.txt", rows=[record("normal"),
                                          record("neptune")] * 125), *out],
            EXIT_OK)
    # 200 rows of two balanced classes whose protocols are mixed alike: the
    # split attempt searches (the class entropy, 1, exceeds the bound) and
    # finds no candidate with a positive gain
    mixed = [record(label, {1: proto}) for proto in ("tcp", "udp")
             for label in ("normal", "neptune")] * 50
    _expect(["stream", "--algo", "ht", "--data",
             file_with("nogain.txt", rows=mixed), *out], EXIT_OK)
    # windowed k-NN (k = 3) through a window of 4, on rows that differ in
    # their duration alone: a row twice under two labels (fewer distinct
    # rows than k), the query between two rows at equal distance (a tie at
    # the k-th distance), then copies of the first row that evict the other
    # rows, the older with the table's last entry moved into its place, the
    # newer as the last entry itself; the last copy's query finds three in
    # the window and is answered without scoring. Then a duration of
    # 1e-300, which normalizes to a value that is not regular, so that the
    # next query of a row with three copies is scored.
    wknn = [record(label, {0: duration}) for label, duration in
            [("normal", "1"), ("neptune", "1"), ("normal", "0"),
             ("neptune", "2")] + [("normal", "1")] * 4
            + [("normal", "1e-300"), ("normal", "1")]]
    with pytest.MonkeyPatch.context() as window:
        window.setattr(stream_learners, "WKNN_WINDOW", 4)
        _expect(["stream", "--algo", "wknn", "--data",
                 file_with("window.txt", rows=wknn), *out], EXIT_OK)
    # J48, one instance per fold. The protocol splits the classes. The fold
    # that tests the icmp row trains without one, on two rows of each class
    # and flag, so the flag column has no gain there. Duration splits the
    # classes too, between adjacent doubles whose midpoint rounds up to the
    # larger.
    low, high = "1.0000000000000002", "1.0000000000000004"
    j48 = [record(label, {0: duration, 1: proto, 3: flag})
           for label, duration, proto in [("normal", low, "tcp"),
                                          ("neptune", high, "udp")]
           for flag in ("SF", "S0") * 2]
    j48.append(record("normal", {0: low, 1: "icmp", 3: "SF"}))
    _expect(["batch", "--algo", "j48", "--folds", str(len(j48)),
             "--attrs", "1,2,4", "--data", file_with("j48.txt", rows=j48),
             *out], EXIT_OK)
    # SVM, one instance per fold, where the fold that tests the last row
    # first pairs the two equal rows (eta = 0), and then the all-zero
    # normal row with the attack row that differs from it
    zeros = {p: "0" for p in (0, 4, 5, 8, 22, 23, 28, 31, 32, 33, 35)}
    svm = [record("normal", zeros), record("neptune", zeros),
           record("neptune"), record("normal", {4: "50"})]
    _expect(["batch", "--algo", "svm", "--variant", "v2", "--folds", "4",
             "--data", file_with("svm.txt", rows=svm), *out], EXIT_OK)

    with gzip.open(KDD_SLICE, "rt") as fh:
        dotted = [next(fh).rstrip("\n") for _ in range(SMALL_ROWS)]
    faulty = [
        (str(tmp_path / "nowhere.txt"), "no such data file"),
        ("kdd99-10", "dataset 'kdd99-10' not in cache"),
        (file_with("empty.txt", rows=[]), "empty.txt: no instances"),
        (file_with("count.txt", lambda f: f[:40]),
         "line 6: expected 42 fields, got 40"),
        (file_with("dotted.txt", lambda f: f[:40], rows=dotted),
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
    """The lines run in src/nidsbench by one traced sweep."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return traced(lambda: sweep(tmp_path_factory.mktemp("sweep"),
                                    monkeypatch))


def test_every_src_line_runs_in_a_command(swept):
    never, stale = unrun(statements(sorted(SRC.glob("*.py"))), swept,
                         ALLOWED)
    assert not never, "no command runs:\n" + "\n".join(never)
    # an entry whose statements a command runs, or that are gone, goes
    assert not stale, stale


def test_the_gate_reports_a_planted_unrun_line(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text('def sign(x):\n'
                    '    """-1, 0 or 1."""\n'
                    '    if x < 0:\n'
                    '        return -1\n'
                    '    return int(x > 0)\n')
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    lines = traced(lambda: module.sign(2), tmp_path.resolve())
    units = statements([path])
    assert [s.key for s in units] == ["planted.sign: if x < 0:",
                                      "planted.sign: return -1",
                                      "planted.sign: return int(x > 0)"]
    assert unrun(units, lines, {}) == (["planted.sign: return -1"], [])
    for entry in ("planted.sign", "planted.sign: if x < 0:",
                  "planted.sign: return -1"):
        assert unrun(units, lines, {entry: "why"}) == ([], [])
    assert unrun(units, lines, {"planted.sign: return int(x > 0)": "why"}) \
        == (["planted.sign: return -1"], ["planted.sign: return int(x > 0)"])


def test_the_scan_names_nested_functions_and_skips_declarations():
    keys = {s.key for s in statements(sorted(SRC.glob("*.py")))}
    assert {"cli.checked.convert: value = parse(text)",
            "batch_learners.LinearSVM._smo.try_step: if eta <= 1e-15:",
            "cli.run_guarded: except Exception as exc:"} <= keys
    assert not [k for k in keys if k.endswith(("nonlocal b, w, steps",
                                               '"""'))]
