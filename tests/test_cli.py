"""CLI subcommands, exit codes, artifact emission and determinism."""

import csv
import gzip
import hashlib
import http.server
import json
import os
import threading
import weakref
import xml.dom.minidom

import numpy as np
import pytest

from nidsbench.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    emit_svg_curve,
    emit_svg_series,
    resolve_data,
    run_command,
)
import nidsbench.cli as cli
import nidsbench.stream_learners as stream_learners
from nidsbench.batch_learners import NaiveBayes
from nidsbench.dataset import DataError
from nidsbench.evaluation import prequential_run
from nidsbench.stream_learners import WindowKNN

from conftest import gen_drift_stream, kdd_file, kdd_line


def test_no_arguments_is_usage_error(capsys):
    assert run_command([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_and_flag(capsys):
    assert run_command(["frobnicate"]) == EXIT_USAGE
    assert run_command(["batch", "--algo", "nb", "--no-such-flag"]) == \
        EXIT_USAGE
    assert run_command(["batch", "--algo", "not-an-algo"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == EXIT_OK
    assert "fetch" in capsys.readouterr().out


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = run_command(["batch", "--algo", "nb",
                        "--data", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["batch", "--algo", "knn", "--k", "0"],
    ["batch", "--algo", "nb", "--folds", "1"],
    ["stream", "--algo", "ht", "--alpha", "0"],
    ["stream", "--algo", "ht", "--alpha", "1.5"],
    ["batch", "--algo", "knn", "--sample", "0"],
    ["batch", "--algo", "nb", "--seed", "-1"],
    ["stream", "--algo", "ozaboost", "--seed", "-1"],
    ["preprocess", "--attrs", "1,99"],
    ["preprocess", "--attrs", "1,42"],
    ["preprocess", "--attrs", "0,1"],
    ["preprocess", "--attrs", "1,1"],
    ["preprocess", "--attrs", "3,2"],
    ["preprocess", "--attrs", "1,zz"],
    ["preprocess", "--attrs", ""],
    ["rank", "--attrs", "-1"],
    ["batch", "--algo", "nb", "--k", "7"],
    ["batch", "--algo", "j48", "--k", "3"],
    ["stream", "--algo", "ht", "--k", "9999"],
], ids=" ".join)
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    # the data file does not exist: exit 1, not 2, shows the flag was
    # checked before anything was read
    code = run_command(argv + ["--data", str(tmp_path / "nope.csv"),
                               "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error: argument --" in capsys.readouterr().err


# each text int() reads as a number; an integer option takes ASCII digits
# alone (the last is a full-width digit one)
_NOT_ASCII_DIGITS = ("1_0", " 1", "1 ", "+1", "-0", "\uff11")


@pytest.mark.parametrize("text", _NOT_ASCII_DIGITS, ids=ascii)
@pytest.mark.parametrize("argv", [
    ["batch", "--algo", "nb", "--seed", "{}"],
    ["stream", "--algo", "ht", "--seed", "{}"],
    ["batch", "--algo", "knn", "--k", "{}"],
    ["stream", "--algo", "wknn", "--k", "{}"],
    ["batch", "--algo", "nb", "--folds", "{}"],
    ["batch", "--algo", "knn", "--sample", "{}"],
    ["preprocess", "--attrs", "{}"],
    ["rank", "--attrs", "2,{}"],
], ids=" ".join)
def test_integer_option_outside_ascii_digits_is_usage_error(
        tmp_path, monkeypatch, capsys, argv, text):
    def no_read(*args):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    code = run_command(argv[:-1] + [argv[-1].format(text),
                                    "--data", str(tmp_path / "nope.csv"),
                                    "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert f"error: argument {argv[-2]}: need " in capsys.readouterr().err


def test_integer_options_take_leading_zeros(mini_kdd, tmp_path):
    assert run_command(["batch", "--algo", "nb", "--data", str(mini_kdd),
                        "--seed", "007", "--folds", "02", "--attrs", "01,05",
                        "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads(next(tmp_path.glob("*_manifest.json")).read_text())
    config = manifest["config"]
    assert (config["seed"], config["folds"], config["attrs"]) == (7, 2, "01,05")


def test_wknn_k_above_the_window_is_usage_error(mini_kdd, tmp_path,
                                                monkeypatch, capsys):
    def no_read(*args):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 50)
    argv = ["--data", str(mini_kdd), "--out", str(tmp_path)]
    with pytest.MonkeyPatch.context() as no_load:
        no_load.setattr(cli, "load_dataset", no_read)
        assert run_command(["stream", "--algo", "wknn", "--k", "51"] + argv) \
            == EXIT_USAGE
    assert "error: argument --k: need k <= WKNN_WINDOW=50" in \
        capsys.readouterr().err
    assert run_command(["stream", "--algo", "wknn", "--k", "50"] + argv) \
        == EXIT_OK
    # batch k-NN has no window: its k is checked against the training set
    assert run_command(["batch", "--algo", "knn", "--k", "51"] + argv) \
        == EXIT_OK
    assert run_command(["batch", "--algo", "knn", "--k", "6000"] + argv) \
        == EXIT_DATA
    assert "data error: k=6000 exceeds training size 162" in \
        capsys.readouterr().err


@pytest.mark.parametrize("algo", ["nb", "j48", "mlp", "svm"])
def test_sample_with_an_algorithm_other_than_knn_is_usage_error(
        mini_kdd, tmp_path, monkeypatch, capsys, algo):
    def no_read(*args):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    assert run_command(["batch", "--algo", algo, "--sample", "100",
                        "--folds", "2", "--data", str(mini_kdd),
                        "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "error: --sample applies to --algo knn only" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", ["v1", "v3"])
def test_svm_with_a_variant_other_than_v2_is_usage_error(
        mini_kdd, tmp_path, monkeypatch, capsys, variant):
    def no_read(*args):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    assert run_command(["batch", "--algo", "svm", "--variant", variant,
                        "--folds", "2", "--data", str(mini_kdd),
                        "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "error: --algo svm applies to --variant v2 only" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_more_folds_than_rows_is_data_error(tmp_path, capsys):
    small = kdd_file(tmp_path / "three.csv", ["normal", "smurf", "normal"])
    assert run_command(["batch", "--algo", "nb", "--folds", "10",
                        "--data", str(small), "--out", str(tmp_path)]) \
        == EXIT_DATA
    assert capsys.readouterr().err == \
        "data error: 10 folds exceed 3 instances\n"


class _PredictsMinusOne(NaiveBayes):
    def _predict_codes(self, num, nom):
        return np.full(len(num), -1)


class _IndexFault(NaiveBayes):
    def _predict_codes(self, num, nom):
        return np.arange(3)[len(num) + 3]


@pytest.mark.parametrize("model, message", [
    (_PredictsMinusOne, "runtime failure: ValueError: instance 1: predicted "
                        "class code -1 outside [0, 5)\n"),
    (_IndexFault, "runtime failure: IndexError: index "),
], ids=["code -1", "IndexError"])
def test_a_program_fault_exits_3_with_one_line(mini_kdd, tmp_path,
                                               monkeypatch, capsys, model,
                                               message):
    monkeypatch.setattr(cli, "make_batch_model", lambda cfg: model())
    assert run_command(["batch", "--algo", "nb", "--folds", "2",
                        "--data", str(mini_kdd),
                        "--out", str(tmp_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unparsable_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    code = run_command(["batch", "--algo", "nb", "--data", str(bad),
                        "--out", str(tmp_path)])
    assert code == EXIT_DATA


def _fault_file(path, fault):
    rng = np.random.default_rng(4)
    good_a, good_b = kdd_line("normal", rng), kdd_line("smurf", rng)
    if fault == "truncated gzip":
        data = gzip.compress(f"{good_a}\n{good_b}\n".encode())
        path.write_bytes(data[:len(data) // 2])
    elif fault == "UTF-8 BOM":
        path.write_bytes(b"\xef\xbb\xbf" + f"{good_a}\n{good_b}\n".encode())
    elif fault == "non-UTF-8 byte":
        path.write_bytes(f"{good_a}\n{good_b}\n".encode()
                         + good_b.replace("smurf", "smurf\xff").encode("latin-1"))
    elif fault == "43 fields, last not a digit":
        path.write_text(f"{good_a}\n{good_b},x\n")
    elif fault == "43 fields, last a non-ASCII digit":
        path.write_text(f"{good_a}\n{good_b},\u00b2\n", encoding="utf-8")
    elif fault == "empty label":
        path.write_text(f"{good_a}\n{good_b.rsplit(',', 1)[0]},\n")
    elif fault == "malformed line repeated":
        bad = good_b.replace("smurf.", "")
        path.write_text("\n".join([good_a, good_b, good_a, bad, good_b, bad]))
    return path


@pytest.mark.parametrize("fault, message", [
    ("truncated gzip", "fault.dat: corrupt or truncated gzip"),
    ("UTF-8 BOM", "line 1: field 1 (duration)"),
    ("non-UTF-8 byte", "line 3: invalid UTF-8 byte b'\\xff'"),
    ("43 fields, last not a digit", "line 2: expected 42 fields, got 43"),
    ("43 fields, last a non-ASCII digit",
     "line 2: expected 42 fields, got 43"),
    ("empty label", "line 2: empty class label"),
    ("malformed line repeated", "line 4: empty class label"),
])
def test_malformed_input_exits_2_with_context(tmp_path, capsys, fault,
                                              message):
    path = _fault_file(tmp_path / "fault.dat", fault)
    code = run_command(["batch", "--algo", "nb", "--data", str(path),
                        "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert message in err


def test_resolve_data_prefers_existing_path(tmp_path, monkeypatch):
    f = tmp_path / "data.csv"
    f.write_text("x")
    assert resolve_data(str(f)) == f
    monkeypatch.setenv("NIDSBENCH_CACHE", str(tmp_path / "empty"))
    with pytest.raises(DataError, match="not in cache"):
        resolve_data("kdd99-10")


def test_batch_run_writes_artifacts(mini_kdd, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_command(["batch", "--algo", "nb", "--data", str(mini_kdd),
                        "--variant", "v1", "--folds", "3",
                        "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "accuracy=" in printed
    stem = f"{mini_kdd.stem}_v1_nb_s1"
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    assert summary["algorithm"] == "nb"
    assert 0.0 <= summary["accuracy"] <= 1.0
    assert (out / f"{stem}_confusion.csv").exists()
    manifest = json.loads((out / f"{stem}_manifest.json").read_text())
    assert manifest["config"]["algo"] == "nb"
    digest = next(iter(manifest["inputs"].values()))
    assert digest == hashlib.sha256(mini_kdd.read_bytes()).hexdigest()


@pytest.mark.parametrize("algo", ["j48", "knn", "mlp"])
def test_batch_other_algorithms_run(mini_kdd, tmp_path, algo):
    out = tmp_path / "out"
    code = run_command(["batch", "--algo", algo, "--data", str(mini_kdd),
                        "--variant", "v2", "--folds", "3", "--out", str(out)])
    assert code == EXIT_OK


def test_attrs_flag_variants(mini_kdd, tmp_path):
    out = tmp_path / "out"
    for attrs in ("all", "1,2,5"):
        code = run_command(["batch", "--algo", "nb", "--data", str(mini_kdd),
                            "--variant", "v2", "--folds", "3",
                            "--attrs", attrs, "--out", str(out)])
        assert code == EXIT_OK
    assert run_command(["batch", "--algo", "nb", "--data", str(mini_kdd),
                        "--attrs", "1,zz", "--out", str(out)]) == EXIT_USAGE
    assert run_command(["batch", "--algo", "nb", "--data", str(mini_kdd),
                        "--attrs", "5,2", "--out", str(out)]) == EXIT_USAGE


def test_batch_svm_runs_on_v2(mini_kdd, tmp_path):
    out = tmp_path / "out"
    code = run_command(["batch", "--algo", "svm", "--data", str(mini_kdd),
                        "--variant", "v2", "--folds", "3", "--out", str(out)])
    assert code == EXIT_OK


def test_stream_run_writes_trace_confusion_svg(mini_kdd, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_command(["stream", "--algo", "ht", "--data", str(mini_kdd),
                        "--variant", "v2", "--alpha", "0.95",
                        "--out", str(out)])
    assert code == EXIT_OK
    assert "accuracy=" in capsys.readouterr().out
    stem = f"{mini_kdd.stem}_v2_ht_s1"
    trace = (out / f"{stem}_trace.csv").read_text().splitlines()
    assert trace[0] == "index,correct,faded_accuracy,cumulative_accuracy"
    assert len(trace) == 181  # one row per instance + header
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    assert isinstance(summary["drift_indices"], list)
    svg = (out / f"{stem}_curve.svg").read_text()
    assert svg.startswith("<svg")


@pytest.mark.parametrize("argv, suffix", [
    (["batch", "--algo", "nb", "--folds", "3"], "v2_nb_s1_confusion.csv"),
    (["stream", "--algo", "ht"], "v2_ht_s1_trace.csv")],
    ids=["batch", "stream"])
def test_a_data_name_that_is_not_utf8_prints_escaped(mini_kdd, tmp_path,
                                                     capsys, argv, suffix):
    # pytest's captured standard output encodes strictly, as do those of
    # other locales than C and UTF-8, and no encoding carries the lone
    # surrogate that stands for the undecodable byte
    data = tmp_path / os.fsdecode(b"c\xffd.data")
    data.write_bytes(mini_kdd.read_bytes())
    out = tmp_path / "out"
    assert run_command([*argv, "--data", str(data), "--variant", "v2",
                        "--out", str(out)]) == EXIT_OK
    assert "c\\udcffd.data" in capsys.readouterr().out
    assert (out / os.fsdecode(b"c\xffd_" + suffix.encode())).is_file()


def test_stream_runs_are_byte_identical(mini_kdd, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        args = ["stream", "--algo", "ozaboost", "--data", str(mini_kdd),
                "--variant", "v2", "--seed", "1", "--out", str(out)]
        assert run_command(args) == EXIT_OK
    stem = f"{mini_kdd.stem}_v2_ozaboost_s1"
    a = (out_a / f"{stem}_trace.csv").read_bytes()
    b = (out_b / f"{stem}_trace.csv").read_bytes()
    assert a == b
    svg_a = (out_a / f"{stem}_curve.svg").read_bytes()
    svg_b = (out_b / f"{stem}_curve.svg").read_bytes()
    assert svg_a == svg_b


def test_stream_wknn_normalizes_and_runs(mini_kdd, tmp_path):
    out = tmp_path / "out"
    code = run_command(["stream", "--algo", "wknn", "--data", str(mini_kdd),
                        "--variant", "v2", "--k", "3", "--out", str(out)])
    assert code == EXIT_OK


def test_rank_prints_all_selected_attributes(mini_kdd, capsys):
    code = run_command(["rank", "--data", str(mini_kdd), "--variant", "v1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "protocol_type" in out
    assert len(out.splitlines()) == 13  # header + 12 selected attributes


@pytest.mark.parametrize("argv", [
    ["rank", "--k", "3"], ["rank", "--seed", "9"], ["rank", "--out", "x"],
    ["preprocess", "--k", "3"], ["preprocess", "--seed", "9"],
], ids=" ".join)
def test_rank_and_preprocess_reject_run_flags(mini_kdd, argv):
    assert run_command(argv + ["--data", str(mini_kdd)]) == EXIT_USAGE


def test_preprocess_writes_csv_and_provenance(mini_kdd, tmp_path):
    out = tmp_path / "out"
    code = run_command(["preprocess", "--data", str(mini_kdd),
                        "--variant", "v2", "--normalize", "--out", str(out)])
    assert code == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "mini_kdd_v2_preprocessed.csv",
        "mini_kdd_v2_preprocessed.provenance.txt"]
    prov = (out / "mini_kdd_v2_preprocessed.provenance.txt").read_text()
    assert "variant v2" in prov and "normalized" in prov
    # the emitted CSV is loadable and reduced to 12 attributes + label
    first = (out / "mini_kdd_v2_preprocessed.csv").read_text().splitlines()[0]
    assert len(first.split(",")) == 13


@pytest.mark.parametrize("command, algo, evaluation", [
    ("batch", "nb", "cross_validate"), ("stream", "ht", "prequential_run")])
def test_a_run_frees_the_raw_data_before_it_evaluates(
        mini_kdd, tmp_path, monkeypatch, command, algo, evaluation):
    # only the prepared data need live through the evaluation, as when the
    # raw data was a temporary of the loading call
    raw_refs, alive = [], []

    def prepare(raw, cfg, _prepare=cli.prepare):
        raw_refs.append(weakref.ref(raw))
        return _prepare(raw, cfg)

    def evaluate(*args, _evaluate=getattr(cli, evaluation)):
        alive.append(raw_refs[0]() is not None)
        return _evaluate(*args)

    monkeypatch.setattr(cli, "prepare", prepare)
    monkeypatch.setattr(cli, evaluation, evaluate)
    assert run_command([command, "--algo", algo, "--data", str(mini_kdd),
                        "--out", str(tmp_path)]) == EXIT_OK
    assert alive == [False]


def test_report_combines_traces(mini_kdd, tmp_path, capsys):
    out = tmp_path / "out"
    # run names come from data file names, which may hold XML and CSV
    # metacharacters, characters XML cannot carry even escaped, and bytes
    # that are not UTF-8
    odd = [tmp_path / "a&b<c.data", tmp_path / "a,b.data",
           tmp_path / "a\x01b.data", tmp_path / os.fsdecode(b"c\xffd.data")]
    for path in odd:
        path.write_bytes(mini_kdd.read_bytes())
    for algo, data in [("snb", mini_kdd), ("ht", mini_kdd), ("ht", odd[0]),
                       ("ht", odd[1]), ("ht", odd[2]), ("ht", odd[3])]:
        assert run_command(["stream", "--algo", algo, "--data", str(data),
                            "--variant", "v2", "--out", str(out)]) == EXIT_OK
    assert run_command(["report", "--out", str(out)]) == EXIT_OK
    with open(out / "combined_traces.csv", newline="") as fh:
        combined = list(csv.reader(fh))
    assert combined[0] == \
        "algorithm,index,correct,faded_accuracy,cumulative_accuracy".split(",")
    assert all(len(row) == 5 for row in combined)
    algos = {row[0] for row in combined[1:]}
    # both files show U+FFFD for what XML or UTF-8 cannot carry
    assert algos == {"mini_kdd_v2_snb_s1", "mini_kdd_v2_ht_s1",
                     "a&b<c_v2_ht_s1", "a,b_v2_ht_s1", "a\ufffdb_v2_ht_s1",
                     "c\ufffdd_v2_ht_s1"}
    svg = (out / "comparison.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 6
    legend = [node.firstChild.data for node in xml.dom.minidom.parseString(
        svg).getElementsByTagName("text")][-6:]
    assert sorted(legend) == sorted(algos)


def test_report_leaves_no_partial_file_when_a_copy_fails(tmp_path, capsys,
                                                         monkeypatch):
    # b's trace goes away after its check, so copying it fails after a's
    # rows are written
    header = "index,correct,faded_accuracy,cumulative_accuracy\n"
    for name in ("a", "b"):
        (tmp_path / f"{name}_trace.csv").write_text(header + "1,1,1.0,1.0\n")

    def check_then_remove(path, _check=cli._faded_column):
        faded = _check(path)
        if path.name == "b_trace.csv":
            path.unlink()
        return faded

    monkeypatch.setattr(cli, "_faded_column", check_then_remove)
    assert run_command(["report", "--out", str(tmp_path)]) == EXIT_RUNTIME
    assert "b_trace.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["a_trace.csv"]


def test_report_without_traces_is_data_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_command(["report", "--out", str(empty)]) == EXIT_DATA


@pytest.mark.parametrize("text, message", [
    ("", "a_trace.csv: no trace rows"),
    ("index,correct,faded_accuracy,cumulative_accuracy\n",
     "a_trace.csv: no trace rows"),
    ("index,correct,faded_accuracy,cumulative_accuracy\n1,1,1.0,1.0\n2,0\n",
     "a_trace.csv: line 3: not a trace row: '2,0'"),
    ("index,correct,faded_accuracy,cumulative_accuracy\n1,1,x,1.0\n",
     "a_trace.csv: line 2: not a trace row: '1,1,x,1.0'"),
    ("index,correct,faded_accuracy,cumulative_accuracy\n1,1,1.0,1.0,7\n",
     "a_trace.csv: line 2: not a trace row: '1,1,1.0,1.0,7'"),
], ids=["empty file", "header only", "short row", "bad number", "long row"])
def test_report_on_a_malformed_trace_is_data_error(tmp_path, capsys, text,
                                                   message):
    (tmp_path / "a_trace.csv").write_text(text)
    assert run_command(["report", "--out", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("existing", [None, "an earlier report\n"],
                         ids=["no combined file", "earlier combined file"])
def test_report_writes_nothing_when_a_later_trace_is_malformed(
        tmp_path, capsys, existing):
    header = "index,correct,faded_accuracy,cumulative_accuracy\n"
    (tmp_path / "a_trace.csv").write_text(header + "1,1,1.0,1.0\n")
    (tmp_path / "b_trace.csv").write_text(header + "1,1\n")
    combined = tmp_path / "combined_traces.csv"
    if existing is not None:
        combined.write_text(existing)
    assert run_command(["report", "--out", str(tmp_path)]) == EXIT_DATA
    assert "b_trace.csv: line 2: not a trace row" in capsys.readouterr().err
    if existing is None:
        assert not combined.exists()
    else:
        assert combined.read_text() == existing
    assert not (tmp_path / "comparison.svg").exists()


def test_report_rejects_a_last_row_without_newline(tmp_path, capsys):
    # copied as it is, the row would join the next file's first row
    header = "index,correct,faded_accuracy,cumulative_accuracy\n"
    (tmp_path / "a_trace.csv").write_text(header + "1,1,1.0,1.0\n2,1,1.0,1.0")
    (tmp_path / "b_trace.csv").write_text(header + "1,0,0.0,0.0\n")
    assert run_command(["report", "--out", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "a_trace.csv: line 3: no newline at the end of the row " \
        "'2,1,1.0,1.0'" in err
    assert not (tmp_path / "combined_traces.csv").exists()
    assert not (tmp_path / "comparison.svg").exists()


def test_fetch_subcommand_downloads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NIDSBENCH_CACHE", str(tmp_path))
    payload = b"some,data,bytes\n"
    digest = hashlib.sha256(payload).hexdigest()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/kdd99-10.csv"
        code = run_command(["fetch", "--data", "kdd99-10", "--url", url,
                            "--sha256", digest])
        assert code == EXIT_OK
        assert "fetched" in capsys.readouterr().out
        assert (tmp_path / "kdd99-10.csv").read_bytes() == payload
        # digest mismatch is a data error and leaves no cached file
        code = run_command(["fetch", "--data", "nsl-kdd", "--url", url,
                            "--sha256", "00" * 32])
        assert code == EXIT_DATA
        assert not (tmp_path / "nsl-kdd.csv").exists()
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_unreachable_url_is_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NIDSBENCH_CACHE", str(tmp_path))
    code = run_command(["fetch", "--data", "kdd99-10",
                        "--url", "http://127.0.0.1:1/x.csv",
                        "--sha256", "00" * 32])
    assert code == EXIT_DATA


def test_fetch_from_a_url_without_scheme_is_data_error(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("NIDSBENCH_CACHE", str(tmp_path))
    code = run_command(["fetch", "--data", "kdd99-10", "--url", "nowhere",
                        "--sha256", "00" * 32])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == \
        "data error: kdd99-10: unknown url type: 'nowhere'\n"


def test_fetch_requires_digest(tmp_path):
    assert run_command(["fetch", "--data", "kdd99-10"]) == EXIT_USAGE


# --- SVG emission -----------------------------------------------------------------


def test_svg_structure_and_per_trace_polylines(tmp_path, monkeypatch):
    stream = gen_drift_stream(2_000, 1_000, seed=1)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 200)
    traces = []
    for k in (1, 3):
        model = WindowKNN(stream.schema, k)
        traces.append((f"wknn-{k}", prequential_run(stream, model, 0.95)))
    path = emit_svg_curve(traces, tmp_path / "curve.svg")
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "wknn-1" in svg and "wknn-3" in svg


def test_svg_constant_trace_is_horizontal(tmp_path):
    path = emit_svg_series([("flat", np.full(1_000, 0.75))],
                           tmp_path / "flat.svg")
    svg = path.read_text()
    line = [seg for seg in svg.splitlines() if "<polyline" in seg][0]
    pts = line.split('points="')[1].split('"')[0].split()
    ys = {p.split(",")[1] for p in pts}
    assert len(ys) == 1


def test_svg_dip_position_reflects_drift(tmp_path, monkeypatch):
    stream = gen_drift_stream(6_000, 3_000, seed=2)
    monkeypatch.setattr(stream_learners, "WKNN_WINDOW", 400)
    monkeypatch.setattr(cli, "SVG_EVERY", 50)
    model = WindowKNN(stream.schema, 3)
    trace = prequential_run(stream, model, 0.95)
    path = emit_svg_curve([("wknn", trace)], tmp_path / "dip.svg")
    line = [seg for seg in path.read_text().splitlines()
            if "<polyline" in seg][0]
    pts = [tuple(map(float, p.split(",")))
           for p in line.split('points="')[1].split('"')[0].split()]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    x0, x1 = xs.min(), xs.max()
    instances = (xs - x0) / (x1 - x0) * 6_000
    # y grows downward in SVG: the curve minimum is the maximum y coordinate;
    # skip the cold-start ramp where faded accuracy is still filling up
    warm = instances > 1_000
    dip_instance = instances[warm][int(np.argmax(ys[warm]))]
    assert abs(dip_instance - 3_000) < 600
