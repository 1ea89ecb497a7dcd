"""Benchmark of the nidsbench CLI on seeded KDD-shaped corpora.

    python3 perfbench/run.py --workload stream-ht --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload batch-nb --seed 1 --self-test

Each round runs one workload as a single ``nidsbench`` CLI invocation in a
fresh process (``child.py``) on a corpus written by ``corpus.py`` from the
seed.  Rounds repeat while the next one is expected to end inside
``--seconds`` (at least ``MIN_ROUNDS``, or two traced/untraced pairs); the
metrics are medians over the rounds.  The first round's artifacts go
through every check in ``checks.py``; later rounds must reproduce its trace
and confusion CSVs byte for byte.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every round records spans of the same few calls (the CLI call, data
preparation, evaluation), and ``round_metrics`` derives the end-to-end
metrics from them.  With ``--trace 0`` those are the metrics.  With
``--trace 1`` untraced and traced rounds alternate; a traced round also
records a span per call of each layer's public functions, the per-layer
metrics come from those, and ``tracing.overhead_s`` is the median over the
pairs of a traced round's ``run_s`` minus that of the untraced round just
before it.

``--self-test`` runs one round, then plants one fault per check in a copy
of its artifacts and shows that the check catches it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from corpus import KDD99_10_COUNTS, KDDTRAIN_PLUS_COUNTS, corpus  # noqa: E402

WORK = HERE / ".work"
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# Rows of each corpus: a fifth of KDD99-10 for the Hoeffding tree, a stream
# three windows long for windowed k-NN, a twentieth of KDDTrain+ for the batch
# learners; see README.md for why the published sizes are scaled.
HT_ROWS = round(sum(KDD99_10_COUNTS.values()) / 5)
WKNN_ROWS = 15_000
NSL_ROWS = round(sum(KDDTRAIN_PLUS_COUNTS.values()) / 20)
ALPHA = 0.95
K = 3
FOLDS = 10
CV_SEED = 1
WKNN_WINDOW = 5000        # WindowKnnConfig.window_size
WKNN_WARMUP = 1000        # cli.STREAM_NORMALIZE_WARMUP
WKNN_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    shape: str
    rows: int
    variant: str
    cli: tuple[str, ...]

    @property
    def stream(self) -> bool:
        return self.cli[0] == "stream"

    @property
    def algo(self) -> str:
        return self.cli[2]


WORKLOADS = {
    "stream-ht": Workload("kdd99", HT_ROWS, "v2", (
        "stream", "--algo", "ht", "--variant", "v2", "--alpha", str(ALPHA))),
    "stream-wknn": Workload("kdd99", WKNN_ROWS, "v2", (
        "stream", "--algo", "wknn", "--variant", "v2", "--k", str(K),
        "--alpha", str(ALPHA))),
    "batch-j48": Workload("nsl", NSL_ROWS, "v1", (
        "batch", "--algo", "j48", "--variant", "v1", "--folds", str(FOLDS),
        "--seed", str(CV_SEED))),
    "batch-nb": Workload("nsl", NSL_ROWS, "v1", (
        "batch", "--algo", "nb", "--variant", "v1", "--folds", str(FOLDS),
        "--seed", str(CV_SEED))),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "eval_inst_per_s": "inst/s",
              "peak_rss_mb": "MiB"}

# per-layer metric -> the span it sums (SPAN_S), takes the self time of
# (SELF_S) or counts (CALLS); COUNTERS come from the traced process itself
SPAN_S = {
    "dataset.load_dataset.s": "dataset.load_dataset",
    "dataset.sha256_file.s": "dataset.sha256_file",
    "cli.emit_svg_curve.s": "cli.emit_svg_curve",
    "preprocess.apply_variant.s": "preprocess.apply_variant",
    "preprocess.select_attributes.s": "preprocess.select_attributes",
    "preprocess.normalizer.s": "preprocess.normalizer",
    "evaluation.write_trace_csv.s": "evaluation.write_trace_csv",
    "evaluation.annotate_drifts.s": "evaluation.annotate_drifts",
    "stream_learners.predict_code.s": "stream_learners.predict_code",
    "stream_learners.learn_row.s": "stream_learners.learn_row",
    "batch_learners.mixed_distances.s": "batch_learners.mixed_distances",
    "batch_learners.knn_vote.s": "batch_learners.knn_vote",
    "batch_learners.fit.s": "batch_learners.fit",
    "batch_learners.predict_dataset.s": "batch_learners.predict_dataset",
    "nbcore.update.s": "nbcore.update",
    "nbcore.log_scores.s": "nbcore.log_scores",
}
SELF_S = {
    "evaluation.prequential_run.self_s": "evaluation.prequential_run",
    "evaluation.cross_validate.self_s": "evaluation.cross_validate",
}
CALLS = {
    "stream_learners.predict_code.calls": "stream_learners.predict_code",
    "stream_learners.learn_row.calls": "stream_learners.learn_row",
    "stream_learners.hoeffding_bound.calls": "stream_learners.hoeffding_bound",
    "batch_learners.mixed_distances.calls": "batch_learners.mixed_distances",
    "nbcore.update.calls": "nbcore.update",
}
COUNTERS = ("dataset.load_dataset.rows", "stream_learners.ht.splits",
            "batch_learners.j48.leaves", "batch_learners.j48.depth")
SETUP_SPANS = ("dataset.load_dataset", "preprocess.apply_variant",
               "preprocess.select_attributes", "preprocess.normalizer")
EVAL_SPANS = ("evaluation.prequential_run", "evaluation.cross_validate")


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in SPAN_S}
    units.update({m: "s" for m in SELF_S})
    units.update({m: "count" for m in CALLS})
    units.update({m: "count" for m in COUNTERS})
    units["stream_learners.learn_row.p50_us"] = "us"
    units["stream_learners.learn_row.p999_us"] = "us"
    units["tracing.overhead_s"] = "s"
    units["tracing.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# one round


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_round(wl: Workload, data: Path, round_dir: Path, traced: bool) -> dict:
    """One CLI invocation in a fresh process; returns its span file's meta."""
    round_dir.mkdir(parents=True)
    spans = round_dir / "spans.npz"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(spans)]
    if traced:
        cmd.append("--traced")
    cmd += ["--", *wl.cli, "--data", str(data),
            "--out", str(round_dir / "out")]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None,
                "why": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not spans.exists():
        return {"exit_code": None,
                "why": f"child exited {proc.returncode}: "
                       f"{proc.stderr[-2000:]}"}
    with np.load(spans) as z:
        meta = json.loads(str(z["meta"]))
    if meta["exit_code"] != 0:
        meta["why"] = f"CLI exited {meta['exit_code']}: {proc.stderr[-2000:]}"
    return meta


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*_trace.csv"))
            + sorted(out_dir.glob("*_confusion.csv"))}


def reproduction_failures(reference: dict[str, str],
                          out_dir: Path) -> list[str]:
    """Where a round's trace and confusion CSVs differ from the first's."""
    if not reference:
        return ["the first round wrote no trace or confusion CSV"]
    got = digests(out_dir)
    return [f"{name} differs from the first round's"
            for name in sorted(reference.keys() | got.keys())
            if got.get(name) != reference.get(name)]


# ---------------------------------------------------------------------------
# checks


class Expected:
    """What the checks derive from the corpus, computed once per run."""

    def __init__(self, wl: Workload, data: Path, seed: int):
        self.wl = wl
        self.seed = seed
        self.corpus = checks.read_corpus(data)
        self.truth = checks.class_codes(self.corpus, wl.variant)

    def suite(self) -> dict:
        """check name -> function of the artifacts returning failures."""
        wl, truth = self.wl, self.truth
        out = {
            "confusion": lambda a: checks.check_confusion(a, truth,
                                                          wl.variant),
            "accuracy": lambda a: checks.check_accuracy(a, truth),
        }
        if wl.stream:
            out["trace"] = lambda a: checks.check_trace(a, ALPHA)
            out["drifts"] = checks.check_drifts
        if wl.algo == "wknn":
            out["wknn-brute-force"] = lambda a: checks.check_wknn(
                a, self.corpus, truth, self.seed, WKNN_SAMPLES, K, WKNN_WINDOW,
                WKNN_WARMUP)
        if wl.algo == "nb":
            out["naive-bayes-reference"] = lambda a: checks.check_naive_bayes(
                a, self.corpus, truth, FOLDS, CV_SEED)
        return out

    def failures(self, out_dir: Path) -> list[str]:
        try:
            art = checks.Artifacts.read(out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable artifacts: {exc}"]
        return [f"{name}: {msg}" for name, fn in self.suite().items()
                for msg in fn(art)]


# ---------------------------------------------------------------------------
# metrics of one round, from its spans


def round_metrics(spans_path: Path, rows: int, traced: bool) -> dict:
    """End-to-end metrics of a round, and per-layer ones if it was traced."""
    with np.load(spans_path) as z:
        names = [str(n) for n in z["names"]]
        nid, parent = z["name"], z["parent"]
        dur = (z["end"] - z["start"]) / 1e9
        meta = json.loads(str(z["meta"]))
    has_parent = parent >= 0

    def mask(name):
        if name not in names:
            return np.zeros(len(dur), dtype=bool)
        m = nid == names.index(name)
        nested = np.zeros_like(m)
        nested[has_parent] = m[parent[has_parent]]
        return m & ~nested      # not directly inside a span of the same name

    def seconds(name):
        return float(dur[mask(name)].sum())

    setup = sum(seconds(n) for n in SETUP_SPANS)
    out = {"setup_s": setup,
           "run_s": seconds("cli.run_command") - setup,
           "eval_inst_per_s": rows / sum(seconds(n) for n in EVAL_SPANS),
           "peak_rss_mb": meta["peak_rss_mb"]}
    if not traced:
        return out
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    out.update({m: seconds(n) for m, n in SPAN_S.items()})
    out.update({m: float((dur - child_time)[mask(n)].sum())
                for m, n in SELF_S.items()})
    out.update({m: int(mask(n).sum()) for m, n in CALLS.items()})
    out.update({m: meta["counters"].get(m, 0) for m in COUNTERS})
    learn = dur[mask("stream_learners.learn_row")] * 1e6
    out["stream_learners.learn_row.p50_us"] = \
        float(np.percentile(learn, 50)) if len(learn) else 0.0
    out["stream_learners.learn_row.p999_us"] = \
        float(np.percentile(learn, 99.9)) if len(learn) else 0.0
    return out


# ---------------------------------------------------------------------------
# a run


def prepare(wl: Workload, seed: int) -> Path:
    if not (ROOT / "src" / "nidsbench" / "cli.py").is_file():
        sys.exit(f"error: no nidsbench sources under {ROOT / 'src'}")
    return corpus(wl.shape, seed, wl.rows, WORK / "corpora")


def measure(wl: Workload, data: Path, seed: int, seconds: float,
            trace: bool) -> dict:
    expected = Expected(wl, data, seed)
    rows = len(expected.truth)
    run_dir = WORK / "runs" / f"{wl.algo}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plain, traced, problems = [], [], []
    overheads = []      # (traced - untraced run_s, untraced run_s) per pair
    attempted = failed = 0
    reference = None
    checking = 0.0
    min_iterations = 2 if trace else MIN_ROUNDS
    iterations = 0
    t_start = time.monotonic()
    try:
        while True:
            iterations += 1
            pair = {}
            for is_traced in ((False, True) if trace else (False,)):
                rd = run_dir / f"round{attempted}"
                attempted += 1
                rec = run_round(wl, data, rd, is_traced)
                if rec["exit_code"] != 0:
                    failed += 1
                    print(f"round {attempted} failed: {rec['why']}",
                          file=sys.stderr)
                    continue
                out = rd / "out"
                if reference is None:
                    t_check = time.monotonic()
                    problems += expected.failures(out)
                    reference = digests(out)
                    checking = time.monotonic() - t_check
                else:
                    problems += [f"round {attempted}: {m}" for m in
                                 reproduction_failures(reference, out)]
                pair[is_traced] = round_metrics(rd / "spans.npz", rows,
                                                is_traced)
                (traced if is_traced else plain).append(pair[is_traced])
                shutil.rmtree(rd)
            if len(pair) == 2:
                overheads.append((pair[True]["run_s"] - pair[False]["run_s"],
                                  pair[False]["run_s"]))
            elapsed = time.monotonic() - t_start
            per_iteration = (elapsed - checking) / iterations
            if iterations >= min_iterations \
                    and elapsed + per_iteration > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not plain or (trace and not overheads):
        sys.exit("error: no round of the workload succeeded")

    if trace:
        units = per_layer_units()
        metrics = {m: statistics.median(r[m] for r in traced)
                   for m in units if not m.startswith("tracing.")}
        metrics["tracing.overhead_s"] = statistics.median(
            d for d, _ in overheads)
        metrics["tracing.overhead_pct"] = statistics.median(
            100.0 * d / base for d, base in overheads)
    else:
        units = END_TO_END
        metrics = {m: statistics.median(r[m] for r in plain) for m in units}
    print(f"{wl.cli[0]} {wl.algo} on {data.name}: {attempted} rounds in "
          f"{time.monotonic() - t_start:.1f} s", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": units[m]}
                        for m in units}}


# ---------------------------------------------------------------------------
# self-test: every check must catch a fault planted for it


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _edit_summary(path: Path, key: str, fn) -> None:
    data = json.loads(path.read_text())
    data[key] = fn(data[key])
    path.write_text(json.dumps(data))


def planted_faults(expected: Expected, out: Path):
    """(fault, check that must catch it, function planting it in `out`)."""
    conf = next(out.glob("*_confusion.csv"))
    summ = next(out.glob("*_summary.json"))
    trace = next(out.glob("*_trace.csv"), None)
    cm = checks.Artifacts.read(out).confusion
    r = int(np.argmax(cm.sum(axis=1)))       # busiest true class
    c = (r + 1) % len(cm)

    def move_within_row():          # a row's count moves to another column
        _edit_csv(conf, r + 1, r + 1, lambda v: str(int(v) - 1))
        _edit_csv(conf, r + 1, c + 1, lambda v: str(int(v) + 1))

    def move_across_rows():         # one count moves to another true class
        _edit_csv(conf, r + 1, r + 1, lambda v: str(int(v) - 1))
        _edit_csv(conf, c + 1, r + 1, lambda v: str(int(v) + 1))

    def majority_only():            # predict the majority class throughout
        rows = conf.read_text().splitlines()
        sums = cm.sum(axis=1)
        for i in range(len(cm)):
            cells = ["0"] * len(cm)
            cells[r] = str(int(sums[i]))
            rows[i + 1] = rows[i + 1].split(",")[0] + "," + ",".join(cells)
        conf.write_text("\n".join(rows) + "\n")
        _edit_summary(summ, "accuracy", lambda _: float(sums[r] / sums.sum()))

    faults = [
        ("one count moved to another true class", "confusion",
         move_across_rows),
        ("summary accuracy off by 1e-9", "accuracy",
         lambda: _edit_summary(summ, "accuracy", lambda v: v + 1e-9)),
        ("majority-class predictions", "accuracy", majority_only),
    ]
    if trace is not None:
        faults += [
            ("one `correct` entry flipped", "trace",
             lambda: _edit_csv(trace, 10, 1, lambda v: "0" if v == "1" else "1")),
            ("one faded_accuracy off by 1e-9", "trace",
             lambda: _edit_csv(trace, 20, 2, lambda v: repr(float(v) - 1e-9))),
            ("drift indices 300 apart", "drifts",
             lambda: _edit_summary(summ, "drift_indices",
                                   lambda _: [1000, 1300])),
            ("drift indices unsorted", "drifts",
             lambda: _edit_summary(summ, "drift_indices",
                                   lambda _: [3000, 1000])),
        ]
    suite = expected.suite()
    if "wknn-brute-force" in suite:
        n = len(expected.truth)
        rng = np.random.default_rng([expected.seed, 3])
        step = int(np.sort(rng.choice(n, min(WKNN_SAMPLES, n),
                                      replace=False))[-1])
        faults.append((
            f"`correct` flipped at sampled step {step + 1}", "wknn-brute-force",
            lambda: _edit_csv(trace, step + 1, 1,
                              lambda v: "0" if v == "1" else "1")))
    if "naive-bayes-reference" in suite:
        faults.append(("one count moved within a row",
                       "naive-bayes-reference", move_within_row))
    faults.append(("one byte appended to the confusion CSV", "byte-identical",
                   lambda: conf.write_text(conf.read_text() + " ")))
    return faults


def self_test(wl: Workload, data: Path, seed: int) -> int:
    expected = Expected(wl, data, seed)
    base = WORK / "selftest" / f"{wl.algo}-s{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    try:
        rec = run_round(wl, data, base / "round", traced=False)
        if rec["exit_code"] != 0:
            print(f"workload failed: {rec['why']}")
            return 1
        clean = base / "round" / "out"
        fails = expected.failures(clean)
        print(f"{'PASS' if not fails else 'FAIL'} clean artifacts pass every "
              f"check {fails or ''}")
        ok = not fails
        reference = digests(clean)
        again = reproduction_failures(reference, clean)
        print(f"{'PASS' if not again else 'FAIL'} clean artifacts reproduce "
              f"themselves {again or ''}")
        ok &= not again
        suite = expected.suite()
        for i, (fault, check, _) in enumerate(planted_faults(expected,
                                                             clean)):
            copy = base / f"fault{i}"
            shutil.copytree(clean, copy)
            planted_faults(expected, copy)[i][2]()
            if check == "byte-identical":
                caught = bool(reproduction_failures(reference, copy))
            else:
                caught = bool(suite[check](checks.Artifacts.read(copy)))
            ok &= caught
            print(f"{'PASS' if caught else 'FAIL'} {check} catches: {fault}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    data = prepare(wl, args.seed)
    if args.self_test:
        return self_test(wl, data, args.seed)
    result = measure(wl, data, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
