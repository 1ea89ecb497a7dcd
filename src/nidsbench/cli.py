"""Command-line orchestration: fetch, preprocess, rank, batch, stream, report.

Exit codes: 0 success, 1 usage error (rejected before any input is read),
2 data error (a `DataError` or a failed download: the input is at fault),
3 runtime failure (any other exception: the program is at fault). Every
option is checked where it is parsed, so the library does not check it
again.

Every batch/stream run writes its artifacts plus a manifest echoing the
resolved configuration and input digests, so identical configurations
reproduce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import urllib.error
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .batch_learners import (
    KNN,
    MLP,
    DecisionTree,
    LinearSVM,
    NaiveBayes,
    Pipeline,
)
from .dataset import (
    DataError,
    Dataset,
    fetch_dataset,
    kdd99_schema,
    load_dataset,
    sha256_file,
    write_dataset,
)
from .evaluation import (
    PrequentialTrace,
    annotate_drifts,
    cross_validate,
    prequential_run,
    write_confusion_csv,
    write_trace_csv,
)
from .preprocess import (
    DEFAULT_KEEP_INDICES,
    VARIANT_LABELS,
    apply_normalizer,
    apply_variant,
    fit_normalizer,
    oner_rank,
    select_attributes,
)
from . import stream_learners
from .stream_learners import (
    HoeffdingTree,
    OzaBoost,
    StreamingNaiveBayes,
    WindowKNN,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

BATCH_ALGOS = ("nb", "j48", "knn", "mlp", "svm")
STREAM_ALGOS = ("snb", "ht", "wknn", "ozaboost")
VARIANTS = tuple(VARIANT_LABELS)

DEFAULT_URLS = {
    "kdd99-10": "http://kdd.ics.uci.edu/databases/kddcup99/"
                "kddcup.data_10_percent.gz",
    "nsl-kdd": "https://raw.githubusercontent.com/defcom17/NSL_KDD/master/"
               "KDDTrain%2B.txt",
}

# Warm-up length used to fit the stream normalizer for windowed k-NN.
STREAM_NORMALIZE_WARMUP = 1000

SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# an SVG polyline takes every SVG_EVERY-th point of a series, and its last
SVG_EVERY = 100


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a batch/stream run (which of the two by
    `algo`), seed included; the defaults of the CLI's and scripts' options."""

    data: str = "nsl-kdd"
    variant: str = "v1"
    attrs: str = "selected"
    algo: str = "nb"
    k: int = 3
    folds: int = 10
    alpha: float = 0.95
    seed: int = 1
    out: str = "runs"
    sample: int | None = None


def default_cache_dir() -> Path:
    env = os.environ.get("NIDSBENCH_CACHE")
    return Path(env) if env else Path.home() / ".cache" / "nidsbench"


def resolve_data(data: str, cache_dir: Path | None = None) -> Path:
    """Turn --data into a file path: literal path, or a cached named dataset."""
    p = Path(data)
    if p.is_file():
        return p
    cache = cache_dir if cache_dir is not None else default_cache_dir()
    if data in DEFAULT_URLS:
        hits = sorted(f for f in cache.glob(data + "*")
                      if f.is_file() and not f.name.endswith(".part"))
        if hits:
            return hits[0]
        raise DataError(
            f"dataset {data!r} not in cache {cache}; fetch it first or copy "
            f"the file there (see README)")
    raise DataError(f"no such data file: {data}")


def _keep_indices(attrs: str) -> tuple[int, ...] | None:
    """The 1-based attribute indices --attrs keeps; None keeps them all."""
    if attrs == "all":
        return None
    if attrs == "selected":
        return DEFAULT_KEEP_INDICES
    return tuple(ascii_int(t) for t in attrs.split(","))


def prepare(raw: Dataset, cfg: RunConfig) -> Dataset:
    """A run's learner input: relabel per the variant, select per --attrs and,
    for wknn, min-max normalize with a normalizer fitted on the first
    STREAM_NORMALIZE_WARMUP rows."""
    ds = apply_variant(raw, cfg.variant)
    keep = _keep_indices(cfg.attrs)
    if keep is not None:
        ds = select_attributes(ds, keep)
    if cfg.algo == "wknn":
        warm = ds.subset(np.arange(min(STREAM_NORMALIZE_WARMUP, len(ds))),
                         note="normalizer warm-up")
        ds = apply_normalizer(fit_normalizer(warm), ds)
    return ds


def load(data: str | Path) -> tuple[Dataset, Path]:
    """The raw dataset --data names, and the file it was read from."""
    path = resolve_data(data)
    return load_dataset(path, kdd99_schema()), path


def make_batch_model(cfg: RunConfig):
    """A new model of cfg.algo, one of BATCH_ALGOS."""
    if cfg.algo == "nb":
        return NaiveBayes()
    if cfg.algo == "j48":
        return DecisionTree()
    if cfg.algo == "knn":
        return Pipeline(KNN(cfg.k), subsample=cfg.sample, seed=cfg.seed)
    if cfg.algo == "mlp":
        return Pipeline(MLP(cfg.seed), encode=True)
    return Pipeline(LinearSVM(), encode=True)  # svm


def make_stream_model(schema, cfg: RunConfig):
    """A new model of cfg.algo, one of STREAM_ALGOS, over `schema`."""
    if cfg.algo == "snb":
        return StreamingNaiveBayes(schema)
    if cfg.algo == "ht":
        return HoeffdingTree(schema)
    if cfg.algo == "wknn":
        return WindowKNN(schema, cfg.k)
    return OzaBoost(schema, cfg.seed)  # ozaboost


def evaluate_batch(raw: Dataset, cfg: RunConfig):
    """A batch run: the cross-validated confusion matrix of cfg's learner."""
    ds = prepare(raw, cfg)
    del raw  # freed here when the caller handed over its only reference
    return cross_validate(ds, lambda: make_batch_model(cfg), cfg.folds,
                          cfg.seed)


def evaluate_stream(raw: Dataset, cfg: RunConfig):
    """A stream run: cfg's prequential trace and the trace's drift indices."""
    ds = prepare(raw, cfg)
    del raw  # as in evaluate_batch
    trace = prequential_run(ds, make_stream_model(ds.schema, cfg), cfg.alpha)
    return trace, annotate_drifts(trace)


def _data_tag(cfg: RunConfig) -> str:
    return cfg.data if cfg.data in DEFAULT_URLS else Path(cfg.data).stem


def _artifact(cfg: RunConfig, suffix: str) -> Path:
    """Path of a run's `<data>_<variant>_<algo>_s<seed>_<suffix>` artifact."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / (f"{_data_tag(cfg)}_{cfg.variant}_{cfg.algo}_s{cfg.seed}"
                      f"_{suffix}")


def _write_run(cfg: RunConfig, input_path: Path, confusion,
               summary: dict) -> None:
    """The confusion CSV, summary JSON and manifest every run writes."""
    write_confusion_csv(confusion, _artifact(cfg, "confusion.csv"))
    summary = dict(summary, dataset=cfg.data, variant=cfg.variant,
                   algorithm=cfg.algo)
    command = "batch" if cfg.algo in BATCH_ALGOS else "stream"
    manifest = {"config": dict(asdict(cfg), command=command),
                "inputs": {str(input_path): sha256_file(input_path)}}
    for suffix, payload in (("summary.json", summary),
                            ("manifest.json", manifest)):
        _artifact(cfg, suffix).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_batch(cfg: RunConfig) -> str:
    t0 = time.perf_counter()
    path = resolve_data(cfg.data)
    cm = evaluate_batch(load(path)[0], cfg)
    _write_run(cfg, path, cm, {
        "params": {"folds": cfg.folds, "seed": cfg.seed, "k": cfg.k,
                   "sample": cfg.sample, "attrs": cfg.attrs},
        "accuracy": cm.accuracy, "error": cm.error,
        "runtime_seconds": time.perf_counter() - t0, "drift_indices": [],
    })
    return (f"batch {cfg.algo} on {cfg.data} {cfg.variant}: "
            f"accuracy={cm.accuracy * 100:.2f}% "
            f"error={cm.error * 100:.2f}% "
            f"({cm.total} instances, {cfg.folds} folds, "
            f"seed {cfg.seed})")


def run_stream(cfg: RunConfig) -> str:
    t0 = time.perf_counter()
    path = resolve_data(cfg.data)
    trace, drifts = evaluate_stream(load(path)[0], cfg)
    runtime = time.perf_counter() - t0
    write_trace_csv(trace, _artifact(cfg, "trace.csv"))
    emit_svg_curve([(cfg.algo, trace)], _artifact(cfg, "curve.svg"))
    _write_run(cfg, path, trace.confusion, {
        "params": {"alpha": cfg.alpha, "seed": cfg.seed, "k": cfg.k},
        "accuracy": trace.final_cumulative_accuracy,
        "error": 1.0 - trace.final_cumulative_accuracy,
        "faded_mean": trace.faded_mean,
        "runtime_seconds": runtime, "drift_indices": drifts,
    })
    return (f"stream {cfg.algo} on {cfg.data} {cfg.variant} alpha={cfg.alpha}: "
            f"accuracy={trace.final_cumulative_accuracy * 100:.2f}% "
            f"faded-mean={trace.faded_mean * 100:.2f}% "
            f"drifts={drifts} ({len(trace)} instances, seed {cfg.seed})")


# ---------------------------------------------------------------------------
# SVG emission


def _svg_polyline(series: np.ndarray, color: str, x0, y0, w, h,
                  n_max) -> str:
    pts = []
    idx = list(range(0, len(series), SVG_EVERY))
    if idx[-1] != len(series) - 1:
        idx.append(len(series) - 1)
    for i in idx:
        x = x0 + (i + 1) / n_max * w
        y = y0 + (1.0 - series[i]) * h
        pts.append(f"{x:.2f},{y:.2f}")
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{" ".join(pts)}"/>')


def emit_svg_series(named_series: list[tuple[str, np.ndarray]],
                    path: str | Path) -> Path:
    """Standalone SVG line chart of faded accuracy vs instance index, of
    one or more non-empty series."""
    width, height = 960, 480
    ml, mr, mt, mb = 60, 170, 20, 45
    w, h = width - ml - mr, height - mt - mb
    n_max = max(len(s) for _, s in named_series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{ml}" y="{mt}" width="{w}" height="{h}" fill="white" '
        f'stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = mt + (1.0 - frac) * h
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + w}" y2="{y:.2f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{frac:.2f}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = ml + frac * w
        tick = int(round(frac * n_max))
        parts.append(f'<text x="{x:.2f}" y="{mt + h + 16}" font-size="11" '
                     f'text-anchor="middle">{tick}</text>')
    parts.append(f'<text x="{ml + w / 2:.2f}" y="{height - 8}" font-size="12" '
                 f'text-anchor="middle">instance index</text>')
    parts.append(f'<text x="14" y="{mt + h / 2:.2f}" font-size="12" '
                 f'transform="rotate(-90 14 {mt + h / 2:.2f})" '
                 f'text-anchor="middle">faded accuracy</text>')
    for i, (name, series) in enumerate(named_series):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        parts.append(_svg_polyline(np.asarray(series, dtype=float), color,
                                   ml, mt, w, h, n_max))
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + w + 10}" y1="{ly}" x2="{ml + w + 34}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + w + 40}" y="{ly + 4}" font-size="12">'
                     f'{name}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path


def emit_svg_curve(traces: list[tuple[str, PrequentialTrace]],
                   path: str | Path) -> Path:
    """SVG chart of one or more prequential traces (shared alpha assumed)."""
    return emit_svg_series([(name, t.faded) for name, t in traces], path)


def _faded_column(trace_file: Path) -> np.ndarray:
    """The faded accuracies of a trace CSV, each row checked. A row must end
    in a newline: `emit_report` copies the rows as they are, so the next
    file's first row would join a last row without one."""
    faded = []
    with open(trace_file) as fh:
        next(fh, None)  # header
        for line_no, line in enumerate(fh, 2):
            try:  # index,correct,faded_accuracy,cumulative_accuracy
                _, _, faded_acc, _ = line.split(",")
                faded.append(float(faded_acc))
            except ValueError:
                raise DataError(f"{trace_file}: line {line_no}: not a trace "
                                f"row: {line.rstrip()!r}") from None
            if not line.endswith("\n"):
                raise DataError(f"{trace_file}: line {line_no}: no newline "
                                f"at the end of the row {line!r}")
    if not faded:
        raise DataError(f"{trace_file}: no trace rows")
    return np.asarray(faded)


def emit_report(out_dir: str | Path) -> list[Path]:
    """Combine every *_trace.csv under out_dir: one long CSV with an
    `algorithm` column plus an overlay SVG. Every trace is checked before
    either file is written."""
    out_dir = Path(out_dir)
    trace_files = sorted(out_dir.glob("*_trace.csv"))
    if not trace_files:
        raise DataError(f"no *_trace.csv files under {out_dir}")
    series = [(f.name[: -len("_trace.csv")], _faded_column(f))
              for f in trace_files]
    combined = out_dir / "combined_traces.csv"
    with open(combined, "w") as out:
        out.write("algorithm,index,correct,faded_accuracy,cumulative_accuracy\n")
        # copied from the files again, not held from the check: a full-size
        # stream trace has 494,021 lines
        for (name, _), f in zip(series, trace_files):
            with open(f) as fh:
                next(fh, None)  # header
                out.writelines(f"{name},{line}" for line in fh)
    svg = emit_svg_series(series, out_dir / "comparison.svg")
    return [combined, svg]


# ---------------------------------------------------------------------------
# argument parsing


class _ExitRequest(Exception):
    def __init__(self, code: int):
        self.code = code


class ArgParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors end `run_guarded` with
    EXIT_USAGE (plain argparse exits 2, the data-error code here)."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise _ExitRequest(EXIT_OK if status == 0 else EXIT_USAGE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _ExitRequest(EXIT_USAGE)


def ascii_int(text: str) -> int:
    """The integer of a text of ASCII digits 0-9 alone. int() would also read
    a sign, spaces, underscores and other scripts' digits: '+1', ' 1',
    '1_0' (as 10), '\uff11'. Every integer option and --attrs index is read
    here."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


def checked(parse, ok, expect: str):
    """An argparse `type=` that parses a value and rejects it unless the
    parse succeeds and the value is ok."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{expect}, got {text!r}")
        return value
    return convert


def int_arg(name: str, low: int):
    """An argparse `type=` for an integer option >= low."""
    return checked(ascii_int, lambda v: v >= low,
                   f"need {name} >= {low} in ASCII digits")


# the range-checked run options, shared with scripts/reproduce_*.py
seed_arg = int_arg("seed", 0)
k_arg = int_arg("k", 1)
folds_arg = int_arg("folds", 2)
sample_arg = int_arg("sample", 1)
alpha_arg = checked(float, lambda v: 0.0 < v <= 1.0, "need 0 < alpha <= 1")


def list_arg(ok, expect: str):
    """An argparse `type=` for a comma-separated list whose every item is ok."""
    return checked(lambda text: text.split(","),
                   lambda items: all(map(ok, items)), expect)


def _attrs_ok(text: str) -> bool:
    """--attrs is all, selected, or non-empty, strictly increasing indices
    from 1 to the attribute count of kdd99_schema(), which every command
    loads."""
    try:
        keep = _keep_indices(text)
    except ValueError:
        return False
    return keep is None or (
        1 <= keep[0] and keep[-1] <= kdd99_schema().n_attributes
        and all(a < b for a, b in zip(keep, keep[1:])))


_attrs = checked(str, _attrs_ok, "need all, selected or strictly increasing "
                 f"indices from 1 to {kdd99_schema().n_attributes}")


def _add_data(p: argparse.ArgumentParser, stream: bool = False):
    p.add_argument("--data", default="kdd99-10" if stream else RunConfig.data,
                   help="kdd99-10 | nsl-kdd | path to a KDD-format file")
    p.add_argument("--variant", default="v2" if stream else RunConfig.variant,
                   choices=VARIANTS)
    p.add_argument("--attrs", type=_attrs, default=RunConfig.attrs,
                   help="selected | all | comma-separated 1-based indices")


def _add_run(p: argparse.ArgumentParser, algos: tuple[str, ...]):
    p.add_argument("--algo", required=True, choices=algos)
    p.add_argument("--seed", type=seed_arg, default=RunConfig.seed)
    p.add_argument("--out", default=RunConfig.out, help="output directory")
    p.add_argument("--k", type=k_arg, default=None,
                   help=f"neighbors for knn/wknn (default {RunConfig.k})")


def build_parser() -> ArgParser:
    parser = ArgParser(prog="nidsbench",
                       description="KDD99-family intrusion-detection benchmark")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("fetch", help="download and verify a dataset file")
    p.add_argument("--data", required=True, help="kdd99-10 | nsl-kdd")
    p.add_argument("--url", default=None, help="override the default URL")
    p.add_argument("--sha256", required=True,
                   help="expected SHA-256 hex digest of the file")
    p.add_argument("--cache", default=None, help="cache directory")

    p = sub.add_parser("preprocess", help="write a relabeled/reduced CSV")
    _add_data(p)
    p.add_argument("--out", default=RunConfig.out, help="output directory")
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize numeric attributes (fit on the "
                        "whole file)")

    p = sub.add_parser("rank", help="print the OneR attribute ranking")
    _add_data(p)

    p = sub.add_parser("batch", help="stratified cross-validation run")
    _add_data(p)
    _add_run(p, BATCH_ALGOS)
    p.add_argument("--folds", type=folds_arg, default=RunConfig.folds)
    p.add_argument("--sample", type=sample_arg, default=RunConfig.sample,
                   help="stratified training subsample size (knn only)")

    p = sub.add_parser("stream", help="prequential evaluation run")
    _add_data(p, stream=True)
    _add_run(p, STREAM_ALGOS)
    p.add_argument("--alpha", type=alpha_arg, default=RunConfig.alpha)

    p = sub.add_parser("report", help="combine traces under --out")
    p.add_argument("--out", default=RunConfig.out)
    return parser


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                        if given.get(f.name) is not None})


def run_guarded(body) -> int:
    """Call body() and return the exit code for how it ended: EXIT_OK, or
    the code of a usage error, data error or runtime failure, with the
    failure's message on stderr and no traceback."""
    try:
        body()
    except _ExitRequest as req:
        return req.code
    except (DataError, urllib.error.URLError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def run_command(argv: list[str]) -> int:
    return run_guarded(lambda: _dispatch(argv))


def _dispatch(argv: list[str]) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise _ExitRequest(EXIT_USAGE)
    k, window = getattr(args, "k", None), stream_learners.WKNN_WINDOW
    if k and args.algo not in ("knn", "wknn"):
        parser.error("argument --k: applies to --algo knn and wknn only")
    if k and args.algo == "wknn" and k > window:
        parser.error(f"argument --k: need k <= WKNN_WINDOW={window} for "
                     f"wknn, got {k}")
    if args.command == "fetch":
        url = args.url or DEFAULT_URLS.get(args.data)
        if url is None:
            parser.error(f"no default URL for {args.data!r}; pass --url")
        cache = Path(args.cache) if args.cache else default_cache_dir()
        path = fetch_dataset(args.data, url, args.sha256, cache)
        print(f"fetched {args.data} -> {path}")
    elif args.command == "preprocess":
        cfg = _config_from_args(args)
        ds = prepare(load(cfg.data)[0], cfg)
        if args.normalize:
            ds = apply_normalizer(fit_normalizer(ds), ds)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{_data_tag(cfg)}_{cfg.variant}_preprocessed"
        csv_path = out_dir / f"{stem}.csv"
        write_dataset(ds, csv_path)
        sidecar = out_dir / f"{stem}.provenance.txt"
        sidecar.write_text(ds.provenance + "\n")
        print(f"wrote {csv_path} ({len(ds)} instances) and {sidecar}")
    elif args.command == "rank":
        cfg = _config_from_args(args)
        ds = prepare(load(cfg.data)[0], cfg)
        print("rank  attr  name                          accuracy")
        for rank, (idx, acc) in enumerate(oner_rank(ds), start=1):
            name = ds.schema.attributes[idx - 1].name
            print(f"{rank:>4}  {idx:>4}  {name:<28}  {acc * 100:7.3f}%")
    elif args.command == "batch":
        if args.sample is not None and args.algo != "knn":
            parser.error("--sample applies to --algo knn only")
        if args.algo == "svm" and args.variant != "v2":
            parser.error("--algo svm applies to --variant v2 only")
        print(run_batch(_config_from_args(args)))
    elif args.command == "stream":
        print(run_stream(_config_from_args(args)))
    elif args.command == "report":
        for p in emit_report(args.out):
            print(f"wrote {p}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
