"""Run one nidsbench CLI invocation in this (fresh) process and record spans.

    python3 perfbench/child.py --out R.npz [--traced] -- <cli args>

Spans (name, start, end, parent) are kept in four compact integer arrays
and written to R.npz, with the CLI's exit code and the peak resident memory,
when the CLI call returns; ``run.py`` turns them into metrics.

Every round wraps the same few calls, replacing the names that
``nidsbench.cli`` looks up: ``cli.run_command`` itself, the calls that
prepare the data (the loader, relabeling, attribute selection, the k-NN
normalizer) and the one evaluation call.  Nothing runs per instance.
A traced round (``--traced``) also wraps the public functions of every layer
where their caller looks them up, per-instance calls included.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import nidsbench.batch_learners as batch_learners  # noqa: E402
import nidsbench.cli as cli  # noqa: E402
import nidsbench.nbcore as nbcore  # noqa: E402
import nidsbench.stream_learners as stream_learners  # noqa: E402

# attribute of nidsbench.cli -> span name, wrapped in every round
CLI_CALLS = {
    "load_dataset": "dataset.load_dataset",
    "apply_variant": "preprocess.apply_variant",
    "select_attributes": "preprocess.select_attributes",
    "fit_normalizer": "preprocess.normalizer",
    "apply_normalizer": "preprocess.normalizer",
    "prequential_run": "evaluation.prequential_run",
    "cross_validate": "evaluation.cross_validate",
}
# ... and in traced rounds only
TRACED_CLI_CALLS = {
    "sha256_file": "dataset.sha256_file",
    "emit_svg_curve": "cli.emit_svg_curve",
    "write_trace_csv": "evaluation.write_trace_csv",
    "annotate_drifts": "evaluation.annotate_drifts",
}


class Tracer:
    """Spans kept as four parallel integer arrays; parent -1 is the root."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, fn, name, rows=None):
        """`fn` leaving a span per call; `rows(result)` adds to name.rows."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, starts, ends = self.name, self.start, self.end
        parents, stack = self.parent, self._stack
        counters, clock = self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if rows is not None:
                key = f"{name}.rows"
                counters[key] = counters.get(key, 0) + rows(out)
            return out
        return traced

    def save(self, path: Path, meta: dict) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 names=np.array(self.names),
                 meta=json.dumps(dict(meta, counters=self.counters)))


def wrap_cli(tracer: Tracer, calls: dict) -> None:
    for attr, name in calls.items():
        rows = len if attr == "load_dataset" else None
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, rows))


def install_layers(tracer: Tracer, models: list) -> None:
    """Replace each layer's public functions where callers look them up."""
    wrap_cli(tracer, TRACED_CLI_CALLS)
    for module in (stream_learners, batch_learners):
        for attr in ("mixed_distances", "knn_vote"):
            original = getattr(batch_learners, attr)
            setattr(module, attr,
                    tracer.wrap(original, f"batch_learners.{attr}"))
    stream_learners.hoeffding_bound = tracer.wrap(
        stream_learners.hoeffding_bound, "stream_learners.hoeffding_bound")
    for cls in (stream_learners.StreamingNaiveBayes,
                stream_learners.HoeffdingTree, stream_learners.WindowKNN,
                stream_learners.OzaBoost):
        for attr in ("predict_code", "learn_row"):
            setattr(cls, attr, tracer.wrap(cls.__dict__[attr],
                                           f"stream_learners.{attr}"))
    base = batch_learners.BatchModel
    base.fit = tracer.wrap(base.fit, "batch_learners.fit")
    base.predict_dataset = tracer.wrap(base.predict_dataset,
                                       "batch_learners.predict_dataset")
    stats = nbcore.ClassConditionalStats
    stats.update = tracer.wrap(stats.update, "nbcore.update")
    stats.log_scores = tracer.wrap(stats.log_scores, "nbcore.log_scores")
    for attr in ("make_stream_model", "make_batch_model"):
        maker = getattr(cli, attr)

        def keep(*args, _maker=maker, **kwargs):
            model = _maker(*args, **kwargs)
            models.append(model)
            return model
        setattr(cli, attr, keep)


def model_counters(models: list) -> dict:
    """Structure counts read through the models' public attributes."""
    trees = [m for m in models if isinstance(m, batch_learners.DecisionTree)]
    hts = [m for m in models if isinstance(m, stream_learners.HoeffdingTree)]
    return {
        "stream_learners.ht.splits": sum(m.n_splits for m in hts),
        "batch_learners.j48.leaves": sum(m.n_leaves() for m in trees),
        "batch_learners.j48.depth": max((m.depth() for m in trees),
                                        default=0),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    models: list = []
    wrap_cli(tracer, CLI_CALLS)
    if args.traced:
        install_layers(tracer, models)
    code = tracer.wrap(cli.run_command, "cli.run_command")(argv)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.counters.update(model_counters(models))
    tracer.save(Path(args.out), {"exit_code": code,
                                 "peak_rss_mb": peak_kib / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
