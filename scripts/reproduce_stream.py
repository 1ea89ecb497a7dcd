#!/usr/bin/env python3
"""Reproduce the prequential stream comparison on KDD99-10 (variant v2).

Evaluates the four stream classifiers with fading factor 0.95, prints their
cumulative and faded-mean accuracies plus annotated drift indices, and writes
per-algorithm trace CSVs and a combined faded-accuracy SVG chart.
"""

import sys
import time
from pathlib import Path

from nidsbench.cli import STREAM_ALGOS, ArgParser, RunConfig, alpha_arg, \
    emit_svg_curve, evaluate_stream, list_arg, load, run_guarded, say, \
    seed_arg, write_trace_csv


def main() -> int:
    ap = ArgParser(description=__doc__)
    ap.add_argument("--data", default="kdd99-10")
    ap.add_argument("--alpha", type=alpha_arg, default=RunConfig.alpha)
    ap.add_argument("--seed", type=seed_arg, default=RunConfig.seed)
    ap.add_argument("--out", default="runs/stream")
    ap.add_argument("--algos", default="ht,wknn,snb,ozaboost",
                    type=list_arg(STREAM_ALGOS.__contains__,
                                  "need algorithms from "
                                  + ", ".join(STREAM_ALGOS)))
    return run_guarded(lambda: _run(ap.parse_args()))


def _run(args) -> None:
    raw, path = load(args.data)
    say(f"loaded {args.data}: {len(raw)} instances from {path}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traces = []
    print(f"\n{'algorithm':<10}{'cumulative':>12}{'faded mean':>12}"
          f"{'time':>8}  drift indices")
    for algo in args.algos:
        t0 = time.perf_counter()
        trace, drifts = evaluate_stream(raw, RunConfig(
            variant="v2", algo=algo, alpha=args.alpha, seed=args.seed))
        dt = time.perf_counter() - t0
        write_trace_csv(trace, out / f"{algo}_trace.csv")
        traces.append((algo, trace))
        print(f"{algo:<10}{trace.final_cumulative_accuracy * 100:11.2f}%"
              f"{trace.faded_mean * 100:11.2f}%{dt:7.0f}s  {drifts}")
    svg = emit_svg_curve(traces, out / "comparison.svg")
    say(f"\nwrote {svg}")


if __name__ == "__main__":
    sys.exit(main())
