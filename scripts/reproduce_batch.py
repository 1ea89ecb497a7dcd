#!/usr/bin/env python3
"""Reproduce the batch cross-validation comparison on NSL-KDD.

Runs the five classifiers over the preprocessing variants they apply to
(the SVM is binary-only) under stratified 10-fold cross-validation and
prints an accuracy table. k-NN uses a stratified 20,000-instance training
subsample per fold by default to keep the run desk-scale; pass
--knn-sample 0 for the full-data run.
"""

import sys
import time

from nidsbench.cli import BATCH_ALGOS, VARIANTS, ArgParser, RunConfig, \
    ascii_int, evaluate_batch, folds_arg, int_arg, list_arg, load, \
    run_guarded, say, seed_arg


def _algo_ok(algo: str) -> bool:
    """nb, j48, mlp, svm, or knnK: the CLI's knn with k = K >= 1. A K that
    is not ASCII digits raises ValueError, which `list_arg` rejects."""
    if algo.startswith("knn"):
        return ascii_int(algo[3:]) >= 1
    return algo in BATCH_ALGOS


def main() -> int:
    ap = ArgParser(description=__doc__)
    ap.add_argument("--data", default="nsl-kdd")
    ap.add_argument("--folds", type=folds_arg, default=RunConfig.folds)
    ap.add_argument("--seed", type=seed_arg, default=RunConfig.seed)
    ap.add_argument("--knn-sample", default=20_000,
                    type=int_arg("knn-sample", 0))
    ap.add_argument("--variants", default="v1,v2,v3",
                    type=list_arg(VARIANTS.__contains__,
                                  "need variants from v1, v2, v3"))
    ap.add_argument("--algos", default="nb,j48,knn3,knn5,knn7,mlp,svm",
                    type=list_arg(_algo_ok,
                                  "need algorithms from nb, j48, mlp, svm, "
                                  "knnK with K >= 1"))
    return run_guarded(lambda: _run(ap.parse_args()))


def _run(args) -> None:
    raw, path = load(args.data)
    say(f"loaded {args.data}: {len(raw)} instances from {path}")

    variants = args.variants
    print(f"\n{'algorithm':<10}" + "".join(f"{v:>10}" for v in variants))
    for algo in args.algos:
        knn = algo.startswith("knn")  # knnK: the CLI's knn with k=K
        cells = []
        for vid in variants:
            if algo == "svm" and vid != "v2":
                cells.append(f"{'-':>10}")
                continue
            cfg = RunConfig(variant=vid, algo="knn" if knn else algo,
                            k=int(algo[3:]) if knn else RunConfig.k,
                            folds=args.folds, seed=args.seed,
                            sample=(args.knn_sample or None) if knn else None)
            t0 = time.perf_counter()
            cm = evaluate_batch(raw, cfg)
            dt = time.perf_counter() - t0
            cells.append(f"{cm.accuracy * 100:9.2f}%")
            print(f"  [{algo} {vid}: {cm.accuracy * 100:.2f}% in {dt:.0f}s]",
                  file=sys.stderr)
        print(f"{algo:<10}" + "".join(cells))


if __name__ == "__main__":
    sys.exit(main())
