#!/usr/bin/env python3
"""Seed harness of the headline benchmark: adversarial gain over its pretraining.

Trains acceptance criterion 6's configuration on seeds 0..N-1 (default 20):
its instance-dependent synthetic benchmark and its identity-confusion control,
each with dl-cl, dl-mv and crowding. The data geometry and the schedule are
``BENCH_DATA``, ``CONTROL_DATA`` and ``BENCH_TRAIN`` of
``tests/test_acceptance.py``; dl-cl and dl-mv read only its pretraining
schedule, so dl-cl is criterion 6's baseline, crowding's own pretraining.
Every run goes through the experiment grid (``cli.run_grid``), on one
worker process per usable core; ``taskset`` caps them.

Writes one record per seed and dataset to ``--out`` (default
``BENCH_gain_seeds.json``): the three test accuracies, the gain (crowding
minus dl-cl, in points), crowding's ``best_epoch`` and its per-epoch
``val_acc`` and ``mu_coeff``. A summary goes with each dataset's records: the
mean gain, its standard error, the counts of zero and of negative gains, the
worst gain (for the control, minus its worst drop) and the means of the
disjoint 5-seed blocks. Seeds 0-4 are criterion 6's own.

``crowdaug`` is imported before NumPy, so BLAS is pinned to one thread unless
the environment says otherwise: two worker processes of two BLAS threads each
oversubscribe two cores, and the thread count moves the last bits of the
results.
"""
import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import crowdaug  # noqa: F401,E402  (pins BLAS before NumPy is imported)
import numpy as np

from crowdaug.cli import run_grid
from crowdaug.data import SynthConfig, synthesize_dataset
from test_acceptance import BENCH_DATA, BENCH_TRAIN, CONTROL_DATA

METHODS = ("dl-cl", "dl-mv", "crowding")
BLOCK = 5  # criterion 6's seed count


def seed_record(seed: int, results: dict) -> dict:
    """One seed's record from its ``{method: TrainResult}``."""
    crowding = results["crowding"]
    return {
        "seed": seed,
        **{f"{method}_test_acc": results[method].test_acc for method in METHODS},
        "gain": 100.0 * (crowding.test_acc - results["dl-cl"].test_acc),
        "best_epoch": crowding.best_epoch,
        "val_acc": [rec["val_acc"] for rec in crowding.history],
        "mu_coeff": [rec["mu_coeff"] for rec in crowding.history],
    }


def summarize(gains) -> dict:
    """Mean, standard error, zero/negative counts, worst gain and the means of
    the full disjoint ``BLOCK``-seed blocks."""
    gains = np.asarray(gains, dtype=np.float64)
    n = len(gains)
    return {
        "seeds": n,
        "mean": float(gains.mean()),
        "se": float(gains.std(ddof=1) / math.sqrt(n)) if n > 1 else None,
        "zero": int(np.sum(gains == 0.0)),
        "negative": int(np.sum(gains < 0.0)),
        "worst": float(gains.min()),
        "block_means": [float(gains[i:i + BLOCK].mean())
                        for i in range(0, n - n % BLOCK, BLOCK)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="train seeds 0..N-1 (default 20)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_gain_seeds.json"),
                        help="JSON results file")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    seeds = range(args.seeds)
    datasets = {name: [synthesize_dataset(SynthConfig(**data), seed=seed) for seed in seeds]
                for name, data in (("benchmark", BENCH_DATA), ("control", CONTROL_DATA))}
    jobs = [(ds, 0.0, method, seed, BENCH_TRAIN)
            for sets in datasets.values() for seed, ds in zip(seeds, sets)
            for method in METHODS]
    results = iter(run_grid(jobs))

    report = {"config": {"data": BENCH_DATA, "control_data": CONTROL_DATA,
                         "train": BENCH_TRAIN, "methods": list(METHODS),
                         "gain": "100 * (crowding - dl-cl test accuracy)"}}
    for name in datasets:
        records = [seed_record(seed, {method: next(results) for method in METHODS})
                   for seed in seeds]
        summary = summarize([r["gain"] for r in records])
        report[name] = {"summary": summary, "seeds": records}
        gains = ", ".join(f"{r['gain']:+.2f}" for r in records)
        se = "n/a" if summary["se"] is None else f"{summary['se']:.2f}"
        blocks = ", ".join(f"{m:+.2f}" for m in summary["block_means"])
        print(f"{name}: per seed {gains}")
        print(f"{name}: mean gain {summary['mean']:+.2f} pts (SE {se}), "
              f"{summary['zero']} zero, {summary['negative']} negative, "
              f"worst {summary['worst']:+.2f}; 5-seed blocks {blocks}")
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
