#!/usr/bin/env python3
"""Time training's steps, in microseconds per step, beside each step's traced
peak memory in bytes per row.

The steps run on densify's data geometry (4 classes, 4000 instances, 50
annotators):
- the three 64-row minibatch steps of the criterion-6 schedule: a
  crowd-layer pretraining step of the classifier (``crowd_layer``), a
  likelihood pretraining step of the generator (``gen_pretrain``) and one
  D/Q step (``disc_aux``, ``trainer._disc_aux_step``, the discriminator and
  the aux net updated together). The first two are the trainer's own step
  closures, taken from the calls it makes to ``trainer._epoch_losses``;
- two CRM steps of the epoch, each one ``trainer._crm_update`` block over
  2,048 pairs of a logged grid: the generator's (``crm_generator``) and the
  classifier's through the generator it holds fixed (``crm_classifier``);
- the epoch's D/Q step over 4,000 rows a side (``disc_aux_epoch``): train
  annotations against logged pairs.

Each checkout therefore times its own code. The CLI's malloc settings
(``cli._tune_malloc``) are applied first, and BLAS runs on one thread.

Each step runs on fresh row draws, ``--steps`` times per round for the 64-row
steps and proportionally fewer times for the larger ones (at least once); a
round's cost is its mean, and the printed JSON holds, per step, its rows,
every round's cost and their median, and the peak that ``tracemalloc``
traces over one call, divided by the step's rows (both sides for the D/Q
steps). Run it from the checkout to time, e.g.
``python3 scripts/step_cost.py --rounds 7``.
"""
import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crowdaug  # noqa: F401,E402  (pins BLAS before NumPy is imported)
import numpy as np  # noqa: E402

from crowdaug import cli, diffcore as dc, trainer  # noqa: E402
from crowdaug.data import SynthConfig, build_cooccurrence, synthesize_dataset  # noqa: E402
from crowdaug.nets import Classifier, NetworkBundle  # noqa: E402

DATA = dict(num_classes=4, num_instances=4000, num_annotators=50, feature_dim=2,
            reliability_low=0.55, reliability_high=0.85, avg_annotations=2.0,
            difficulty_sensitivity=0.6, class_sep=3.0, val_fraction=0.30,
            test_fraction=0.15)
BATCH = 64
CRM_PAIRS = 2048  # one CRM block
DQ_ROWS = 4000  # rows a side of the epoch's D/Q step


def step_functions(seed: int) -> dict:
    """``{name: (callable(rows), population, rows a step)}``: each step reads
    the rows it is given of its population (train annotations or logged
    pairs), drawn without replacement."""
    ds = synthesize_dataset(SynthConfig(**DATA), seed=seed)
    cfg = trainer.TrainConfig(batch_size=BATCH, lr_discriminator=1e-3, seed=seed)
    steps = []
    real = trainer._epoch_losses
    trainer._epoch_losses = lambda rng, count, cfg, epochs, step: steps.append(step) or []
    try:
        trainer.pretrain_dl_cl(ds, cfg)
        rng = np.random.default_rng(seed)
        clf = Classifier(trainer._dims_for(ds, cfg), rng)
        adjacency = build_cooccurrence(ds)
        gen, disc, aux = trainer.pretrain_gen_disc(ds, clf, cfg, rng, adjacency)
    finally:
        trainer._epoch_losses = real
    crowd_step, gen_step = steps[0], steps[1]
    ann = trainer._train_annotations(ds)
    opt = dc.Adam(dc.ParamStore.union(disc.store, aux.store), lr=cfg.lr_discriminator)

    def dq_step(batch):
        inst, annot = ann[batch, 0], ann[batch, 1]
        fake = rng.integers(0, ds.num_classes, len(batch))
        codes = rng.integers(0, ds.num_classes, len(batch))
        return trainer._disc_aux_step(opt, disc, aux, adjacency, ds, (inst, annot, ann[batch, 2]),
                                      (inst, annot, fake), codes, "D/Q loss", 0)

    logged = trainer.log_generation_grid(gen, clf, ds, cfg, rng)
    deltas = rng.normal(size=len(logged))
    state = trainer.TrainState(
        bundle=NetworkBundle(clf.dims, clf, gen, disc, aux, adjacency),
        optimizers={"clf": dc.Adam(clf.store, lr=trainer.LR_CRM),
                    "gen": dc.Adam(gen.store, lr=trainer.LR_CRM)})

    def crm_step(trains):
        return lambda pairs: trainer._crm_update(state, ds, cfg, logged, np.sort(pairs), deltas,
                                                 0.1, trains, rng)

    # the generated side reads logged pairs spread over every annotator
    spread = rng.permutation(len(logged))

    def dq_epoch_step(batch):
        gen_rows = spread[batch]
        return trainer._disc_aux_step(
            opt, disc, aux, adjacency, ds, (ann[batch, 0], ann[batch, 1], ann[batch, 2]),
            (logged.instances[gen_rows], logged.annotators[gen_rows], logged.labels[gen_rows]),
            logged.zhat_draws[gen_rows], "D/Q loss", 0)

    return {"crowd_layer": (lambda batch: crowd_step(batch, 0), len(ann), BATCH),
            "gen_pretrain": (lambda batch: gen_step(batch, 0), len(ann), BATCH),
            "disc_aux": (dq_step, len(ann), BATCH),
            "crm_generator": (crm_step(("gen",)), len(logged), CRM_PAIRS),
            "crm_classifier": (crm_step(("clf",)), len(logged), CRM_PAIRS),
            "disc_aux_epoch": (dq_epoch_step, len(ann), DQ_ROWS)}


def traced_peak(fn, rows: np.ndarray) -> int:
    """The peak bytes ``tracemalloc`` traces over one ``fn(rows)``; tracing
    starts with the call, so only what the call allocates counts."""
    tracemalloc.start()
    try:
        fn(rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--steps", type=int, default=300, help="64-row steps per round")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cli._tune_malloc()
    functions = step_functions(args.seed)
    rng = np.random.default_rng(args.seed)
    rounds = {name: [] for name in functions}
    peaks = {}
    for name, (fn, count, rows) in functions.items():
        sides = 2 if name.startswith("disc_aux") else 1
        peaks[name] = traced_peak(fn, rng.permutation(count)[:rows]) / (sides * rows)
    for _ in range(args.rounds):
        for name, (fn, count, rows) in functions.items():
            steps = max(1, round(args.steps * BATCH / rows))
            batches = [rng.permutation(count)[:rows] for _ in range(steps)]
            fn(batches[0])  # warm
            start = time.perf_counter()
            for batch in batches:
                fn(batch)
            rounds[name].append(1e6 * (time.perf_counter() - start) / steps)
    print(json.dumps({name: {"rows": rows, "median_us": statistics.median(rounds[name]),
                             "rounds_us": rounds[name], "peak_bytes_per_row": peaks[name]}
                      for name, (_, _, rows) in functions.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
