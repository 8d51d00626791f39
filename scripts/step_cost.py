#!/usr/bin/env python3
"""Time the three 64-row minibatch steps of training, in microseconds per step.

The steps are those of the criterion-6 schedule on densify's data geometry
(4 classes, 4000 instances, 50 annotators): a crowd-layer pretraining step
of the classifier, a likelihood pretraining step of the generator, and one
D/Q step (``trainer._disc_aux_step``, the discriminator and the aux net
updated together). The first two are the trainer's own step closures, taken
from the calls it makes to ``trainer._epoch_losses``, so each checkout times
its own code. The CLI's malloc settings (``cli._tune_malloc``) are applied
first, and BLAS runs on one thread.

Each step runs ``--steps`` times per round on fresh 64-row batches; a round's
cost is its mean, and the printed JSON holds every round's cost and their
median per step. Run it from the checkout to time, e.g.
``python3 scripts/step_cost.py --rounds 7``.
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crowdaug  # noqa: F401,E402  (pins BLAS before NumPy is imported)
import numpy as np  # noqa: E402

from crowdaug import cli, diffcore as dc, trainer  # noqa: E402
from crowdaug.data import SynthConfig, build_cooccurrence, synthesize_dataset  # noqa: E402
from crowdaug.nets import Classifier  # noqa: E402

DATA = dict(num_classes=4, num_instances=4000, num_annotators=50, feature_dim=2,
            reliability_low=0.55, reliability_high=0.85, avg_annotations=2.0,
            difficulty_sensitivity=0.6, class_sep=3.0, val_fraction=0.30,
            test_fraction=0.15)
BATCH = 64


def step_functions(seed: int) -> dict:
    """``{name: callable(batch)}`` for the three steps, over train annotations."""
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
                                      (inst, annot, fake), codes, cfg, "D/Q loss", 0)

    return {"crowd_layer": (lambda batch: crowd_step(batch, 0), len(ann)),
            "gen_pretrain": (lambda batch: gen_step(batch, 0), len(ann)),
            "disc_aux": (dq_step, len(ann))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--steps", type=int, default=300, help="steps per round")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cli._tune_malloc()
    functions = step_functions(args.seed)
    rng = np.random.default_rng(args.seed)
    rounds = {name: [] for name in functions}
    for _ in range(args.rounds):
        for name, (fn, count) in functions.items():
            batches = [rng.permutation(count)[:BATCH] for _ in range(args.steps)]
            fn(batches[0])  # warm
            start = time.perf_counter()
            for batch in batches:
                fn(batch)
            rounds[name].append(1e6 * (time.perf_counter() - start) / args.steps)
    print(json.dumps({name: {"median_us": statistics.median(costs), "rounds_us": costs}
                      for name, costs in rounds.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
