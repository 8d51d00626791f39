#!/usr/bin/env python3
"""Component ablations: which parts of the adversarial pipeline matter.

Variants: full, no-info (information term off), no-instance-features /
no-annotator-features (generator input ablations), random-selection
(uniform instead of entropy-weighted discriminator batches). Runs on the
``crowdaug ablate`` grid, so ``CROWDING_THREADS`` caps its worker processes.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crowdaug.cli import ABLATIONS, run_ablation
from crowdaug.data import SynthConfig, synthesize_dataset
from crowdaug.trainer import TrainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--train-instances", type=int, default=500)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--variants", default=",".join(ABLATIONS))
    args = parser.parse_args()

    data_cfg = SynthConfig(num_classes=4, num_instances=args.train_instances,
                           num_annotators=20, feature_dim=2,
                           reliability_low=0.55, reliability_high=0.85,
                           avg_annotations=2.0, difficulty_sensitivity=0.6,
                           class_sep=3.0, val_fraction=0.3)
    ds = synthesize_dataset(data_cfg, seed=0)
    cfg = TrainConfig(epochs=args.epochs, pretrain_epochs=60,
                      gen_pretrain_epochs=30, disc_pretrain_epochs=40,
                      lr_discriminator=1e-3, entropy_threshold=0.8,
                      inner_steps=5, batch_size=64)
    variants = [v.strip() for v in args.variants.split(",")]
    table = run_ablation(ds, variants, cfg, seeds=range(args.seeds))
    for variant in variants:
        print(f"{variant:>22}: {table.mean(variant, 'crowding'):.4f} "
              f"+- {table.std(variant, 'crowding'):.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
