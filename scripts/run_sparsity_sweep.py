#!/usr/bin/env python3
"""Annotation-removal sweep: accuracy vs. fraction of annotations removed.

Builds a redundantly annotated synthetic dataset (~4 annotations/instance),
removes growing fractions of annotations (always leaving each annotated train
instance at least one), and compares methods at each sparsity level. Runs on
the ``crowdaug sweep`` grid, so ``CROWDING_THREADS`` caps its worker processes.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crowdaug.cli import sparsity_sweep
from crowdaug.data import SynthConfig, synthesize_dataset
from crowdaug.trainer import TrainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--train-instances", type=int, default=250)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--methods", default="crowding,dl-cl,dl-mv")
    parser.add_argument("--fractions", default="0,0.2,0.4,0.6")
    parser.add_argument("--out", type=Path, default=Path("sweep.csv"))
    args = parser.parse_args()

    data_cfg = SynthConfig(num_classes=4, num_instances=args.train_instances,
                           num_annotators=12, feature_dim=2,
                           reliability_low=0.55, reliability_high=0.85,
                           avg_annotations=4.0, difficulty_sensitivity=0.6,
                           class_sep=2.25, noise_scale=1.25,
                           val_fraction=0.3, test_fraction=0.2)
    ds = synthesize_dataset(data_cfg, seed=100)
    fractions = [float(f) for f in args.fractions.split(",")]
    methods = [m.strip() for m in args.methods.split(",")]
    cfg = TrainConfig(epochs=args.epochs, pretrain_epochs=60,
                      gen_pretrain_epochs=30, disc_pretrain_epochs=40,
                      lr_discriminator=1e-3, entropy_threshold=0.8,
                      inner_steps=5, batch_size=64)
    table = sparsity_sweep(ds, fractions=fractions, methods=methods,
                           seeds=range(args.seeds), cfg=cfg)
    for row in table.rows():
        print(f"fraction {row['fraction']:.1f} {row['method']:>8}: "
              f"{row['mean_acc']:.4f} +- {row['std_acc']:.4f}")
    table.to_csv(args.out)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
