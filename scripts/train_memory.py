#!/usr/bin/env python3
"""Traced peak memory of a crowding train against the size of the pair grid.

The geometry is that of ROADMAP item 8: 4 classes, 40 annotators and 2.5
annotations per instance, trained with one epoch of each pretraining stage,
then one epoch of one inner step. The train split has P / 40 instances, so
the (instance x annotator) grid has P pairs; the defaults are P = 200k, 400k
and 800k.

For every P the dataset is synthesized in this process, then one
``trainer.train_method`` runs under ``tracemalloc``, with every row-block
pass on the calling thread (``trainer.one_block_thread``), so the order of
allocations, and with it the peak, does not depend on thread timing. Each
size's peak is the traced high-water mark of the train above the traced
memory at its start, in MB; the slope is their least-squares fit in bytes
per grid pair. NumPy reports its array buffers to ``tracemalloc``, so the
peak counts every array the train holds at once, and none of the heap
layout that makes RSS land in one of a few modes from run to run. Run it
from the checkout, e.g. ``python3 scripts/train_memory.py``.
"""
import argparse
import gc
import json
import statistics
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crowdaug import trainer  # noqa: E402
from crowdaug.data import SynthConfig, synthesize_dataset  # noqa: E402

ANNOTATORS = 40
SYNTH = dict(num_classes=4, num_annotators=ANNOTATORS, avg_annotations=2.5)
TRAIN = dict(pretrain_epochs=1, gen_pretrain_epochs=1, disc_pretrain_epochs=1,
             epochs=1, inner_steps=1)
MB = 1024.0 * 1024.0


def traced_train_peak(pairs: int, seed: int) -> float:
    """The traced peak, in MB, of one crowding train on a grid of ``pairs``
    pairs above the traced memory when it starts."""
    ds = synthesize_dataset(SynthConfig(**SYNTH, num_instances=pairs // ANNOTATORS), seed=seed)
    cfg = trainer.TrainConfig(**TRAIN, seed=seed)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        trainer.train_method(ds, cfg, "crowding")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - baseline) / MB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, nargs="+", default=[200_000, 400_000, 800_000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    trainer.one_block_thread()
    peaks = {pairs: traced_train_peak(pairs, args.seed) for pairs in args.pairs}
    mean_p = statistics.fmean(peaks)
    mean_mb = statistics.fmean(peaks.values())
    spread = sum((p - mean_p) ** 2 for p in peaks)
    slope = sum((p - mean_p) * (mb - mean_mb) for p, mb in peaks.items()) / spread \
        if spread else float("nan")
    print(json.dumps({"traced_peak_mb": {str(p): mb for p, mb in peaks.items()},
                      "slope_bytes_per_pair": slope * MB}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
