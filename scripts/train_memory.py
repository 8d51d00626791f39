#!/usr/bin/env python3
"""Peak RSS of ``crowdaug train`` against the size of the pair grid.

The geometry is that of ROADMAP item 8: 4 classes, 40 annotators and 2.5
annotations per instance, trained with one epoch of each pretraining stage,
then one epoch of one inner step. The train split has P / 40 instances, so
the (instance x annotator) grid has P pairs; the defaults are P = 200k, 400k
and 800k.

For every P and run, ``crowdaug synth`` and ``crowdaug train`` run as child
processes of this launcher, which never imports NumPy: a child's
``ru_maxrss`` is at least the high-water mark of the process that spawned it,
so a large launcher would hide a small train. Each train's peak comes from its
own ``wait4``. The printed JSON holds every run's peak in MB, their median and
minimum per P, and the least-squares slope of the minima in bytes per grid
pair. One tree's peak at a P lands in one of a few modes (at 800k on a 2-core
VM, about 180, 186-189 or 202-204 MB, likely heap layout), which moves a
median of two runs by far more than a few bytes a pair; the slope is therefore
fit to each P's minimum. Run it from the checkout to measure, e.g.
``python3 scripts/train_memory.py``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANNOTATORS = 40
SYNTH = dict(num_classes=4, num_annotators=ANNOTATORS, avg_annotations=2.5)
TRAIN = dict(pretrain_epochs=1, gen_pretrain_epochs=1, disc_pretrain_epochs=1,
             epochs=1, inner_steps=1)


def write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()),
                    encoding="utf-8")
    return str(path)


def run_cli(argv: list, env: dict) -> float:
    """Run ``crowdaug`` with ``argv`` as a child; its peak RSS in MB."""
    child = subprocess.Popen([sys.executable, "-m", "crowdaug.cli", *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"crowdaug {argv[0]} exited {child.returncode}: "
                         f"{stderr.decode(errors='replace').strip()}")
    return usage.ru_maxrss / 1024.0  # KB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, nargs="+", default=[200_000, 400_000, 800_000])
    parser.add_argument("--runs", type=int, default=3, help="train runs per size")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    peaks = {}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        train_cfg = write_config(work / "train.cfg", TRAIN)
        for pairs in args.pairs:
            data = work / f"data-{pairs}"
            synth_cfg = write_config(work / f"synth-{pairs}.cfg",
                                     {**SYNTH, "num_instances": pairs // ANNOTATORS})
            run_cli(["synth", "--config", synth_cfg, "--out", str(data),
                     "--seed", str(args.seed)], env)
            peaks[pairs] = [run_cli(["train", "--config", train_cfg, "--data", str(data),
                                     "--method", "crowding", "--out", str(work / f"run-{k}"),
                                     "--seed", str(args.seed)], env)
                            for k in range(args.runs)]
    minima = {pairs: min(runs) for pairs, runs in peaks.items()}
    sizes = list(minima)
    mean_p = statistics.fmean(sizes)
    mean_mb = statistics.fmean(minima.values())
    spread = sum((p - mean_p) ** 2 for p in sizes)
    slope = sum((p - mean_p) * (minima[p] - mean_mb) for p in sizes) / spread \
        if spread else float("nan")
    print(json.dumps({"peak_rss_mb": {str(p): runs for p, runs in peaks.items()},
                      "median_mb": {str(p): statistics.median(runs)
                                    for p, runs in peaks.items()},
                      "min_mb": {str(p): m for p, m in minima.items()},
                      "slope_bytes_per_pair": slope * 1024 * 1024}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
