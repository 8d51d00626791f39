"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Every op is one or two runs of the real ``crowdaug`` CLI in fresh child
processes (see ``run.py``). Each workload is chosen to load a different
layer. ``BENCHMARK.json`` lists the ones the standard benchmark runs, with
the reason for each; ``README.md`` says why the others are left to manual
runs.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the instance-dependent data model of the accuracy benchmark (criteria 6, 8, 10)
BENCH_DATA = dict(num_classes=4, num_instances=500, num_annotators=20,
                  feature_dim=2, reliability_low=0.55, reliability_high=0.85,
                  avg_annotations=2.0, difficulty_sensitivity=0.6,
                  class_sep=3.0, val_fraction=0.30, test_fraction=0.15)
BENCH_TRAIN = dict(pretrain_epochs=60, gen_pretrain_epochs=30,
                   disc_pretrain_epochs=40, lr_discriminator=1e-3,
                   entropy_threshold=0.8, epochs=12, inner_steps=5,
                   batch_size=64)
# the geometry of the sparsity-sweep criterion (7)
SWEEP_DATA = dict(num_classes=4, num_instances=250, num_annotators=12,
                  feature_dim=2, reliability_low=0.55, reliability_high=0.85,
                  avg_annotations=4.0, difficulty_sensitivity=0.6,
                  class_sep=2.25, noise_scale=1.25,
                  val_fraction=0.30, test_fraction=0.20)
SWEEP_FRACTIONS = (0.0, 0.2, 0.4, 0.6)
SWEEP_METHODS = ("crowding", "dl-cl", "dl-mv")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train", "densify" or "sweep"
    data: dict
    train: dict
    checkpoint_train: dict = field(default_factory=dict)  # densify set-up only


WORKLOADS = {w.name: w for w in (
    Workload("bench-train", "train", BENCH_DATA, BENCH_TRAIN),
    Workload("wide-grid", "train",
             {**BENCH_DATA, "num_instances": 2000, "num_annotators": 40},
             {**BENCH_TRAIN, "pretrain_epochs": 5, "gen_pretrain_epochs": 3,
              "disc_pretrain_epochs": 3, "epochs": 2, "inner_steps": 2}),
    # the checkpoint is trained on a capped grid so set-up stays short; the
    # op then exports the full 4000 x 50 grid
    Workload("densify", "densify",
             {**BENCH_DATA, "num_instances": 4000, "num_annotators": 50},
             BENCH_TRAIN,
             checkpoint_train={**BENCH_TRAIN, "pretrain_epochs": 3,
                               "gen_pretrain_epochs": 2,
                               "disc_pretrain_epochs": 1, "epochs": 1,
                               "inner_steps": 1, "max_grid_pairs": 20000}),
    Workload("sweep", "sweep", SWEEP_DATA, {**BENCH_TRAIN, "epochs": 4}),
)}


class CheckFailed(Exception):
    """An op's output is wrong; the op counts as failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def write_config(path: Path, values: dict) -> Path:
    lines = [f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}"
             for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@dataclass
class Inputs:
    """What set-up produced and what the checks compare against."""

    data_dir: Path
    config: Path
    num_classes: int
    num_train: int
    num_annotators: int
    train_annotations: np.ndarray    # (M, 3) triplets of train instances
    majority_share: float            # test accuracy of a constant predictor
    checkpoint: Path | None = None   # densify only
    checkpoint_report: dict | None = None


def make_inputs(workload: Workload, seed: int, root: Path, crowdaug_data,
                train_cli, timings: dict) -> Inputs:
    """Write the dataset and config files for ``seed`` under ``root``.

    ``crowdaug_data`` is the imported ``crowdaug.data`` module; ``train_cli``
    runs ``crowdaug train`` (densify trains its checkpoint through the CLI).
    Seconds spent in synthesis and CSV writing are added to ``timings``.
    """
    root.mkdir(parents=True)
    start = time.perf_counter()
    ds = crowdaug_data.synthesize_dataset(
        crowdaug_data.SynthConfig(**workload.data), seed=seed)
    mid = time.perf_counter()
    crowdaug_data.save_dataset(ds, root / "data")
    end = time.perf_counter()
    timings.setdefault("data.synthesize_s", []).append(mid - start)
    timings.setdefault("data.save_dataset_s", []).append(end - mid)

    train_idx = ds.split_indices(crowdaug_data.TRAIN)
    test_truth = ds.ground_truth[ds.split_indices(crowdaug_data.TEST)]
    mask = ds.splits[ds.annotations[:, 0]] == crowdaug_data.TRAIN
    inputs = Inputs(
        data_dir=root / "data", config=root / "op.cfg",
        num_classes=ds.num_classes, num_train=len(train_idx),
        num_annotators=ds.num_annotators,
        train_annotations=ds.annotations[mask],
        majority_share=float(np.bincount(test_truth).max() / len(test_truth)))

    if workload.kind == "sweep":
        write_config(inputs.config, {**workload.train,
                                     "sweep_fractions": SWEEP_FRACTIONS,
                                     "sweep_methods": SWEEP_METHODS,
                                     "sweep_seeds": (seed,)})
    else:
        write_config(inputs.config, workload.train)
    if workload.kind == "densify":
        cfg = write_config(root / "checkpoint.cfg", workload.checkpoint_train)
        out = root / "checkpoint"
        train_cli(["train", "--config", str(cfg), "--data", str(inputs.data_dir),
                   "--method", "crowding", "--out", str(out), "--seed", str(seed)])
        inputs.checkpoint = out / "checkpoint.bin"
        inputs.checkpoint_report = json.loads((out / "report.json").read_text())
    return inputs


# ---------------------------------------------------------------------------
# ops: argv lists for the CLI, then checks that return the op's digest


def op_commands(workload: Workload, inputs: Inputs, seed: int, out: Path) -> list[list[str]]:
    """CLI argv (after ``crowdaug``) of each process one op runs, in order."""
    data, cfg, s = str(inputs.data_dir), str(inputs.config), str(seed)
    if workload.kind == "train":
        return [["train", "--config", cfg, "--data", data, "--method", "crowding",
                 "--out", str(out), "--seed", s]]
    if workload.kind == "densify":
        ckpt = str(inputs.checkpoint)
        return [["augment", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                 "--out", str(out / "augment"), "--seed", s],
                ["eval", "--data", data, "--checkpoint", ckpt,
                 "--out", str(out / "eval"), "--seed", s]]
    return [["sweep", "--config", cfg, "--data", data, "--out", str(out), "--seed", s]]


def _read_json(path: Path):
    require(path.is_file(), f"missing output {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_train(inputs: Inputs, out: Path, eval_cli) -> tuple[str, dict]:
    report = _read_json(out / "report.json")
    acc = report["summary"]["test_acc"]
    require(0.0 <= acc <= 1.0, f"test_acc {acc} outside [0, 1]")
    require(acc > inputs.majority_share,
            f"test_acc {acc:.4f} does not beat a constant predictor "
            f"({inputs.majority_share:.4f})")
    eval_out = out / "eval"
    eval_cli(["eval", "--data", str(inputs.data_dir), "--checkpoint",
              str(out / "checkpoint.bin"), "--out", str(eval_out)])
    reproduced = _read_json(eval_out / "metrics.json")["test_acc"]
    require(reproduced == acc,
            f"eval of the checkpoint gives test_acc {reproduced!r}, training "
            f"reported {acc!r}")
    digest = sha256_json({"history": report["epochs"], "test_acc": acc})
    digest += ":" + sha256_file(out / "checkpoint.bin")
    info = {"test_acc": acc, "best_epoch": report["summary"]["best_epoch"]}
    return digest, info


def check_densify(inputs: Inputs, out: Path) -> tuple[str, dict]:
    path = out / "augment" / "augmented.csv"
    require(path.is_file(), "missing output augmented.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    require(header == "instance_id,annotator_id,label,authentic",
            f"augmented.csv header {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    expected = inputs.num_train * inputs.num_annotators
    require(rows.shape == (expected, 4),
            f"augmented.csv has {rows.shape[0]} rows, expected {expected}")
    labels = rows[:, 2]
    require(labels.min() >= 0 and labels.max() < inputs.num_classes,
            "augmented label outside [0, C)")
    authentic = rows[rows[:, 3] == 1, :3]
    want = inputs.train_annotations
    require(np.array_equal(authentic[np.lexsort(authentic.T[::-1])],
                           want[np.lexsort(want.T[::-1])]),
            "authentic rows differ from the train annotations")
    metrics = _read_json(out / "eval" / "metrics.json")
    trained = inputs.checkpoint_report["summary"]["test_acc"]
    require(metrics["test_acc"] == trained,
            f"eval test_acc {metrics['test_acc']!r} != trained {trained!r}")
    digest = sha256_file(path) + ":" + sha256_json(metrics)
    info = {"test_acc": metrics["test_acc"],
            "best_epoch": inputs.checkpoint_report["summary"]["best_epoch"]}
    return digest, info


def check_sweep(out: Path) -> tuple[str, dict]:
    rows = _read_json(out / "sweep.json")
    cells = {(row["fraction"], row["method"]): row for row in rows}
    want = {(f, m) for f in SWEEP_FRACTIONS for m in SWEEP_METHODS}
    require(set(cells) == want, f"sweep cells {sorted(cells)} != {sorted(want)}")
    require({row["num_seeds"] for row in rows} == {1},
            "sweep cells have unequal or missing seed counts")
    accs = [row["mean_acc"] for row in rows]
    require(all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs),
            "sweep accuracy outside [0, 1]")
    return sha256_json(rows), {"test_acc": float(np.mean(accs)), "best_epoch": 0}
