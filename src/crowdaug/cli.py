"""Command-line entry point: reproducible synth/train/eval/sweep/ablate/augment runs.

Argument parsing, config checks, the manifest, exit codes and the experiment
grid. Every command writes a manifest (command, resolved config, digests of the
files its arguments name, seed, version, planned outputs) *before* doing any
real work. Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, NUMPY_IMPORTED_FIRST, __version__, evalsuite
from .checkpoint import CheckpointError
from .config import ConfigError, apply_overrides, parse_config_text
from .data import (DATASET_FILES, TEST, TRAIN, VAL, DatasetError, SynthConfig, check_removal,
                   load_dataset, remove_annotations, save_dataset, synthesize_dataset,
                   write_csv)
from .trainer import (
    METHODS,
    DivergenceError,
    TrainConfig,
    TrainResult,
    _usable_cores,
    check_method,
    check_trainable,
    export_augmented,
    load_result_checkpoint,
    one_block_thread,
    save_result_checkpoint,
    train_method,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finite_or_null(value):
    """``value`` with every non-finite float, nested in dicts and lists too,
    replaced by None, which JSON writes as ``null``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload, sort_keys: bool = True) -> None:
    """Strict JSON: a NaN or infinite float is written as ``null``."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=sort_keys,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def write_manifest(args, config: dict, seed: int, output_names) -> Path:
    """Record what ``args.command`` is about to run in ``args.out``, before any
    training starts, and return that directory. The inputs are the files that
    ``--config``, ``--checkpoint`` and ``--data`` name; absent ones are skipped.

    Any file already at one of the outputs, or at its ``.partial`` name (where
    the export writes before it renames), is removed first, so a run that
    fails leaves no earlier run's output beside its manifest."""
    out_dir, data = Path(args.out), getattr(args, "data", None)
    inputs = [Path(p) for p in (args.config, getattr(args, "checkpoint", None)) if p]
    inputs += [] if data is None else [Path(data) / name for name in DATASET_FILES]
    outputs = [str(out_dir / name) for name in output_names]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on the way to it
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    manifest = {
        "command": args.command,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
        # the pin of crowdaug/__init__.py holds only if NumPy came after it
        "blas_threads": BLAS_THREADS,
        "numpy_imported_first": NUMPY_IMPORTED_FIRST,
    }
    path = out_dir / "manifest.json"
    for output in [path, *outputs, *(f"{name}.partial" for name in outputs)]:
        try:
            Path(output).unlink(missing_ok=True)
        except OSError as exc:  # a directory at the path
            raise ConfigError(f"cannot replace output {output}: {exc.strerror}") from exc
    _write_json(path, manifest)
    return out_dir


def _load_config_values(config_file: str | None) -> dict[str, str]:
    if config_file is None:
        return {}
    try:
        return parse_config_text(Path(config_file).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {config_file}") from exc
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read config file {config_file}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"config file {config_file} is not UTF-8 text") from None


def _split_prefixed(values: dict[str, str], prefix: str) -> tuple[dict, dict]:
    taken = {k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}
    rest = {k: v for k, v in values.items() if not k.startswith(prefix)}
    return taken, rest


def _parse_list(text: str, cast):
    """Comma-separated values cast one by one; an empty list, a bad value or a
    value repeated after casting (``0, 0.0``) raises ``ConfigError``."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list value {text!r}")
    try:
        values = [cast(part) for part in items]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad list value {text!r}: {exc}") from None
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ConfigError(f"repeated list value {repeated!r} in {text!r}")
    return values


def _seed(text: str) -> int:
    """``--seed`` or a seed-list entry: an integer >= 0, as ``np.random.default_rng`` needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _fraction(text: str) -> float:
    """A sweep fraction: the share of annotations removed, in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"removal fraction must lie in [0, 1), got {text!r}")
    return value


def _train_config(values: dict[str, str], seed: int | None) -> TrainConfig:
    fixed = {} if seed is None else {"seed": seed}
    return apply_overrides(TrainConfig, values, **fixed)


# ---------------------------------------------------------------------------
# experiment grid: sparsity sweeps and ablations train through one job list

# variant -> the TrainConfig fields it switches off
ABLATIONS = {
    "full": {},
    "no-info": {"info_weight": 0.0},
    "no-instance-features": {"gen_use_instance_features": False},
    "no-annotator-features": {"gen_use_annotator_features": False},
    "random-selection": {"selection_mode": "uniform"},
}


def apply_ablation(cfg: TrainConfig, variant: str) -> TrainConfig:
    """Return a copy of ``cfg`` with one component switched off."""
    if variant not in ABLATIONS:
        raise ConfigError(f"unknown ablation variant {variant!r}; "
                          f"expected one of {tuple(ABLATIONS)}")
    return TrainConfig(**{**cfg.__dict__, **ABLATIONS[variant]})


def _variant_of(method: str, cfg: TrainConfig) -> str:
    """Label the run by the first ablation whose fields ``cfg`` has switched off."""
    if method != "crowding":
        return method
    return next((variant for variant, off in ABLATIONS.items()
                 if off and all(getattr(cfg, k) == v for k, v in off.items())),
                "full")


def _sweep_job(payload) -> TrainResult:
    """One grid job ``(dataset, fraction, method, seed, config dict)``: remove
    annotations, train, and return the run's result."""
    ds, fraction, method, seed, cfg_dict = payload
    reduced = remove_annotations(ds, fraction, seed=seed)
    cfg = TrainConfig(**{**cfg_dict, "seed": seed})
    return train_method(reduced, cfg, method)


def run_grid(jobs: list) -> list[TrainResult]:
    """Run every job, on one worker process per usable core (at most one per
    job), and return the results in job order: the same on any worker count.

    On one usable core the jobs run serially. CPU affinity (``taskset``) caps
    the workers."""
    workers = min(_usable_cores(), len(jobs))
    if workers > 1:
        # imported here: the pool module costs every other command's start-up
        from concurrent.futures import ProcessPoolExecutor
        # each worker process runs its row blocks on one thread
        with ProcessPoolExecutor(max_workers=workers, initializer=one_block_thread) as pool:
            return list(pool.map(_sweep_job, jobs))
    return [_sweep_job(job) for job in jobs]


def _grid_rows(axis_name: str, cells: list, ds, seeds) -> list[dict]:
    """Train every ``(axis value, fraction, method, config dict)`` cell on
    every seed; one row per cell, in cell order, with the mean and standard
    deviation of its test accuracies over the seeds."""
    results = iter(run_grid([(ds, fraction, method, seed, cfg_dict)
                             for _, fraction, method, cfg_dict in cells
                             for seed in seeds]))
    rows = []
    for value, _, method, _ in cells:
        accs = [next(results).test_acc for _ in seeds]
        rows.append({axis_name: value, "method": method,
                     "mean_acc": float(np.mean(accs)), "std_acc": float(np.std(accs)),
                     "num_seeds": len(accs)})
    return rows


def sparsity_sweep(ds, fractions, methods, seeds, cfg: TrainConfig) -> list[dict]:
    """Remove -> train -> test-accuracy rows over (fraction, method), across seeds."""
    return _grid_rows("fraction", [(fraction, fraction, method, cfg.__dict__)
                                   for fraction in fractions for method in methods],
                      ds, seeds)


def run_ablation(ds, variants, cfg: TrainConfig, seeds) -> list[dict]:
    """Each ablation variant's rows across seeds on all annotations (fraction 0)."""
    return _grid_rows("variant", [(variant, 0.0, "crowding",
                                   apply_ablation(cfg, variant).__dict__)
                                  for variant in variants], ds, seeds)


def _write_records(path: Path, records: list[dict]) -> None:
    """``records`` as CSV rows under the first one's keys; no records write an
    empty file."""
    write_csv(path, [list(records[0]), *(r.values() for r in records)] if records else [])


def _write_rows(out_dir: Path, name: str, rows: list[dict]) -> None:
    """The grid's rows as ``<name>.csv`` and ``<name>.json``."""
    _write_records(out_dir / f"{name}.csv", rows)
    _write_json(out_dir / f"{name}.json", rows, sort_keys=False)  # in column order


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    cfg = apply_overrides(SynthConfig, _load_config_values(args.config))
    out_dir = write_manifest(args, dataclasses.asdict(cfg), args.seed, DATASET_FILES)
    ds = synthesize_dataset(cfg, seed=args.seed)
    save_dataset(ds, out_dir)
    print(f"synthesized {ds.num_instances} instances, "
          f"{ds.num_annotations} annotations -> {out_dir}")
    return EXIT_OK


def _selected_by(result) -> str:
    """How ``train_crowding`` chose the classifier it returned."""
    if result.best_epoch >= 0:
        return "validation"
    return "no validation truth" if math.isnan(result.best_val_acc) else "pretraining"


def cmd_train(args) -> int:
    cfg = _train_config(_load_config_values(args.config), args.seed)
    ds = load_dataset(args.data)
    check_trainable(ds)
    out_dir = write_manifest(args, {**dataclasses.asdict(cfg), "method": args.method},
                             cfg.seed, ("checkpoint.bin", "report.csv", "report.json"))
    if args.method == "crowding" and evalsuite.split_truth(ds, VAL) is None:
        print("warning: the dataset has no validation truth, so no epoch can be "
              "selected and crowding returns its pretrained classifier",
              file=sys.stderr)
    result = train_method(ds, cfg, args.method)
    summary = {
        "method": args.method,
        "variant": _variant_of(args.method, cfg),
        "seed": cfg.seed,
        "best_epoch": result.best_epoch,
        "best_val_acc": result.best_val_acc,
        "test_acc": result.test_acc,
    }
    if args.method == "crowding":
        summary["selected_by"] = _selected_by(result)
    save_result_checkpoint(out_dir / "checkpoint.bin", result)
    _write_records(out_dir / "report.csv", result.history)
    _write_json(out_dir / "report.json", {"summary": summary, "epochs": result.history})
    print(f"{args.method}: best_val={result.best_val_acc:.4f} "
          f"test={result.test_acc:.4f} -> {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    _train_config(_load_config_values(args.config), None)  # checked, not used
    out_dir = write_manifest(args, {"checkpoint": str(args.checkpoint)}, args.seed,
                             ("metrics.json",))
    clf = load_result_checkpoint(args.checkpoint, ds)
    metrics = {}
    for name, split in (("train", TRAIN), ("val", VAL), ("test", TEST)):
        acc = evalsuite.split_accuracy(clf, ds, split)
        if not math.isnan(acc):
            metrics[f"{name}_acc"] = acc
    _write_json(out_dir / "metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sweep, rest = _split_prefixed(_load_config_values(args.config), "sweep_")
    fractions = _parse_list(sweep.pop("fractions", "0,0.2,0.4,0.6"), _fraction)
    methods = _parse_list(sweep.pop("methods", "crowding,dl-cl,dl-mv"), str)
    seeds = _parse_list(sweep.pop("seeds", "0,1,2"), _seed)
    if sweep:
        raise ConfigError(f"unknown sweep key 'sweep_{sorted(sweep)[0]}'")
    for method in methods:
        check_method(method)
    cfg = _train_config(rest, args.seed)
    ds = load_dataset(args.data)
    check_trainable(ds)
    for fraction in fractions:  # fail before any cell trains, not hours in
        check_removal(ds, fraction)

    out_dir = write_manifest(args, {**dataclasses.asdict(cfg), "fractions": fractions,
                                    "methods": methods, "seeds": seeds},
                             cfg.seed, ("sweep.csv", "sweep.json"))

    _write_rows(out_dir, "sweep", sparsity_sweep(ds, fractions, methods, seeds, cfg))
    print(f"sweep: {len(fractions)}x{len(methods)} cells, "
          f"{len(seeds)} seeds -> {out_dir}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    ablate, rest = _split_prefixed(_load_config_values(args.config), "ablate_")
    variants = _parse_list(ablate.pop("variants", ",".join(ABLATIONS)), str)
    seeds = _parse_list(ablate.pop("seeds", "0,1,2"), _seed)
    if ablate:
        raise ConfigError(f"unknown ablation key 'ablate_{sorted(ablate)[0]}'")
    cfg = _train_config(rest, args.seed)
    for variant in variants:  # fail before the manifest, not in the first job
        apply_ablation(cfg, variant)
    ds = load_dataset(args.data)
    check_trainable(ds)

    out_dir = write_manifest(args, {**dataclasses.asdict(cfg), "variants": variants,
                                    "seeds": seeds},
                             cfg.seed, ("ablation.csv", "ablation.json"))

    _write_rows(out_dir, "ablation", run_ablation(ds, variants, cfg, seeds))
    print(f"ablation: {len(variants)} variants, {len(seeds)} seeds -> {out_dir}")
    return EXIT_OK


def cmd_augment(args) -> int:
    ds = load_dataset(args.data)
    _train_config(_load_config_values(args.config), None)  # checked, not used
    out_dir = write_manifest(args, {"checkpoint": str(args.checkpoint)}, args.seed,
                             ("augmented.csv",))
    bundle = load_result_checkpoint(args.checkpoint, ds, generator=True)
    written = export_augmented(ds, bundle, seed=args.seed,
                               out_path=out_dir / "augmented.csv")
    print(f"augment: {written.rows} rows ({written.authentic} authentic) -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems -> exit code 2, not argparse's own
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdaug",
                     description="Train classifiers from sparse crowdsourced "
                                 "annotations with adversarial augmentation.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [("--config", {"default": None, "help": "key = value configuration file"}),
              ("--out", {"required": True, "help": "output directory"}),
              ("--seed", {"type": _seed, "default": None,
                          "help": "seed override (default: config seed)"})]
    data = ("--data", {"required": True, "help": "dataset directory"})
    checkpoint = ("--checkpoint", {"required": True,
                                   "help": "checkpoint file from a training run"})
    method = ("--method", {"default": "crowding", "choices": list(METHODS)})
    for name, help_text, func, extra in (
            ("synth", "generate a synthetic crowd dataset", cmd_synth, []),
            ("train", "train one method on a dataset", cmd_train, [data, method]),
            ("eval", "score a checkpoint on a dataset", cmd_eval, [data, checkpoint]),
            ("sweep", "annotation-removal sweep across methods", cmd_sweep, [data]),
            ("ablate", "component-ablation comparison", cmd_ablate, [data]),
            ("augment", "export completed annotations", cmd_augment, [data, checkpoint])):
        p = sub.add_parser(name, help=help_text)
        for flag, options in common + extra:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


# glibc's mallopt parameters (malloc.h) and the values the CLI sets; constants,
# not settings
_MALLOPTS = (
    (-8, 1),          # M_ARENA_MAX: one arena
    (-3, 32 << 20),   # M_MMAP_THRESHOLD: 32 MiB
    (-1, 256 << 20),  # M_TRIM_THRESHOLD: 256 MiB
)


def _tune_malloc() -> None:
    """Set glibc's malloc to one arena with fixed mmap and trim thresholds; a
    no-op off glibc.

    The row-block worker thread would otherwise allocate from an arena of its
    own, which keeps the memory its blocks freed apart from the main
    thread's: wide-grid ``train`` peaked at 92-93 MB without the cap and at
    84-85 MB with it. One arena alone faults: the blocks' multi-megabyte
    arrays are mapped and unmapped, or the heap top is trimmed and grown
    again, block after block. The two thresholds keep those pages in the
    heap: wide-grid ``train`` (seed 0) took 670-710k minor faults and 1.7-1.8 s
    of system time with one arena alone, and 17k faults and 0.1 s with both
    thresholds, at the same peak RSS; either threshold alone faulted more
    (0.8M with the mmap threshold, 1.4M with the trim threshold)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        for param, value in _MALLOPTS:
            mallopt(param, value)
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        pass


def main(argv=None) -> int:
    _tune_malloc()
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("synth", "eval", "augment") and args.seed is None:
            args.seed = 0
        with warnings.catch_warnings():
            if args.command in ("eval", "augment"):
                # a checkpoint's weights that overflow reach softmax's check of
                # non-finite values, reported below; NumPy's warnings on the way
                # would only print lines before it
                warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (ConfigError, MemoryError) as exc:  # a config whose nets cannot be allocated
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FloatingPointError as exc:  # eval/augment of weights that overflow
        print(f"divergence: {args.command}: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
