"""Repository tooling stays in step with the package: the generated config
reference, the names the benchmark tracer wraps and what it sees of a run,
the scripts' imports and the seed harness's summary."""
import importlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import test_acceptance
from crowdaug import cli
from crowdaug.data import TRAIN, load_dataset

ROOT = Path(__file__).resolve().parent.parent


def load_script(relative):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_reference_is_current():
    gen = load_script("scripts/gen_config_reference.py")
    committed = (ROOT / "docs" / "config_reference.md").read_text(encoding="utf-8")
    assert committed == gen.render(), \
        "docs/config_reference.md is stale: run scripts/gen_config_reference.py"


def test_scripts_import():
    # each script's main() runs only under __main__, so loading runs its imports
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        assert callable(load_script(path.relative_to(ROOT)).main), path.name


HARNESS = load_script("scripts/run_benchmark.py")


def test_harness_trains_the_acceptance_geometry_itself():
    # the same objects, not copies that could drift from criterion 6
    assert HARNESS.BENCH_DATA is test_acceptance.BENCH_DATA
    assert HARNESS.BENCH_TRAIN is test_acceptance.BENCH_TRAIN
    assert HARNESS.CONTROL_DATA is test_acceptance.CONTROL_DATA


def test_harness_summary_on_hand_made_gains():
    # two full 5-seed blocks and a partial third one, which no block mean covers
    gains = [1.0, 0.0, -1.0, 2.0, 3.0, 0.0, 0.0, 4.0, -2.0, 5.0, 7.0, -0.5]
    summary = HARNESS.summarize(gains)
    assert summary["seeds"] == 12
    assert summary["mean"] == pytest.approx(18.5 / 12, abs=1e-12)
    assert summary["se"] == pytest.approx(statistics.stdev(gains) / math.sqrt(12), abs=1e-12)
    assert (summary["zero"], summary["negative"], summary["worst"]) == (3, 3, -2.0)
    assert summary["block_means"] == [1.0, 1.4]
    assert HARNESS.summarize([0.5])["se"] is None


def test_harness_seed_record_reads_the_crowding_run():
    def run(acc, history=(), best_epoch=-1):
        return SimpleNamespace(test_acc=acc, history=list(history), best_epoch=best_epoch)

    history = [{"val_acc": 0.5, "mu_coeff": 0.0}, {"val_acc": 0.75, "mu_coeff": 1.0}]
    record = HARNESS.seed_record(3, {"dl-cl": run(0.5), "dl-mv": run(0.25),
                                     "crowding": run(0.625, history, 1)})
    assert record == {"seed": 3, "dl-cl_test_acc": 0.5, "dl-mv_test_acc": 0.25,
                      "crowding_test_acc": 0.625, "gain": 12.5, "best_epoch": 1,
                      "val_acc": [0.5, 0.75], "mu_coeff": [0.0, 1.0]}


TRACER = load_script("perfbench/tracer.py")


def test_tracer_names_exist():
    # perfbench's install() fails on any name that is gone from the package
    missing = [f"{module}.{name}" for module, name, _ in TRACER.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"crowdaug.{module}"),
                                       name, None))]
    for module, cls, method, _ in TRACER.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"crowdaug.{module}"), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{module}.{cls}.{method}")
    dc = importlib.import_module("crowdaug.diffcore")
    missing += [f"diffcore.{op}" for op in TRACER.NAMED_OPS + TRACER.OTHER_OPS
                if not callable(getattr(dc, op, None))]
    assert missing == []


def tiny_run_inputs(tmp_path):
    """A synthesized 40 x 5 dataset and a one-epoch train config under ``tmp_path``."""
    (tmp_path / "synth.cfg").write_text(
        "num_classes = 3\nnum_instances = 40\nnum_annotators = 5\nfeature_dim = 2\n",
        encoding="utf-8")
    (tmp_path / "train.cfg").write_text(
        "pretrain_epochs = 1\ngen_pretrain_epochs = 1\ndisc_pretrain_epochs = 1\n"
        "epochs = 1\ninner_steps = 1\nbatch_size = 32\n", encoding="utf-8")
    assert cli.main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out", str(tmp_path / "data"), "--seed", "1"]) == 0
    return tmp_path / "data", tmp_path / "train.cfg"


def traced_counts(tmp_path, argv):
    """The tracer's counts of ``crowdaug <argv>`` run under ``perfbench/traced_cli.py``."""
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace), "0", "--",
         *argv], env=env, check=True, capture_output=True, timeout=300)
    return json.loads(trace.read_text(encoding="utf-8"))["counts"]


def test_traced_train_counts_rows_of_all_four_nets(tmp_path):
    # the tracer counts a net's rows from the first argument of its wrapped
    # method, so a signature change there reads as zero rows
    data, cfg = tiny_run_inputs(tmp_path)
    counts = traced_counts(tmp_path, [
        "train", "--data", str(data), "--config", str(cfg), "--method", "crowding",
        "--out", str(tmp_path / "run"), "--seed", "1"])
    rows = {span: counts.get(f"nets.{span}.rows", 0) for span in (
        "classifier.fwd", "generator.fwd", "discriminator.score", "aux.fwd")}
    assert all(rows.values()), rows


def test_traced_augment_counts_every_exported_row(tmp_path):
    # the tracer counts the export's rows as len() of what export_augmented
    # returns: N_train x R for the whole grid
    data, cfg = tiny_run_inputs(tmp_path)
    assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                     "--method", "crowding", "--out", str(tmp_path / "run"),
                     "--seed", "1"]) == 0
    counts = traced_counts(tmp_path, [
        "augment", "--data", str(data), "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
        "--out", str(tmp_path / "aug")])
    ds = load_dataset(data)
    assert counts["trainer.export_rows"] == len(ds.split_indices(TRAIN)) * ds.num_annotators
