"""Command-line behavior: artifacts, manifests, exit codes, determinism."""
import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from crowdaug import cli
from crowdaug.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from crowdaug.data import DATASET_FILES, VAL, load_dataset, save_dataset, write_csv
from crowdaug.nets import Generator
from crowdaug.trainer import DivergenceError, TrainConfig, load_result_checkpoint
from helpers import read_augmented_file


SYNTH_CFG = """\
num_classes = 3
num_instances = 60
num_annotators = 6
feature_dim = 2
avg_annotations = 2.5
reliability_low = 0.7
reliability_high = 0.95
"""

TRAIN_CFG = """\
pretrain_epochs = 3
gen_pretrain_epochs = 2
disc_pretrain_epochs = 1
epochs = 1
inner_steps = 2
batch_size = 32
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared synthetic dataset + one trained adversarial run."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SYNTH_CFG, encoding="utf-8")
    (root / "train.cfg").write_text(TRAIN_CFG, encoding="utf-8")
    assert cli.main(["synth", "--config", str(root / "synth.cfg"),
                     "--out", str(root / "data"), "--seed", "7"]) == 0
    assert cli.main(["train", "--data", str(root / "data"),
                     "--config", str(root / "train.cfg"),
                     "--method", "crowding",
                     "--out", str(root / "run"), "--seed", "3"]) == 0
    return root


def dataset_variant(workspace, out, **changes):
    """The workspace dataset with some fields replaced, saved to ``out``."""
    ds = load_dataset(workspace / "data")
    save_dataset(dataclasses.replace(ds, **changes), out)
    return out


def relabeled_variant(workspace, out, mapping):
    """The workspace dataset with annotation and truth labels remapped."""
    ds = load_dataset(workspace / "data")
    lut = np.asarray(mapping)
    ann = ds.annotations.copy()
    ann[:, 2] = lut[ann[:, 2]]
    return dataset_variant(workspace, out, num_classes=int(lut.max()) + 1,
                           annotations=ann, ground_truth=lut[ds.ground_truth])


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_manifest(workspace):
    data = workspace / "data"
    for name in ("features.csv", "annotators.csv", "annotations.csv",
                 "truth.csv", "splits.csv", "manifest.json"):
        assert (data / name).is_file(), name
    ds = load_dataset(data)
    assert ds.num_annotators == 6 and ds.num_classes == 3
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["config"]["num_instances"] == 60


def test_synth_is_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["synth", "--config", str(workspace / "synth.cfg"),
                         "--out", str(out), "--seed", "7"]) == 0
    for name in ("features.csv", "annotators.csv", "annotations.csv",
                 "truth.csv", "splits.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("num_classes = 3\nwibble = 1\n", encoding="utf-8")
    code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "wibble" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = cli.main(["synth", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_emits_all_artifacts(workspace):
    run = workspace / "run"
    for name in ("manifest.json", "checkpoint.bin", "report.csv", "report.json"):
        assert (run / name).is_file(), name
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["method"] == "crowding"
    assert report["summary"]["variant"] == "full"
    assert report["summary"]["seed"] == 3
    assert 0.0 <= report["summary"]["test_acc"] <= 1.0
    assert len(report["epochs"]) == 1
    # the epochs are numbered 0..n-1, and every accuracy lies in [0, 1] or is
    # null (a NaN accuracy is written as null)
    epochs = report["epochs"]
    assert [record["epoch"] for record in epochs] == list(range(len(epochs)))
    accs = [v for record in epochs for k, v in record.items() if k.endswith("_acc")]
    assert len(accs) == 3 * len(epochs)
    assert all(acc is None or 0.0 <= acc <= 1.0 for acc in accs)


def test_manifest_echoes_defaults_and_digests(workspace):
    manifest = json.loads((workspace / "run" / "manifest.json")
                          .read_text(encoding="utf-8"))
    # defaults for the two headline hyper-parameters are materialized
    assert manifest["config"]["info_weight"] == 0.5
    assert manifest["config"]["entropy_threshold"] == 0.5
    assert manifest["config"]["method"] == "crowding"
    assert manifest["version"]
    digests = manifest["input_digests"]
    assert any(path.endswith("annotations.csv") for path in digests)
    assert all(len(d) == 64 for d in digests.values())
    assert any(p.endswith("checkpoint.bin") for p in manifest["outputs"])


GRID_CFG = {"sweep": "sweep_fractions = 0\nsweep_methods = dl-mv\nsweep_seeds = 0\n",
            "ablate": "ablate_variants = full\nablate_seeds = 0\n"}


@pytest.mark.parametrize("command", ["synth", "train", "eval", "sweep", "ablate", "augment"])
def test_manifest_lists_the_files_the_arguments_name(workspace, tmp_path, command):
    # no truth.csv in the dataset: the manifest skips a file that is absent
    data = dataset_variant(workspace, tmp_path / "data", ground_truth=None)
    base = workspace / ("synth.cfg" if command == "synth" else "train.cfg")
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text(base.read_text(encoding="utf-8") + GRID_CFG.get(command, ""),
                      encoding="utf-8")
    argv, inputs = [command, "--config", str(config), "--out", str(out)], [config]
    if command != "synth":
        argv += ["--data", str(data)]
        inputs += [data / name for name in DATASET_FILES if name != "truth.csv"]
    if command in ("eval", "augment"):
        argv += ["--checkpoint", str(workspace / "run" / "checkpoint.bin")]
        inputs.append(workspace / "run" / "checkpoint.bin")
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == command
    assert manifest["input_digests"] == {str(p): cli._sha256(p) for p in inputs}
    assert sorted(manifest["outputs"]) == sorted(
        str(p) for p in out.iterdir() if p.name != "manifest.json")


def test_manifest_records_the_blas_pin(workspace):
    manifest = json.loads((workspace / "run" / "manifest.json")
                          .read_text(encoding="utf-8"))
    # the suite imports crowdaug before NumPy, and sets none of the variables
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert manifest["numpy_imported_first"] is False


@pytest.mark.parametrize("first, env, pinned", [
    ("crowdaug", {}, True),
    ("numpy", {}, False),
    ("crowdaug", {"OMP_NUM_THREADS": "2"}, False),
])
def test_blas_pin_holds_only_before_numpy(first, env, pinned):
    # the pool of row-block threads runs only where the pin took effect
    script = (f"import {first}, crowdaug, json\n"
              "from crowdaug import trainer\n"
              "print(json.dumps([crowdaug.BLAS_THREADS, crowdaug.NUMPY_IMPORTED_FIRST,"
              " crowdaug.BLAS_PINNED, trainer._BLOCK_THREADS]))\n")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", script], env={**base, **env}, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    values, numpy_first, got_pinned, block_threads = json.loads(out)
    assert values == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1", **env}
    assert numpy_first == (first == "numpy")
    assert got_pinned == pinned
    assert block_threads == (2 if pinned and len(os.sched_getaffinity(0)) >= 2 else 1)


def test_malloc_is_one_arena_with_fixed_thresholds(monkeypatch):
    calls = []  # the mallopt calls made through a stand-in C library
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._tune_malloc()
    # M_ARENA_MAX, M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
    assert calls == [(-8, 1), (-3, 32 * 2**20), (-1, 256 * 2**20)]


def test_malloc_tuning_is_a_no_op_without_mallopt(monkeypatch):
    def no_library(name):
        raise OSError("no C library handle")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    cli._tune_malloc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # no mallopt
    cli._tune_malloc()


def test_zero_info_weight_is_labeled_distinctly(workspace, tmp_path):
    cfg = tmp_path / "noinfo.cfg"
    cfg.write_text(TRAIN_CFG + "info_weight = 0\n", encoding="utf-8")
    out = tmp_path / "run0"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--method", "crowding",
                     "--out", str(out), "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["variant"] == "no-info"


def test_train_reports_how_the_classifier_was_selected(workspace):
    summary = json.loads((workspace / "run" / "report.json")
                         .read_text(encoding="utf-8"))["summary"]
    expected = "validation" if summary["best_epoch"] >= 0 else "pretraining"
    assert summary["selected_by"] == expected


def test_train_without_validation_truth_warns_once(workspace, tmp_path, capsys):
    data = dataset_variant(workspace, tmp_path / "unlabeled", ground_truth=None)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data),
                     "--config", str(workspace / "train.cfg"), "--method", "crowding",
                     "--out", str(out), "--seed", "3"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and "no validation truth" in warnings[0]
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["selected_by"] == "no validation truth"
    assert summary["best_epoch"] == -1


def test_train_missing_dataset_is_data_error(tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("name, row", [("annotations.csv", "0,0,99999999999999999999"),
                                       ("truth.csv", "0,99999999999999999999")])
def test_train_on_integer_beyond_int64_is_data_error(workspace, tmp_path, capsys,
                                                     name, row):
    data = dataset_variant(workspace, tmp_path / "data")
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["train", "--data", str(data), "--config", str(workspace / "train.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {path}: integer out of range in row 0\n"


def _config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error:")
    return err


def test_train_out_naming_an_existing_file_is_config_error(workspace, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    code = cli.main(["train", "--data", str(workspace / "data"),
                     "--config", str(workspace / "train.cfg"), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "cannot create output directory" in _config_error_line(capsys)
    assert out.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("line", ["mu_mode = fixed", "mu_fixed = 0.25"])
def test_removed_multiplier_keys_are_unknown(workspace, tmp_path, capsys, line):
    # the multiplier coefficient is always chosen from the grid
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG + line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(workspace / "data"), "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"unknown config key {line.split()[0]!r}" in _config_error_line(capsys)
    assert not out.exists()


def test_out_below_a_file_is_config_error(workspace, tmp_path, capsys):
    parent = tmp_path / "file"
    parent.write_text("", encoding="utf-8")
    code = cli.main(["synth", "--config", str(workspace / "synth.cfg"),
                     "--out", str(parent / "x")])
    assert code == cli.EXIT_CONFIG
    assert "cannot create output directory" in _config_error_line(capsys)


def test_config_naming_a_directory_is_config_error(workspace, tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["train", "--data", str(workspace / "data"),
                     "--config", str(tmp_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "cannot read config file" in _config_error_line(capsys)
    assert not out.exists()  # rejected before the manifest


def test_config_that_is_not_utf8_is_config_error(workspace, tmp_path, capsys):
    cfg, out = tmp_path / "train.cfg", tmp_path / "o"
    cfg.write_bytes(b"epochs = \xff\n")
    code = cli.main(["train", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "is not UTF-8 text" in _config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("method", ["crowding", "dl-mv"])
@pytest.mark.parametrize("key, message", [
    ("dropout = 1.5", "dropout must lie in [0, 1)"),
    ("dropout = -0.5", "dropout must lie in [0, 1)"),
    ("noise_dim = 0", "noise_dim must be >= 1"),
])
def test_out_of_range_net_setting_is_config_error(workspace, tmp_path, capsys,
                                                  method, key, message):
    cfg, out = tmp_path / "train.cfg", tmp_path / "o"
    cfg.write_text(TRAIN_CFG + key + "\n", encoding="utf-8")
    code = cli.main(["train", "--data", str(workspace / "data"), "--config", str(cfg),
                     "--method", method, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert message in _config_error_line(capsys)
    assert not out.exists()  # rejected before the manifest


def test_nets_that_cannot_be_allocated_are_config_error(workspace, tmp_path, monkeypatch,
                                                        capsys):
    # noise_dim = 2000000000 asks NumPy for 954 GiB of generator weights; the
    # refusal is raised here without allocating anything
    def refuse(self, dims, rng):
        raise MemoryError("Unable to allocate 954. GiB for an array with shape "
                          "(2000000026, 64) and data type float64")

    monkeypatch.setattr(Generator, "__init__", refuse)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG, encoding="utf-8")
    code = cli.main(["train", "--data", str(workspace / "data"), "--config",
                     str(tmp_path / "train.cfg"), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "Unable to allocate 954. GiB" in _config_error_line(capsys)


@pytest.mark.parametrize("argv, config", [
    (["synth", "--seed", "-1"], ""),
    (["train", "--data", "DATA", "--seed", "-1"], ""),
    (["train", "--data", "DATA"], "seed = -1\n"),
    (["eval", "--data", "DATA", "--checkpoint", "CKPT", "--seed", "-1"], ""),
    (["eval", "--data", "DATA", "--checkpoint", "CKPT"], "seed = -1\n"),
    (["augment", "--data", "DATA", "--checkpoint", "CKPT", "--seed", "-1"], ""),
    (["augment", "--data", "DATA", "--checkpoint", "CKPT"], "seed = -1\n"),
    (["sweep", "--data", "DATA", "--seed", "-1"], ""),
    (["sweep", "--data", "DATA"], "seed = -1\n"),
    (["sweep", "--data", "DATA"], "sweep_seeds = 0, -1\n"),
    (["sweep", "--data", "DATA"], "sweep_seeds = zero\n"),
    (["ablate", "--data", "DATA", "--seed", "-1"], ""),
    (["ablate", "--data", "DATA"], "seed = -1\n"),
    (["ablate", "--data", "DATA"], "ablate_seeds = -1\n"),
])
def test_negative_seed_is_config_error(workspace, tmp_path, capsys, argv, config):
    cfg, out = tmp_path / "seed.cfg", tmp_path / "o"
    cfg.write_text(config, encoding="utf-8")
    paths = {"DATA": str(workspace / "data"),
             "CKPT": str(workspace / "run" / "checkpoint.bin")}
    code = cli.main([paths.get(a, a) for a in argv] + ["--config", str(cfg),
                                                       "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "seed" in _config_error_line(capsys)
    assert not out.exists()  # rejected before the manifest


def test_usage_error_exits_with_config_code(capsys):
    assert cli.main(["train"]) == cli.EXIT_CONFIG  # --data/--out missing
    assert "required" in capsys.readouterr().err


def test_divergence_maps_to_exit_code_4(workspace, tmp_path, monkeypatch, capsys):
    def explode(*a, **kw):
        raise DivergenceError("non-finite cross-entropy loss at epoch 0")
    monkeypatch.setattr(cli, "train_method", explode)
    out = tmp_path / "div"
    code = cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--seed", "1"])
    assert code == cli.EXIT_DIVERGED
    assert "divergence" in capsys.readouterr().err
    # the manifest was written before training started
    assert (out / "manifest.json").is_file()
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("method", ["crowding", "dl-cl", "dl-mv"])
def test_diverging_run_exits_4_with_one_line(tmp_path, capsys, method):
    # learning rates this large overflow the first Adam step, so the next
    # forward pass meets non-finite logits
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG.replace("60", "40"), encoding="utf-8")
    assert cli.main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out", str(tmp_path / "data"), "--seed", "1"]) == 0
    (tmp_path / "train.cfg").write_text(
        TRAIN_CFG + "".join(f"lr_{name} = 1e300\n" for name in
                            ("classifier", "generator", "discriminator", "pretrain")),
        encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(tmp_path / "data"), "--method", method,
                     "--config", str(tmp_path / "train.cfg"), "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err == f"divergence: {method}: softmax input contains non-finite values\n"
    assert (out / "manifest.json").is_file() and not (out / "checkpoint.bin").exists()


def all_validation_variant(workspace, out):
    """The workspace dataset with every instance in the validation split."""
    ds = load_dataset(workspace / "data")
    return dataset_variant(workspace, out, splits=np.full_like(ds.splits, VAL))


@pytest.mark.parametrize("argv, config", [
    (["train", "--method", "crowding"], TRAIN_CFG),
    (["train", "--method", "dl-cl"], TRAIN_CFG),
    (["train", "--method", "dl-mv"], TRAIN_CFG),
    (["sweep"], "sweep_fractions = 0\nsweep_seeds = 0\n"),
    (["ablate"], "ablate_variants = full\nablate_seeds = 0\n"),
], ids=["train-crowding", "train-dl-cl", "train-dl-mv", "sweep", "ablate"])
def test_training_on_no_train_instance_is_data_error(workspace, tmp_path, capsys,
                                                     argv, config):
    data = all_validation_variant(workspace, tmp_path / "data")
    cfg, out = tmp_path / "run.cfg", tmp_path / "o"
    cfg.write_text(config, encoding="utf-8")
    code = cli.main(argv + ["--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == \
        "data error: no train instance has an annotation, so there is nothing to train on\n"
    assert not out.exists()  # rejected before the manifest


def test_eval_and_augment_accept_a_dataset_with_no_train_instance(workspace, tmp_path):
    data = all_validation_variant(workspace, tmp_path / "data")
    checkpoint = str(workspace / "run" / "checkpoint.bin")
    for command in ("eval", "augment"):
        assert cli.main([command, "--data", str(data), "--checkpoint", checkpoint,
                         "--out", str(tmp_path / command)]) == cli.EXIT_OK
    assert set(json.loads((tmp_path / "eval" / "metrics.json").read_text(
        encoding="utf-8"))) == {"val_acc"}
    assert (tmp_path / "augment" / "augmented.csv").read_text(encoding="utf-8") == \
        "instance_id,annotator_id,label,authentic\n"


# ---------------------------------------------------------------------------
# eval


def test_eval_reproduces_reported_accuracy_bit_exactly(workspace, tmp_path):
    out = tmp_path / "ev"
    assert cli.main(["eval", "--data", str(workspace / "data"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    report = json.loads((workspace / "run" / "report.json")
                        .read_text(encoding="utf-8"))
    assert metrics["test_acc"] == report["summary"]["test_acc"]
    assert set(metrics) == {"train_acc", "val_acc", "test_acc"}


def test_eval_without_truth_reports_no_accuracy(workspace, tmp_path):
    data = dataset_variant(workspace, tmp_path / "unlabeled", ground_truth=None)
    assert not (data / "truth.csv").exists()
    out = tmp_path / "ev"
    assert cli.main(["eval", "--data", str(data),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text(encoding="utf-8")) == {}


def test_eval_rejects_checkpoint_of_other_feature_dim(workspace, tmp_path, capsys):
    ds = load_dataset(workspace / "data")
    wider = np.hstack([ds.features, np.zeros((ds.num_instances, 3))])
    data = dataset_variant(workspace, tmp_path / "wide", features=wider)
    code = cli.main(["eval", "--data", str(data),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature_dim" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_rejects_dataset_with_more_classes_than_checkpoint(workspace, tmp_path,
                                                                capsys):
    checkpoint = str(workspace / "run" / "checkpoint.bin")
    # a dataset without class 2 fits the 3-class checkpoint
    fewer = relabeled_variant(workspace, tmp_path / "two", [0, 1, 1])
    assert load_dataset(fewer).num_classes == 2
    assert cli.main(["eval", "--data", str(fewer), "--checkpoint", checkpoint,
                     "--out", str(tmp_path / "o2")]) == 0
    capsys.readouterr()
    more = relabeled_variant(workspace, tmp_path / "five", [0, 3, 4])
    code = cli.main(["eval", "--data", str(more), "--checkpoint", checkpoint,
                     "--out", str(tmp_path / "o5")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "num_classes" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("prefix, command", [
    ("meta.", "eval"), ("meta.", "augment"),
    ("classifier.W2", "eval"), ("generator.W2", "augment")])
def test_checkpoint_missing_arrays_is_data_error(workspace, tmp_path, capsys,
                                                 prefix, command):
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    broken = tmp_path / "broken.bin"
    save_checkpoint(broken, {k: v for k, v in arrays.items() if not k.startswith(prefix)})
    code = cli.main([command, "--data", str(workspace / "data"),
                     "--checkpoint", str(broken), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "missing array" in err
    assert prefix in err and len(err.strip().splitlines()) == 1


def test_eval_reads_only_the_classifier_arrays(workspace, tmp_path):
    # eval scores the classifier; damage to the other nets must not change it
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    assert "generator.W2" in arrays
    save_checkpoint(tmp_path / "clf_only.bin",
                    {k: v for k, v in arrays.items()
                     if k.startswith(("meta.", "classifier."))})
    for name, checkpoint in (("intact", workspace / "run" / "checkpoint.bin"),
                             ("clf_only", tmp_path / "clf_only.bin")):
        assert cli.main(["eval", "--data", str(workspace / "data"),
                         "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "clf_only" / "metrics.json").read_bytes() == \
        (tmp_path / "intact" / "metrics.json").read_bytes()


def test_checkpoint_with_wrong_shape_array_is_data_error(workspace, tmp_path, capsys):
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    arrays["generator.W2"] = arrays["generator.W2"][:, :1]
    save_checkpoint(tmp_path / "narrow.bin", arrays)
    code = cli.main(["augment", "--data", str(workspace / "data"),
                     "--checkpoint", str(tmp_path / "narrow.bin"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "shape mismatch" in err
    assert len(err.strip().splitlines()) == 1


def rewrite_manifest_entry(src, dst, name, field, value):
    """Copy checkpoint ``src`` to ``dst`` with one field (0 = name, 1 = shape,
    2 = offset) of array ``name``'s manifest entry replaced."""
    manifest, payload = src.read_bytes().split(b"\n\n", 1)
    lines = manifest.decode("utf-8").split("\n")
    for i, line in enumerate(lines):
        parts = line.split("|")
        if parts[0] == name:
            parts[field] = value
            lines[i] = "|".join(parts)
    dst.write_bytes("\n".join(lines).encode("utf-8") + b"\n\n" + payload)


@pytest.mark.parametrize("command", ["eval", "augment"])
@pytest.mark.parametrize("name, field, value, message", [
    ("classifier.W1", 2, "-2048",
     "negative offset or dimension in manifest line 'classifier.W1|"),
    ("meta.num_classes", 1, "-1",
     "negative offset or dimension in manifest line 'meta.num_classes|"),
    # 2**62 x 4 elements overflow an int64 product to 0
    ("classifier.W1", 1, f"{2 ** 62},4", "payload truncated for 'classifier.W1'"),
    # a later entry must not replace an earlier one of its name: both are
    # (128,), so eval would score the classifier with a generator bias
    ("generator.b2", 0, "classifier.b1", "manifest names array 'classifier.b1' twice")],
    ids=["negative-offset", "negative-dimension", "overflowing-shape", "repeated-name"])
def test_checkpoint_with_impossible_manifest_entry_is_data_error(
        workspace, tmp_path, capsys, command, name, field, value, message):
    checkpoint, broken = workspace / "run" / "checkpoint.bin", tmp_path / "broken.bin"
    rewrite_manifest_entry(checkpoint, broken, name, field, value)
    assert broken.read_bytes() != checkpoint.read_bytes()
    code = cli.main([command, "--data", str(workspace / "data"),
                     "--checkpoint", str(broken), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "augment"])
@pytest.mark.parametrize("name, value, message", [
    ("meta.num_classes", np.inf, "= inf is not a valid int"),
    ("meta.num_classes", np.array([3.0, 3.0]), "must be a scalar, got shape (2,)"),
    ("meta.num_classes", 4.5, "= 4.5 is not a valid int"),
    ("meta.lca_enabled", 0.5, "= 0.5 is not a valid bool"),
    ("meta.clf_hidden", 2 ** 40, "shape mismatch for 'classifier.W1'"),
    ("meta.clf_hidden", 2 ** 27, "shape mismatch for 'classifier.W1'"),
    ("meta.num_classes", 2 ** 40, "shape mismatch for 'classifier.W2'"),
    ("classifier.W2", np.full((128, 3), np.nan), "holds a non-finite value")],
    ids=["infinite", "vector", "fractional", "non-binary-bool", "huge-hidden-width",
         "large-hidden-width", "huge-class-count", "nan-weight"])
def test_checkpoint_with_malformed_meta_value_is_data_error(
        workspace, tmp_path, capsys, command, name, value, message):
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    arrays[name] = np.asarray(value, dtype=np.float64)
    broken = tmp_path / "broken.bin"
    save_checkpoint(broken, arrays)
    code = cli.main([command, "--data", str(workspace / "data"),
                     "--checkpoint", str(broken), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err and name in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_checkpoint_widths_are_checked_before_any_net_is_built(workspace, tmp_path):
    # a hidden width of 2**20 would make the classifier's W1 alone 16 MiB
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    arrays["meta.clf_hidden"] = np.asarray(2.0 ** 20)
    broken = tmp_path / "wide.bin"
    save_checkpoint(broken, arrays)
    ds = load_dataset(workspace / "data")
    for generator in (False, True):
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="meta.clf_hidden = 1048576"):
                load_result_checkpoint(broken, ds, generator=generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


def test_checkpoint_with_non_utf8_manifest_is_data_error(workspace, tmp_path, capsys):
    broken = tmp_path / "latin1.bin"
    broken.write_bytes(b"crowdaug-checkpoint-v1\nmeta.caf\xe9|1|0\n\n" + bytes(8))
    code = cli.main(["eval", "--data", str(workspace / "data"),
                     "--checkpoint", str(broken), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "UTF-8" in err


# ---------------------------------------------------------------------------
# sweep / ablate


def test_sweep_produces_full_grid(workspace, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "sweep_fractions = 0, 0.2, 0.4, 0.6\n"
        "sweep_methods = crowding, dl-cl, dl-mv\n"
        "sweep_seeds = 0\n"
        "pretrain_epochs = 1\ngen_pretrain_epochs = 1\n"
        "disc_pretrain_epochs = 1\nepochs = 1\ninner_steps = 1\n"
        "batch_size = 32\n", encoding="utf-8")
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 1 + 12  # header + 4 fractions x 3 methods
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert all(r["num_seeds"] == 1 for r in payload)
    assert all(0.0 <= r["mean_acc"] <= 1.0 for r in payload)


def test_sweep_rejects_unknown_sweep_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep_depth = 3\n", encoding="utf-8")
    code = cli.main(["sweep", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "sweep_depth" in capsys.readouterr().err


@pytest.mark.parametrize("keys,code,message", [
    ("sweep_methods = dl-mv, bogus\nsweep_fractions = 0\n", cli.EXIT_CONFIG,
     "unknown method 'bogus'"),
    ("sweep_methods = dl-mv\nsweep_fractions = 0, 0.99\n", cli.EXIT_DATA,
     "removal infeasible"),
    ("sweep_methods = dl-mv\nsweep_fractions = 0, half\n", cli.EXIT_CONFIG,
     "bad list value '0, half'"),
    ("sweep_methods = dl-mv\nsweep_fractions = 0, 1.5\n", cli.EXIT_CONFIG,
     "bad list value '0, 1.5': removal fraction must lie in [0, 1), got '1.5'"),
    ("sweep_methods = dl-mv\nsweep_fractions = nan\n", cli.EXIT_CONFIG,
     "bad list value 'nan': removal fraction must lie in [0, 1), got 'nan'"),
])
def test_sweep_rejects_bad_grid_before_any_cell_trains(workspace, tmp_path, capsys,
                                                       keys, code, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(keys + "sweep_seeds = 0\n" + GRID_TRAIN_CFG, encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["sweep", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,keys,repeated", [
    ("sweep", "sweep_fractions = 0, 0.0\nsweep_methods = dl-mv\nsweep_seeds = 0, 1\n", "0.0"),
    ("sweep", "sweep_fractions = 0\nsweep_methods = dl-mv, dl-mv\nsweep_seeds = 0\n", "'dl-mv'"),
    ("sweep", "sweep_fractions = 0\nsweep_methods = dl-mv\nsweep_seeds = 0, 00\n", "0"),
    ("ablate", "ablate_variants = full, full\nablate_seeds = 0\n", "'full'"),
    ("ablate", "ablate_variants = full\nablate_seeds = 1, 1\n", "1"),
], ids=["sweep_fractions", "sweep_methods", "sweep_seeds", "ablate_variants", "ablate_seeds"])
def test_grid_lists_reject_a_repeated_value(workspace, tmp_path, capsys,
                                            command, keys, repeated):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(keys + GRID_TRAIN_CFG, encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main([command, "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"repeated list value {repeated} in" in _config_error_line(capsys)
    assert not (out / "manifest.json").exists()


def test_ablate_writes_requested_variants(workspace, tmp_path):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(
        "ablate_variants = full, no-info\nablate_seeds = 0\n"
        "pretrain_epochs = 1\ngen_pretrain_epochs = 1\n"
        "disc_pretrain_epochs = 1\nepochs = 1\ninner_steps = 1\n"
        "batch_size = 32\n", encoding="utf-8")
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
    assert [r["variant"] for r in payload] == ["full", "no-info"]


def test_ablate_rejects_unknown_variant(workspace, tmp_path, capsys):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("ablate_variants = full, no-adversary\n", encoding="utf-8")
    code = cli.main(["ablate", "--data", str(workspace / "data"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert "'no-adversary'" in err and "expected one of" in err and "random-selection" in err
    assert not (tmp_path / "o").exists()  # rejected before the manifest


GRID_TRAIN = dict(pretrain_epochs=1, gen_pretrain_epochs=1, disc_pretrain_epochs=1,
                  epochs=1, inner_steps=1, batch_size=32)
GRID_TRAIN_CFG = "".join(f"{key} = {value}\n" for key, value in GRID_TRAIN.items())


def test_sweep_and_ablate_on_two_workers_match_serial(workspace, tmp_path,
                                                      monkeypatch):
    (tmp_path / "sweep.cfg").write_text(
        "sweep_fractions = 0, 0.3\nsweep_methods = crowding, dl-mv\n"
        "sweep_seeds = 0\n" + GRID_TRAIN_CFG, encoding="utf-8")
    (tmp_path / "ablate.cfg").write_text(
        "ablate_variants = full, no-info\nablate_seeds = 0\n" + GRID_TRAIN_CFG,
        encoding="utf-8")
    ds = load_dataset(workspace / "data")
    jobs = [(ds, 0.3, "crowding", 1, GRID_TRAIN),
            (ds, 0.0, "dl-mv", 0, GRID_TRAIN),
            (ds, 0.0, "crowding", 2, {**GRID_TRAIN, "two_step": False})]
    serial = _grid_digest([cli._sweep_job(job) for job in jobs])
    outputs = {}
    for cores in (1, 2):  # the grid runs one worker process per usable core
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        # job order: each result is the run its job asked for
        assert _grid_digest(cli.run_grid(jobs)) == serial
        for command, name in (("sweep", "sweep"), ("ablate", "ablation")):
            out = tmp_path / f"{command}{cores}"
            assert cli.main([command, "--data", str(workspace / "data"),
                             "--config", str(tmp_path / f"{command}.cfg"),
                             "--out", str(out)]) == 0
            for ext in ("csv", "json"):
                outputs[cores, name, ext] = (out / f"{name}.{ext}").read_bytes()
    for (cores, name, ext), data in outputs.items():
        assert data == outputs[1, name, ext], f"{name}.{ext} on {cores} workers"


@pytest.mark.parametrize("cores, workers", [(1, None), (2, 2), (8, 3)])
def test_grid_runs_one_worker_process_per_usable_core(monkeypatch, cores, workers):
    made = []

    class Pool:  # records its size and runs the jobs in this process
        def __init__(self, max_workers, initializer):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "_sweep_job", lambda job: -job)
    assert cli.run_grid([1, 2, 3]) == [-1, -2, -3]
    assert made == ([] if workers is None else [workers])  # none on one core


# two jobs of 16,000 logged pairs each: seven row blocks per pass over the grid
WIDE_GRID_JOBS = """\
from crowdaug import cli
from crowdaug.data import SynthConfig, synthesize_dataset
ds = synthesize_dataset(SynthConfig(num_classes=4, num_instances=400, num_annotators=40,
                                    feature_dim=2, avg_annotations=2.0), seed=1)
train = dict(pretrain_epochs=1, gen_pretrain_epochs=1, disc_pretrain_epochs=1,
             epochs=1, inner_steps=1, batch_size=32)
jobs = [(ds, 0.0, "crowding", seed, train) for seed in (0, 1)]
"""


def _grid_digest(results) -> list:
    """Each result's history, test accuracy and weight fingerprints (a
    baseline's classifier alone)."""
    digests = []
    for r in results:
        stores = r.bundle.stores() if r.bundle else {"classifier": r.classifier.store}
        digests.append((r.history, r.test_acc,
                        {name: store.fingerprint() for name, store in stores.items()}))
    return digests


def test_grid_workers_run_their_blocks_on_one_thread(monkeypatch):
    # forked workers with a block pool of their own would oversubscribe the
    # cores, and a worker thread alive at the fork could hang the child; the
    # script reports two usable cores, so it forks two workers on any machine
    script = WIDE_GRID_JOBS + (
        "import json, test_cli\n"
        "cli._usable_cores = lambda: 2\n"
        "print(json.dumps(test_cli._grid_digest(cli.run_grid(jobs))))\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([tests, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    namespace = {}
    exec(WIDE_GRID_JOBS, namespace)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    serial = _grid_digest(cli.run_grid(namespace["jobs"]))
    assert all(rec["num_logged"] >= 8192 for history, _, _ in serial for rec in history)
    assert json.loads(out) == json.loads(json.dumps(serial))


def quick_config(**kw):
    return TrainConfig(**{"seed": 0, "pretrain_epochs": 3, "gen_pretrain_epochs": 2,
                          "disc_pretrain_epochs": 1, "epochs": 1, "inner_steps": 2,
                          "batch_size": 32, **kw})


def test_apply_ablation_variants():
    cfg = quick_config()
    assert cli.apply_ablation(cfg, "full") == cfg
    assert cli.apply_ablation(cfg, "no-info").info_weight == 0.0
    assert cli.apply_ablation(cfg, "no-instance-features").gen_use_instance_features is False
    assert cli.apply_ablation(cfg, "no-annotator-features").gen_use_annotator_features is False
    assert cli.apply_ablation(cfg, "random-selection").selection_mode == "uniform"
    # the source config must never be mutated
    assert cfg.info_weight == 0.5 and cfg.selection_mode == "entropy"


def test_apply_ablation_unknown_variant():
    with pytest.raises(ValueError, match="unknown ablation variant"):
        cli.apply_ablation(quick_config(), "no-discriminator")


def test_variant_of_names_every_ablation():
    cfg = quick_config()
    for variant in cli.ABLATIONS:
        assert cli._variant_of("crowding", cli.apply_ablation(cfg, variant)) == variant
    assert cli._variant_of("dl-mv", cli.apply_ablation(cfg, "no-info")) == "dl-mv"


def test_sparsity_sweep_populates_grid(workspace, tmp_path):
    ds = load_dataset(workspace / "data")
    cfg = quick_config()
    rows = cli.sparsity_sweep(ds, fractions=(0.0, 0.3), methods=("dl-mv", "dl-cl"),
                              seeds=(0, 1), cfg=cfg)
    cells = [(0.0, "dl-mv"), (0.0, "dl-cl"), (0.3, "dl-mv"), (0.3, "dl-cl")]
    assert [(row["fraction"], row["method"]) for row in rows] == cells
    for row, (fraction, method) in zip(rows, cells):
        accs = [r.test_acc for r in cli.run_grid([(ds, fraction, method, seed, cfg.__dict__)
                                                   for seed in (0, 1)])]
        assert row == {"fraction": fraction, "method": method,
                       "mean_acc": float(np.mean(accs)), "std_acc": float(np.std(accs)),
                       "num_seeds": 2}
    write_csv(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == b""


def test_sparsity_sweep_overrides_seed_per_run(workspace):
    ds = load_dataset(workspace / "data")
    cfg = quick_config(seed=999)  # must be replaced by the sweep's seeds
    [row] = cli.sparsity_sweep(ds, fractions=(0.2,), methods=("dl-mv",),
                               seeds=(0,), cfg=cfg)
    assert row["num_seeds"] == 1
    assert cfg.seed == 999


def test_run_ablation_single_variant(workspace):
    ds = load_dataset(workspace / "data")
    [row] = cli.run_ablation(ds, ["no-info"], quick_config(), seeds=(0,))
    assert row["variant"] == "no-info" and row["method"] == "crowding"
    assert row["num_seeds"] == 1 and 0.0 <= row["mean_acc"] <= 1.0


# ---------------------------------------------------------------------------
# augment


def test_augment_writes_completed_annotations(workspace, tmp_path):
    out = tmp_path / "aug"
    assert cli.main(["augment", "--data", str(workspace / "data"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(out), "--seed", "5"]) == 0
    triplets, flags = read_augmented_file(out / "augmented.csv")
    ds = load_dataset(workspace / "data")
    train_mask = ds.splits == 0
    assert len(triplets) == int(train_mask.sum()) * ds.num_annotators
    assert int(flags.sum()) == int(
        (ds.splits[ds.annotations[:, 0]] == 0).sum())
    assert np.all((triplets[:, 2] >= 0) & (triplets[:, 2] < ds.num_classes))
    train_ann = ds.annotations[ds.splits[ds.annotations[:, 0]] == 0]
    order = np.lexsort((train_ann[:, 1], train_ann[:, 0]))
    np.testing.assert_array_equal(triplets[flags], train_ann[order])


def test_augment_rejects_checkpoint_of_other_annotator_dim(workspace, tmp_path, capsys):
    ds = load_dataset(workspace / "data")
    wider = np.hstack([ds.annotator_features, np.zeros((ds.num_annotators, 2))])
    data = dataset_variant(workspace, tmp_path / "wide", annotator_features=wider)
    code = cli.main(["augment", "--data", str(data),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "annotator_dim" in err
    assert len(err.strip().splitlines()) == 1


def test_augment_rejects_dataset_with_more_classes_than_checkpoint(workspace, tmp_path,
                                                                   capsys):
    more = relabeled_variant(workspace, tmp_path / "five", [0, 3, 4])
    code = cli.main(["augment", "--data", str(more),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "num_classes" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o" / "augmented.csv").exists()


def test_augment_requires_adversarial_checkpoint(workspace, tmp_path, capsys):
    # a baseline checkpoint has no generator to sample from
    base = tmp_path / "mv"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--config", str(workspace / "train.cfg"),
                     "--method", "dl-mv", "--out", str(base)]) == 0
    code = cli.main(["augment", "--data", str(workspace / "data"),
                     "--checkpoint", str(base / "checkpoint.bin"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert "no generator" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print a line
@pytest.mark.parametrize("command, nets, earlier", [
    ("eval", ("classifier", "generator"), None),
    ("augment", ("classifier", "generator"), None),
    ("augment", ("generator",), None),
    ("eval", ("classifier",), "metrics.json"),
    ("augment", ("generator",), "augmented.csv")],
    ids=["eval", "augment", "augment-generator-only", "eval-over-earlier-output",
         "augment-over-earlier-output"])
def test_checkpoint_whose_weights_overflow_is_divergence(workspace, tmp_path, capsys,
                                                         command, nets, earlier):
    # finite weights, so the checkpoint loads; its forward passes overflow
    arrays = load_checkpoint(workspace / "run" / "checkpoint.bin")
    for name in arrays:
        if name.split(".")[0] in nets and name.split(".")[1].startswith("W"):
            arrays[name] = arrays[name] * 1e300
    huge = tmp_path / "huge.bin"
    save_checkpoint(huge, arrays)
    out = tmp_path / "o"
    if earlier is not None:  # an earlier run's output in the same directory
        out.mkdir()
        (out / earlier).write_text("earlier run\n", encoding="utf-8")
    code = cli.main([command, "--data", str(workspace / "data"),
                     "--checkpoint", str(huge), "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith(f"divergence: {command}:") and "non-finite" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    # the manifest only: no output, partial, whole or left from an earlier run
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_output_path_that_is_a_directory_is_config_error(workspace, tmp_path, capsys):
    for name in ("augmented.csv", "manifest.json", "augmented.csv.partial"):
        out = tmp_path / f"o-{name}"
        (out / name).mkdir(parents=True)
        (out / name / "kept").touch()
        code = cli.main(["augment", "--data", str(workspace / "data"),
                         "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"cannot replace output {out / name}" in _config_error_line(capsys)
        assert [p.name for p in out.iterdir()] == [name]  # no manifest written
        assert [p.name for p in (out / name).iterdir()] == ["kept"]


@pytest.mark.parametrize("command", ["eval", "augment"])
def test_checkpoint_naming_a_directory_is_data_error(workspace, tmp_path, capsys, command):
    code = cli.main([command, "--data", str(workspace / "data"),
                     "--checkpoint", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read checkpoint {tmp_path}:")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval", "augment"])
@pytest.mark.parametrize("damage, message", [
    ("directory", "data error: cannot read {path}: Is a directory"),
    ("not-utf8", "data error: {path}: not UTF-8 text")])
def test_unreadable_annotations_are_data_error(workspace, tmp_path, capsys, command,
                                               damage, message):
    data = dataset_variant(workspace, tmp_path / "data")
    path = data / "annotations.csv"
    path.unlink()
    if damage == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"instance_id,annotator_id,label\n1,0,\xff\n")
    argv = [command, "--data", str(data), "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--config", str(workspace / "train.cfg")]
    else:
        argv += ["--checkpoint", str(workspace / "run" / "checkpoint.bin")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == message.format(path=path) + "\n"
    assert not (tmp_path / "o").exists()  # rejected before the manifest


# ---------------------------------------------------------------------------
# eval and augment read --config


def checkpoint_command(workspace, command, config, out):
    return cli.main([command, "--config", str(config), "--data", str(workspace / "data"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--out", str(out)])


@pytest.mark.parametrize("command", ["eval", "augment"])
def test_checkpoint_command_rejects_missing_or_invalid_config(workspace, tmp_path,
                                                              capsys, command):
    invalid = tmp_path / "invalid.cfg"
    invalid.write_text("epochs = 0\n", encoding="utf-8")
    for config, message in ((tmp_path / "nope.cfg", "not found"), (invalid, "epochs")):
        out = tmp_path / config.stem
        assert checkpoint_command(workspace, command, config, out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()  # rejected before the manifest


@pytest.mark.parametrize("command", ["eval", "augment"])
def test_checkpoint_command_records_its_config(workspace, tmp_path, command):
    config, out = workspace / "train.cfg", tmp_path / "o"
    assert checkpoint_command(workspace, command, config, out) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_digests"][str(config)] == cli._sha256(config)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
