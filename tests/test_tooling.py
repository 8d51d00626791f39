"""Repository tooling stays in step with the package: the generated config
reference, the names README.md and the benchmark tracer refer to, what the
tracer sees of a run, the scripts' imports, the seed harness's summary and
the package's reads of the environment."""
import ast
import gc
import importlib
import importlib.util
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import test_acceptance
from crowdaug import cli, trainer
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


def test_readme_names_resolve():
    # every backticked `module.name` (`crowdaug.` prefix optional) and `_private`
    # name in README.md is a name in the package
    modules = {path.stem: importlib.import_module(f"crowdaug.{path.stem}")
               for path in (ROOT / "src" / "crowdaug").glob("[!_]*.py")}
    checked, missing = [], []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in re.findall(r"`(\w+(?:\.\w+)*)`", readme):
        prefixed = name.startswith("crowdaug.")
        parts = name.split(".")[prefixed:]
        if prefixed or parts[0] in modules and len(parts) > 1:
            owner = modules.get(parts[0])
            for part in parts[1:]:
                owner = getattr(owner, part, None)
            found = owner is not None
        elif name.startswith("_"):
            found = any(hasattr(module, name) for module in modules.values())
        else:
            continue
        checked.append(name)
        if not found:
            missing.append(name)
    assert "cli._tune_malloc" in checked and "_read_table" in checked
    assert missing == []


def test_only_nets_spells_a_checkpoint_array_name():
    # nets owns the checkpoint schema, so no other module's string constants
    # (an f-string's literal parts included) start like a checkpoint array name
    prefixes = ("classifier.", "generator.", "discriminator.", "aux.", "adjacency.", "meta.")
    found = []
    for path in sorted((ROOT / "src" / "crowdaug").glob("*.py")):
        if path.name == "nets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.startswith(prefixes):
                found.append((path.name, node.lineno, node.value))
    assert found == []


def test_scripts_import():
    # each script's main() runs only under __main__, so loading runs its imports
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        assert callable(load_script(path.relative_to(ROOT)).main), path.name


def test_step_cost_runs_each_step_once():
    # the script calls trainer internals directly (log_generation_grid,
    # _crm_update, _disc_aux_step, _epoch_losses), so a signature change there
    # breaks it where test_scripts_import cannot see
    step_cost = load_script("scripts/step_cost.py")
    real_epoch_losses = trainer._epoch_losses
    functions = step_cost.step_functions(0)
    assert trainer._epoch_losses is real_epoch_losses  # put back after the build
    assert sorted(functions) == ["crm_classifier", "crm_generator", "crowd_layer",
                                 "disc_aux", "disc_aux_epoch", "gen_pretrain"]
    rng = np.random.default_rng(0)
    for name, (fn, population, rows) in functions.items():
        assert population >= rows, name
        fn(rng.permutation(population)[:rows])


def test_src_reads_only_the_blas_thread_variables():
    # the package takes no setting from the environment: the experiment grid
    # sizes itself from the usable cores, and CPU affinity caps it
    import crowdaug
    reads = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else ""
            if name.startswith(("environ", "getenv")):
                reads.append((path.relative_to(ROOT / "src").as_posix(),
                              lines[node.lineno - 1].strip()))
    assert sorted(reads) == [
        ("crowdaug/__init__.py",
         "BLAS_THREADS = {var: os.environ[var] for var in BLAS_THREAD_VARS}"),
        ("crowdaug/__init__.py", 'os.environ.setdefault(_var, "1")'),
    ]
    assert crowdaug.BLAS_THREAD_VARS == ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")


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
    # method, so a signature change there reads as zero rows; every generator
    # row goes through Generator.logits, the classifier CRM step's frozen
    # generator too: two pretraining passes over the train annotations, then
    # per epoch the logged grid and each μ candidate's CRM inner steps
    data, cfg = tiny_run_inputs(tmp_path)
    counts = traced_counts(tmp_path, [
        "train", "--data", str(data), "--config", str(cfg), "--method", "crowding",
        "--out", str(tmp_path / "run"), "--seed", "1"])
    rows = {span: counts.get(f"nets.{span}.rows", 0) for span in (
        "classifier.fwd", "generator.fwd", "discriminator.score", "aux.fwd")}
    assert all(rows.values()), rows
    epochs = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))["epochs"]
    annotations = len(trainer._train_annotations(load_dataset(data)))
    pretrain_epochs, inner_steps = 1 + 1, 1  # tiny_run_inputs's generator and D/Q warm-up
    assert rows["generator.fwd"] == pretrain_epochs * annotations + sum(
        e["num_logged"] + len(trainer.MU_GRID) * inner_steps
        * (e["num_low_pairs"] + e["num_high_pairs"]) for e in epochs)
    # the pair counts are len() of what log_generation_grid and
    # select_for_discriminator return, so each must keep its length contract
    assert counts["trainer.logged_pairs"] == sum(e["num_logged"] for e in epochs)
    assert counts["trainer.selected_pairs"] == sum(e["num_selected"] for e in epochs)


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_json_output_is_strict(tmp_path):
    # a NaN accuracy (here: no truth.csv, so no test accuracy) is written as
    # null, so a strict reader parses every JSON file the commands write
    data, cfg = tiny_run_inputs(tmp_path)
    unlabeled = tmp_path / "unlabeled"
    unlabeled.mkdir()
    for path in data.glob("*.csv"):
        if path.name != "truth.csv":
            (unlabeled / path.name).write_bytes(path.read_bytes())
    sweep_cfg, ablate_cfg = tmp_path / "sweep.cfg", tmp_path / "ablate.cfg"
    for path, keys in ((sweep_cfg, "sweep_fractions = 0\nsweep_methods = dl-mv\n"),
                       (ablate_cfg, "ablate_variants = full\nablate_seeds = 0\n")):
        path.write_text(cfg.read_text(encoding="utf-8") + keys, encoding="utf-8")
    run, checkpoint = tmp_path / "run", str(tmp_path / "run" / "checkpoint.bin")
    commands = [
        ["train", "--data", str(data), "--config", str(cfg), "--method", "crowding",
         "--out", str(run), "--seed", "1"],
        ["eval", "--data", str(data), "--checkpoint", checkpoint, "--out", str(tmp_path / "ev")],
        ["augment", "--data", str(data), "--checkpoint", checkpoint,
         "--out", str(tmp_path / "aug")],
        ["sweep", "--data", str(data), "--config", str(sweep_cfg), "--out", str(tmp_path / "sw")],
        ["ablate", "--data", str(data), "--config", str(ablate_cfg), "--out", str(tmp_path / "ab")],
        ["train", "--data", str(unlabeled), "--config", str(cfg), "--method", "dl-mv",
         "--out", str(tmp_path / "mv"), "--seed", "1"],
        ["sweep", "--data", str(unlabeled), "--config", str(sweep_cfg),
         "--out", str(tmp_path / "sw-unlabeled")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    written = sorted(tmp_path.rglob("*.json"))
    assert {path.name for path in written} >= {
        "manifest.json", "report.json", "metrics.json", "sweep.json", "ablation.json"}
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    summary = json.loads((tmp_path / "mv" / "report.json").read_text(encoding="utf-8"))
    assert summary["summary"]["test_acc"] is None
    rows = json.loads((tmp_path / "sw-unlabeled" / "sweep.json").read_text(encoding="utf-8"))
    assert [row["mean_acc"] for row in rows] == [None]


# Functions of the package that no command enters, each with the reason it stays.
NEVER_ENTERED = {
    # perfbench's tracer wraps these ops by name (ROADMAP items 6 and 9)
    "diffcore.add": "tracer-named op",
    "diffcore.add.back": "tracer-named op",
    "diffcore.neg": "tracer-named op",
    "diffcore.t_exp": "tracer-named op",
    "diffcore.t_log": "tracer-named op",
    "diffcore.t_mean": "tracer-named op",
    "diffcore.relu": "tracer-named op",
    "diffcore.concat": "tracer-named op",
    "diffcore.concat.back": "tracer-named op",
    "diffcore.dropout": "tracer-named op",
    "data._float_row_error": "runs only on a malformed file",
    "data._int_row_error": "runs only on a malformed file",
    "data._split_row_error": "runs only on a malformed file",
    "cli._Parser.error": "runs only on a malformed command line",
    "trainer.one_block_thread": "initializes grid worker processes, not profiled here",
    "trainer.ExportSummary.__len__": "perfbench's tracer counts the export's rows by it",
}

# Parameters with a default (`module.function.parameter`) that the commands
# bind one way only, always to the default or never to it, each with the
# reason it stays.
ONE_WAY_DEFAULTS: dict[str, str] = {}


def _package_functions():
    """``{(file, first line): (name, whether a parameter has a default)}`` of
    every function and nested closure (``def``) of the package; a decorated
    one starts at its first decorator, as its code object does."""
    import crowdaug
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defaulted = bool(child.args.defaults) or any(child.args.kw_defaults)
                found[(str(path), first)] = (f"{path.stem}.{name}", defaulted)
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                     else prefix)

    for path in sorted(Path(crowdaug.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _defaults_of(code):
    """``{parameter: default object}`` of the function whose code is ``code``
    (a closure's from its instance alive at the call)."""
    func = next(f for f in gc.get_referrers(code) if isinstance(f, types.FunctionType))
    positional, defaults = code.co_varnames[:code.co_argcount], func.__defaults__ or ()
    return {**dict(zip(positional[len(positional) - len(defaults):], defaults)),
            **(func.__kwdefaults__ or {})}


@pytest.fixture(scope="module")
def profiled_commands(tmp_path_factory):
    """Every command on tiny inputs under a profiler of every thread (the grid
    serially, in this process), the first through ``main()`` with ``sys.argv``
    set, as the console script runs it. Returns the ``(file, first line)`` of
    each package function entered, and ``{name.parameter: set of bools}``:
    for each parameter with a default of a function entered, whether some call
    bound it to its default object (True) and whether some call bound it to
    another value (False)."""
    tmp_path = tmp_path_factory.mktemp("profiled")
    train = ("pretrain_epochs = 1\ngen_pretrain_epochs = 1\ndisc_pretrain_epochs = 1\n"
             "epochs = 1\ninner_steps = 1\nbatch_size = 32\n")
    configs = {"synth": "num_classes = 3\nnum_instances = 40\nnum_annotators = 5\n"
                        "feature_dim = 2\n",
               "train": train, "one-step": train + "two_step = false\n",
               "capped": train + "max_grid_pairs = 50\n",
               "sweep": train + "sweep_fractions = 0,0.5\nsweep_seeds = 0\n",
               "ablate": train + "ablate_seeds = 0\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text, encoding="utf-8")
    data, checkpoint = str(tmp_path / "data"), str(tmp_path / "run" / "checkpoint.bin")

    def run(command, config, out, *more):
        return [command, "--config", str(tmp_path / f"{config}.cfg"),
                "--out", str(tmp_path / out), *more]

    commands = [
        run("synth", "synth", "data", "--seed", "1"),
        run("train", "train", "run", "--data", data),
        run("train", "one-step", "one-step", "--data", data),
        run("train", "capped", "capped", "--data", data),
        run("train", "train", "mv", "--data", data, "--method", "dl-mv"),
        ["eval", "--data", data, "--checkpoint", checkpoint, "--out", str(tmp_path / "ev")],
        ["augment", "--data", data, "--checkpoint", checkpoint, "--out", str(tmp_path / "aug")],
        run("sweep", "sweep", "sweep", "--data", data),
        run("ablate", "ablate", "ablate", "--data", data),
    ]
    functions = _package_functions()
    # also updated from block threads: no update is lost, since each set is
    # only ever added to and a cached entry is only ever computed again
    entered, defaults, bound = set(), {}, {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        at = (code.co_filename, code.co_firstlineno)
        entered.add(at)
        if at in functions and functions[at][1]:
            if code not in defaults:
                defaults[code] = _defaults_of(code)
            for param, default in defaults[code].items():
                bound.setdefault(f"{functions[at][0]}.{param}", set()).add(
                    frame.f_locals[param] is default)

    usable = cli._usable_cores
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_usable_cores", lambda: min(1, usable()))
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            patch.setattr(sys, "argv", ["crowdaug", *commands[0]])
            assert cli.main() == 0, commands[0]
            for argv in commands[1:]:
                assert cli.main(argv) == 0, argv
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return SimpleNamespace(functions=functions, entered=entered, bound=bound)


def test_every_function_has_a_production_caller(profiled_commands):
    # each function the package defines is entered by some command, except
    # the few that NEVER_ENTERED names with their reason
    never = {name for at, (name, _) in profiled_commands.functions.items()
             if at not in profiled_commands.entered}
    assert never == set(NEVER_ENTERED)


def test_every_default_is_both_taken_and_overridden(profiled_commands):
    # a parameter with a default that some call takes and some other call
    # overrides is varied by production; one bound one way only is test-only
    # API or a constant, except the few that ONE_WAY_DEFAULTS names
    one_way = {name for name, seen in profiled_commands.bound.items() if len(seen) < 2}
    assert one_way == set(ONE_WAY_DEFAULTS)
