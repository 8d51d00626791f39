#!/usr/bin/env python3
"""crowdaug benchmark: one closed-loop client driving the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports and runs ``src/crowdaug`` from
there. Set-up writes the workload's inputs (made from ``--seed``) several
times and reports the median. Then one client runs ops back to back for
``--seconds``: each op is one or two ``crowdaug`` commands, each in a fresh
child process with BLAS pinned to one thread, timed by wall clock and by the
child's own rusage (peak RSS, CPU). Every op's outputs are checked, and its
digest must match every other op of the same seed and code, in this run and
in earlier runs in the same checkout.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` also runs one op under ``traced_cli.py`` and prints the
per-layer metrics. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
# set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so the median of a sub-second set-up rests on many samples
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 200, 2.0
RUN_BUDGET_S = 170.0          # every run must end within 180 s
SWEEP_WORKERS = min(2, len(os.sched_getaffinity(0)))
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    """One finished CLI process."""

    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Op:
    """One closed-loop operation: the CLI processes it ran and its outcome."""

    index: int
    traced: bool
    workers: int
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


class Bench:
    """One benchmark run: its deadline, work directory and child processes."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = root / ".bench_work"
        self.run_dir = self.work / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.src_sha = _tree_sha(root / "src" / "crowdaug")
        paths = (str(root / "src"), os.environ.get("PYTHONPATH", ""))
        self.env = {**os.environ, **BLAS_PIN,
                    "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

    # -- child processes ----------------------------------------------------

    def child(self, argv: list[str], log: Path, workers: int = 1) -> Child:
        """Run one process to completion; rusage covers it and its workers."""
        env = {**self.env, "CROWDING_THREADS": str(workers)}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=self.root, start_new_session=True)
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime)

    def cli(self, argv: list[str], log: Path) -> Child:
        """Untraced ``crowdaug`` command that must succeed (set-up, checks)."""
        res = self.child([sys.executable, "-m", "crowdaug.cli", *argv], log)
        if res.code != 0:
            raise wl.CheckFailed(f"crowdaug {argv[0]} exited {res.code}: {_tail(log)}")
        return res

    def room_for(self, op_s: float, ops: float) -> bool:
        """Whether ``ops`` more ops of ``op_s`` seconds fit in the run budget."""
        return time.monotonic() + 1.2 * op_s * ops < self.deadline

    # -- set-up and ops -----------------------------------------------------

    def setup(self, data_module) -> tuple[wl.Inputs, list[float], dict]:
        times, layer = [], {}
        inputs = None
        while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                              and len(times) < SETUP_MAX_REPS):
            root = self.run_dir / f"setup{len(times)}"
            start = time.perf_counter()
            inputs = wl.make_inputs(self.workload, self.seed, root, data_module,
                                    lambda argv: self.cli(argv, root / "train.log"),
                                    layer)
            times.append(time.perf_counter() - start)
        return inputs, times, layer

    def op(self, index: int, inputs: wl.Inputs, traced: bool, workers: int) -> Op:
        op = Op(index, traced, workers)
        out = self.run_dir / f"op{index}"
        out.mkdir()
        try:
            for j, argv in enumerate(wl.op_commands(self.workload, inputs, self.seed, out)):
                log = self.run_dir / f"op{index}.{j}.log"
                if traced:
                    trace = self.run_dir / f"op{index}.{j}.trace.json"
                    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace),
                           str(index), "--", *argv]
                else:
                    cmd = [sys.executable, "-m", "crowdaug.cli", *argv]
                res = self.child(cmd, log, workers)
                op.wall_s += res.wall_s
                op.cpu_s += res.cpu_s
                op.peak_rss_mb = max(op.peak_rss_mb, res.peak_rss_mb)
                if res.code != 0:
                    raise wl.CheckFailed(f"crowdaug {argv[0]} exited {res.code}: {_tail(log)}")
                if traced:
                    op.traces.append(json.loads(trace.read_text(encoding="utf-8")))
            digest, op.info = self.check(inputs, out)
            self.compare_digest(digest)
        except (wl.CheckFailed, TimeoutError, OSError, ValueError, KeyError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        return op

    def check(self, inputs: wl.Inputs, out: Path) -> tuple[str, dict]:
        kind = self.workload.kind
        if kind == "train":
            return wl.check_train(inputs, out,
                                  lambda argv: self.cli(argv, out / "eval.log"))
        if kind == "densify":
            return wl.check_densify(inputs, out)
        return wl.check_sweep(out)

    def compare_digest(self, digest: str) -> None:
        """Same seed and same code must give the same outputs, op after op.

        The first digest of a (workload, seed, source tree) is kept in
        ``.bench_work/digests.json``, so later runs in the checkout compare too.
        """
        key = f"{self.workload.name}|seed{self.seed}|src{self.src_sha[:16]}"
        store_path = self.work / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        if key not in store:
            store[key] = digest
            tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
            os.replace(tmp, store_path)
        elif store[key] != digest:
            raise wl.CheckFailed(f"output digest {digest[:24]} differs from an "
                                 f"earlier op with the same seed ({store[key][:24]})")


def _tail(log: Path, lines: int = 3) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def _tree_sha(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(bench: Bench) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    commit = None
    if (bench.root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_version, "blas_threads": BLAS_PIN,
            "sweep_workers": SWEEP_WORKERS, "git_commit": commit,
            "src_sha256": bench.src_sha, "workload": bench.workload.name,
            "seed": bench.seed}


# ---------------------------------------------------------------------------
# metrics


def timing_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        text += ", no percentile (fewer than 11 samples)"
    return text + f", n={n}"


def merge_traces(traces: list[dict]) -> dict:
    merged = {"total": {}, "self": {}, "calls": {}, "counts": {},
              "bookkeeping_s": 0.0, "spans": []}
    for t in traces:
        for part in ("total", "self", "calls", "counts"):
            for key, value in t[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        merged["bookkeeping_s"] += t["bookkeeping_s"]
        merged["spans"].extend(t["spans"])
    return merged


def layer_metrics(trace: dict, traced: Op, plain: list[Op], serial: Op | None,
                  setup_layer: dict) -> dict:
    """Per-layer metrics from the traced op and the untraced ops beside it."""
    total, self_s, calls, counts = (trace["total"], trace["self"], trace["calls"],
                                    trace["counts"])
    t = lambda name: total.get(name, 0.0)          # noqa: E731
    n = lambda name: calls.get(name, 0)            # noqa: E731
    c = lambda name: counts.get(name, 0)           # noqa: E731
    m: dict[str, float] = {}

    layer_self: dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    for layer in ("diffcore", "nets", "objectives", "data", "trainer",
                  "checkpoint", "evalsuite", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    m["diffcore.backward_s"] = t("diffcore.backward")
    m["diffcore.backward_calls"] = n("diffcore.backward")
    m["diffcore.backward_self_s"] = self_s.get("diffcore.backward", 0.0)
    m["diffcore.backward_covered_share"] = (
        1.0 - m["diffcore.backward_self_s"] / m["diffcore.backward_s"]
        if m["diffcore.backward_s"] else 0.0)
    m["diffcore.adam_step_s"] = t("diffcore.adam_step")
    m["diffcore.adam_steps"] = n("diffcore.adam_step")
    for op in (*tracer.NAMED_OPS, "other"):
        base = f"diffcore.op.{op}"
        m[f"{base}.fwd_s"] = self_s.get(f"{base}.fwd", 0.0)
        m[f"{base}.bwd_s"] = self_s.get(f"{base}.bwd", 0.0)
        m[f"{base}.calls"] = n(f"{base}.fwd")
    for op in tracer.BYTES_OPS:
        m[f"diffcore.op.{op}.bytes"] = c(f"diffcore.op.{op}.bytes")

    for net, verb in (("classifier", "fwd"), ("generator", "fwd"),
                      ("discriminator", "score"), ("aux", "fwd")):
        m[f"nets.{net}.{verb}_s"] = t(f"nets.{net}.{verb}")
        m[f"nets.{net}.rows"] = c(f"nets.{net}.{verb}.rows")

    spans = trace["spans"]
    names = {span[0]: span[2] for span in spans}
    m["objectives.s"] = sum(end - start for _, parent, name, start, end, _ in spans
                            if name.startswith("objectives.")
                            and not names.get(parent, "").startswith("objectives."))
    m["objectives.calls"] = sum(v for k, v in calls.items() if k.startswith("objectives."))

    for key in ("data.synthesize_s", "data.save_dataset_s"):
        m[key] = statistics.median(setup_layer[key])
    m["data.load_dataset_s"] = t("data.load_dataset")
    m["data.load_bytes"] = c("data.load_bytes")
    for name in ("remove_annotations", "build_cooccurrence", "majority_vote"):
        m[f"data.{name}_s"] = t(f"data.{name}")

    epochs = n("trainer.run_epoch")
    logged = c("trainer.logged_pairs")
    m["trainer.pretrain_dl_cl_s"] = t("trainer.pretrain_dl_cl")
    m["trainer.pretrain_gen_disc_s"] = t("trainer.pretrain_gen_disc")
    m["trainer.run_epoch_s"] = t("trainer.run_epoch")
    m["trainer.run_epoch_self_s"] = self_s.get("trainer.run_epoch", 0.0)
    m["trainer.epochs"] = epochs
    m["trainer.log_grid_s"] = t("trainer.log_grid")
    m["trainer.select_s"] = t("trainer.select")
    m["trainer.logged_pairs"] = logged
    m["trainer.epoch_pairs_per_s"] = logged / t("trainer.run_epoch") if epochs else 0.0
    m["trainer.selected_share"] = c("trainer.selected_pairs") / logged if logged else 0.0
    m["trainer.export_s"] = t("trainer.export")
    m["trainer.export_rows"] = c("trainer.export_rows")
    grid = logged / epochs if epochs else c("trainer.export_rows")
    peak_kb = 1024.0 * statistics.median(op.peak_rss_mb for op in plain)
    m["trainer.rss_per_pair_kb"] = peak_kb / grid if grid else 0.0
    m["trainer.test_acc"] = traced.info["test_acc"]
    m["trainer.best_epoch"] = traced.info["best_epoch"]

    m["checkpoint.save_s"] = t("checkpoint.save")
    m["checkpoint.load_s"] = t("checkpoint.load")
    saves, loads = n("checkpoint.save"), n("checkpoint.load")
    m["checkpoint.bytes"] = (c("checkpoint.save_bytes") / saves if saves else
                             c("checkpoint.load_bytes") / loads if loads else 0)

    m["evalsuite.accuracy_s"] = t("evalsuite.accuracy")
    m["evalsuite.accuracy_calls"] = n("evalsuite.accuracy")
    m["evalsuite.auc_s"] = t("evalsuite.auc")

    # the overhead base is an untraced op with the traced op's one worker
    base_wall = serial.wall_s if serial else statistics.median(op.wall_s for op in plain)
    overhead = traced.wall_s / base_wall
    m["cli.manifest_s"] = t("cli.manifest")
    m["cli.cpu_s"] = statistics.median(op.cpu_s for op in plain)
    m["cli.cpu_share"] = statistics.median(op.cpu_s / op.wall_s for op in plain)
    job_spans = [end - start for _, _, name, start, end, _ in spans if name == "cli.sweep_job"]
    m["cli.sweep_jobs"] = len(job_spans)
    m["cli.sweep_workers"] = plain[0].workers if job_spans else 0
    m["cli.sweep_job_s_max"] = max(job_spans, default=0.0)
    sweep_s = statistics.median(op.wall_s for op in plain)
    m["cli.sweep_parallel_efficiency"] = (
        sum(job_spans) / overhead / (plain[0].workers * sweep_s) if job_spans else 0.0)

    covered = sum(end - start for _, parent, _, start, end, _ in spans if parent == -1)
    m["trace_overhead_ratio"] = overhead
    m["trace.bookkeeping_s"] = trace["bookkeeping_s"]
    m["trace.uncovered_s"] = traced.wall_s - covered
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path, src = root / "BENCHMARK.json", root / "src" / "crowdaug" / "cli.py"
    if not spec_path.is_file() or not src.is_file():
        print(f"error: run from the repository root ({spec_path.name} and "
              f"src/crowdaug must exist under {root})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))
    import crowdaug.cli  # noqa: F401  (compiles every module before timing)
    import crowdaug.data

    bench = Bench(root, wl.WORKLOADS[args.workload], args.seed)
    bench.run_dir.mkdir(parents=True)
    try:
        return run(bench, spec, args, crowdaug.data)
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)


def run(bench: Bench, spec: dict, args, data_module) -> int:
    env = environment(bench)
    print("environment " + json.dumps(env, sort_keys=True))
    inputs, setup_times, setup_layer = bench.setup(data_module)

    workers = SWEEP_WORKERS if bench.workload.kind == "sweep" else 1
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start < args.seconds
                      and bench.room_for(max(op.wall_s for op in ops),
                                         3.0 if args.trace else 1.0)):
        ops.append(bench.op(len(ops), inputs, traced=False, workers=workers))
    plain = list(ops)
    serial = traced = None
    if args.trace:
        if workers > 1:     # traced sweeps run one worker so job spans stay visible
            serial = bench.op(len(ops), inputs, traced=False, workers=1)
            ops.append(serial)
        traced = bench.op(len(ops), inputs, traced=True, workers=1)
        ops.append(traced)

    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"op {op.index} failed: {op.error}", file=sys.stderr)
    good = [op for op in plain if not op.error] or plain
    alias = {"train": "train_s", "densify": "densify_s", "sweep": "sweep_s"}
    print(f"workload {bench.workload.name} seed {bench.seed}: {len(ops)} ops, "
          f"ops_failed_share {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} ratio")
    print(f"  op_s ({alias[bench.workload.kind]}) s: "
          + timing_summary([op.wall_s for op in good]))
    print("  peak_rss_mb MB: " + timing_summary([op.peak_rss_mb for op in good]))
    print("  setup_s s: " + timing_summary(setup_times))
    for op in ops:
        print(f"  op {op.index}{' traced' if op.traced else ''} workers {op.workers}: "
              f"wall {op.wall_s:.4f} s, peak {op.peak_rss_mb:.1f} MB, cpu {op.cpu_s:.3f} s"
              + (f", FAILED {op.error}" if op.error else ""))

    values = {"op_s": statistics.median(op.wall_s for op in good),
              "peak_rss_mb": statistics.median(op.peak_rss_mb for op in good),
              "setup_s": statistics.median(setup_times)}
    wanted = spec["end_to_end"]
    if args.trace:
        wanted = spec["per_layer"]
        if traced.error or not traced.traces:
            values = {}
        else:
            trace = merge_traces(traced.traces)
            values = layer_metrics(trace, traced, good, serial, setup_layer)
            print_accounting(values, traced)
            dest = bench.work / "traces"
            dest.mkdir(exist_ok=True)
            (dest / f"{bench.workload.name}-seed{bench.seed}.json").write_text(
                json.dumps({"environment": env, "metrics": values,
                            "span_fields": traced.traces[0]["span_fields"],
                            "spans": trace["spans"]}))
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing and not failed:
        raise KeyError(f"benchmark computes no value for {missing}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def print_accounting(values: dict, traced: Op) -> None:
    """Where the traced op's wall time went, layer by layer (self times)."""
    parts = {k: v for k, v in values.items() if k.endswith(".self_s")
             and k.count(".") == 1}
    parts["trace.bookkeeping_s"] = values["trace.bookkeeping_s"]
    parts["trace.uncovered_s (start-up, imports, trace dump)"] = values["trace.uncovered_s"]
    print(f"  traced op wall {traced.wall_s:.3f} s "
          f"(trace_overhead_ratio {values['trace_overhead_ratio']:.3f}):")
    for key, value in sorted(parts.items(), key=lambda kv: -kv[1]):
        print(f"    {key:<52} {value:9.3f} s  {100.0 * value / traced.wall_s:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
