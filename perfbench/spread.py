#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--trace-seed N]
                                [--save FILE] [--compare FILE]

Run from the repository root. Spread is the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median; it is set against the metric's ``bound`` in ``BENCHMARK.json``.
``--trace-seed`` adds one ``--trace 1`` run. ``--save`` merges this
workload's values into FILE (keyed by workload, as in ``baseline.json``);
``--compare`` checks that this set's medians are not worse than FILE's by
more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (environment, result) or exits on failure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: {result['failed']} failed ops\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[0].removeprefix("environment "))
    return env, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    env = None
    for seed in args.seeds:
        env, result = run_once(args.workload, seed, spec["run_seconds"], 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()),
              flush=True)

    earlier = None
    if args.compare:
        earlier = json.loads(args.compare.read_text())[args.workload]["end_to_end"]
    ok = True
    summary = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        line = (f"{args.workload} {name}: median {median:.4f} {metric['unit']}, "
                f"spread {spread:.4f} (bound {bound}, target < {bound / 3:.4f})")
        if name != "setup_s" and spread > bound:
            ok = False
            line += " SPREAD OVER BOUND"
        if earlier is not None:
            before = statistics.median(earlier[name])
            change = (median - before) / before
            if metric["better"] == "higher":
                change = -change
            line += f"; vs saved median {before:.4f}: worse by {change:+.4f}"
            if change > bound:
                ok = False
                line += " OVER BOUND"
        print(line)

    record = {"environment": env, "seeds": args.seeds, "end_to_end": values,
              "summary": summary}
    if args.trace_seed is not None:
        _, result = run_once(args.workload, args.trace_seed, spec["run_seconds"], 1)
        record["traced_seed"] = args.trace_seed
        record["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps(record["per_layer"]))
    if args.save:
        saved = json.loads(args.save.read_text()) if args.save.is_file() else {}
        saved[args.workload] = record
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
