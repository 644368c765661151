"""Benchmark a base revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD --pairs 5 --seconds 40 --out BENCH_topic.json

Run it from the repository root. The base revision is exported with ``git
archive`` into a temporary directory (under $TMPDIR), which is removed
afterwards. For every workload named in BENCHMARK.json and every pair
k = 0, 1, ..., ``python3 perfbench/run.py --workload W --seed k --seconds S
--trace 0`` runs once in the base checkout and once in the working tree,
each in a fresh process; the order flips from pair to pair so that drift on
the machine favours neither side. The output JSON records the machine (nproc, Python, numpy, BLAS),
every run's metrics, and for each end-to-end metric of BENCHMARK.json the
median and quartiles of each side, the change of the medians, and in how
many pairs the working tree was better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: [r["metrics"][name] for r in runs if r["side"] == s] for s in ("base", "change")}
        better = sum(
            (c < b) if lower else (c > b) for b, c in zip(side["base"], side["change"])
        )
        base, change = spread(side["base"]), spread(side["change"])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "change": change,
            "median_change": change["median"] / base["median"] - 1.0,
            "pairs_better": f"{better}/{len(side['base'])}",
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, help="seconds per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    report = {
        "command": " ".join(sys.argv),
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "machine": machine(),
        "pairs": args.pairs,
        "seconds": seconds,
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-base-"))
    base_tree = scratch / "tree"
    base_tree.mkdir()
    archive = subprocess.run(["git", "archive", args.base], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else root
                    run = {"pair": pair, "side": side, **run_once(tree, workload, pair, seconds)}
                    print(json.dumps({"workload": workload, **run}), file=sys.stderr)
                    runs.append(run)
            report["workloads"][workload] = {
                "runs": runs,
                "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
                "summary": summarize(runs, bench["end_to_end"]),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
