"""Run workloads repeatedly and report each metric's run-to-run spread.

    python3 perfbench/steadiness.py --repeats 10 --seconds 25

Run from the repository root. Each repeat runs every workload once, one
after another in a fresh process (so workloads alternate), with the repeat's
own seed. For each workload and metric it prints the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Raw results are
written to perfbench/out/steadiness-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> list[tuple[str, str, float, float, float, float]]:
    rows = []
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("nan")
        rows.append((name, first["unit"], q2, q1, q3, spread))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for r in range(args.repeats):
        for w in workloads:
            result = run_once(w, args.first_seed + r, args.seconds, args.trace)
            results[w].append(result)
            print(f"repeat {r + 1}/{args.repeats} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    for w, runs in results.items():
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {failed_share}")
        print(f"  {'metric':34s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, unit, q2, q1, q3, spread in summarize(runs):
            print(f"  {name:34s} {unit:8s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
