"""Run one lpow workload for a fixed time and print its metrics as one JSON line.

    python3 perfbench/run.py --workload transition-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root: lpow is imported from ./src. The workloads
are ``transition-sweep``, ``cg-sweep`` and ``report-mix`` (see README.md).
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced replay, whose spans
are written to perfbench/out/. Outputs are checked in both modes; ``correct``
is false when a check fails, and every problem is printed to stderr.
"""

import os
import sys
import time


def process_age_s() -> float:
    """Seconds since this process started (start time at clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


WORKLOADS = ("transition-sweep", "cg-sweep", "report-mix")


def parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    from pathlib import Path

    src = Path.cwd() / "src"
    if not (src / "lpow" / "__init__.py").is_file():
        print("error: no lpow sources at ./src/lpow; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scipy_s = float("nan")
    if args.trace:
        import numpy  # noqa: F401

        started = time.perf_counter()
        import scipy.optimize  # noqa: F401

        scipy_s = time.perf_counter() - started
    import lpow

    setup_s = process_age_s()
    if Path(lpow.__file__).resolve().parent != (src / "lpow").resolve():
        print(f"error: lpow was imported from {lpow.__file__}, not ./src", file=sys.stderr)
        return 2

    import json
    import resource
    import statistics

    import workloads as wl

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    traced = None
    if args.trace:
        from tracer import TracedRun

        traced = TracedRun()

    attempted = failed = rounds = cells = 0
    walls: list[float] = []
    cpus: list[float] = []
    problems: list[str] = []

    def timed(fn, *fn_args):
        wall, cpu = time.perf_counter(), time.process_time()
        out = fn(*fn_args)
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        return out

    begin = time.perf_counter()
    round_begin = begin

    def another_round() -> bool:
        """Start a round unless it would likely end more than half a round past --seconds."""
        nonlocal round_begin
        now = time.perf_counter()
        last, round_begin = now - round_begin, now
        return rounds == 0 or now - begin + 0.5 * last < args.seconds

    if args.workload in wl.SWEEPS:
        w = wl.SWEEPS[args.workload]
        spec = w.spec()
        csv_path = out_dir / f"{w.name}.csv"
        svg_path = out_dir / f"{w.name}.svg"
        first = None
        while another_round():
            rounds += 1
            attempted += 1
            if traced is None:
                result = timed(w.call, spec, csv_path, svg_path)
            else:
                result, replay_problems = traced.sweep_call(w, spec, csv_path, svg_path)
                problems += replay_problems
            cells += len(result.param_values) * len(w.quantities)
            notes = wl.sweep_failures(result)
            if notes:
                failed += 1
                print("\n".join(f"failed: {n}" for n in notes), file=sys.stderr)
                continue
            problems += wl.check_sweep(w, result, csv_path, svg_path)
            table = {q: result.table[q].tobytes() for q in w.quantities}
            first = first or table
            if table != first:
                problems.append("a repeated sweep gave different cells")
    else:
        calls = wl.report_mix(args.seed)
        references = {}
        call_fn = wl.run_report if traced is None else traced.report_call
        while another_round():
            rounds += 1
            for call in calls:
                attempted += 1
                code, out, err = timed(call_fn, call)
                rows = wl.parse_report(out)
                cells += len(rows)
                notes = wl.report_failures(call, code, rows)
                if notes:
                    failed += 1
                    print("\n".join(f"failed: {n}" for n in notes + [err]), file=sys.stderr)
                    continue
                if call.state not in references:
                    references[call.state] = wl.report_reference(call)
                problems += wl.check_report(call, rows, references[call.state])

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if traced is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "call_p50_ms": {"value": statistics.median(walls) * 1e3, "unit": "ms"},
            "cells_per_s": {"value": cells / sum(walls), "unit": "cells/s"},
            "cpu_ms_per_cell": {"value": sum(cpus) * 1e3 / cells, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        metrics = traced.metrics(rounds, scipy_s)
        traced.tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
