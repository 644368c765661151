"""Traced replay: spans around each lpow layer's public functions, kept in memory.

A traced run makes the workload's own calls and then replays their inputs
through each layer's public functions, one call at a time, from outside lpow.
A span is (id, name, start, end, parent). Per-layer metrics are span totals
per round. The two overheads are per-call medians of a call's span minus the
replayed spans of the layer calls it makes: the median keeps the jitter of a
seconds-long optimizer call out of a sub-millisecond difference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from lpow import cli
from lpow.bell import (
    chsh_settings,
    functional_value,
    marginal_means,
    optimize_functional_value,
    planar_3322_settings,
    preset_functional,
)
from lpow.linalg import kron
from lpow.lpo import lpo_correlator, lpo_project
from lpow.quantities import compute_quantities
from lpow.states import DensityMatrix, bloch_vector, cg_lambda, correlation_matrix, horodecki, make_state
from lpow.sweeps import SweepResult, point_seed, run_sweep, write_csv
from lpow.witness import (
    OptimizerConfig,
    asym_sup,
    bound_geometry_free,
    mermin_lpo_witness,
    mermin_value,
    sym_sup,
    sym_value_fixed,
)

import workloads as wl

# The replayed layer spans standing for the calls compute_quantities makes per quantity.
QUANTITY_LAYERS = {
    "s_chsh": ("states.horodecki",),
    "horodecki_m": ("states.horodecki",),
    "i2222_tilde": ("states.horodecki",),
    "c3322": ("bell.seesaw",),
    "i3322_tilde": ("bell.seesaw",),
    "s_chsh_lpo": ("witness.sym_sup",),
    "i2222_lpo_tilde": ("witness.sym_value_fixed", "witness.bound_geometry_free"),
    "bloch_norm_a": ("states.marginal",),
    "bloch_norm_b": ("states.marginal",),
    "mermin": ("witness.mermin_value",),
    "mermin_lpo": ("witness.mermin_lpo",),
}

# Per-layer metrics: (name, unit, span whose total per round it reports).
SPAN_METRICS = (
    ("states.make_state_ms", "ms", "states.make_state"),
    ("states.cg_lambda_ms", "ms", "states.cg_lambda"),
    ("states.density_matrix_ms", "ms", "states.density_matrix"),
    ("states.marginal_ms", "ms", "states.marginal"),
    ("states.geometry_ms", "ms", "states.geometry"),
    ("states.horodecki_ms", "ms", "states.horodecki"),
    ("bell.marginal_means_ms", "ms", "bell.marginal_means"),
    ("bell.functional_value_ms", "ms", "bell.functional_value"),
    ("bell.seesaw_ms", "ms", "bell.seesaw"),
    ("lpo.lpo_project_ms", "ms", "lpo.lpo_project"),
    ("lpo.lpo_correlator_ms", "ms", "lpo.lpo_correlator"),
    ("witness.sym_sup_ms", "ms", "witness.sym_sup"),
    ("witness.sym_value_fixed_ms", "ms", "witness.sym_value_fixed"),
    ("witness.bound_geometry_free_ms", "ms", "witness.bound_geometry_free"),
    ("witness.asym_sup_ms", "ms", "witness.asym_sup"),
    ("witness.mermin_lpo_ms", "ms", "witness.mermin_lpo"),
    ("quantities.compute_ms", "ms", "quantities.compute"),
    ("sweeps.run_sweep_s", "s", "sweeps.run_sweep"),
    ("sweeps.serial_s", "s", "sweeps.serial"),
    ("sweeps.write_csv_ms", "ms", "sweeps.write_csv"),
    ("svgplot.render_ms", "ms", "svgplot.render"),
    ("cli.main_ms", "ms", "cli.main"),
)
COUNT_METRICS = ("bell.seesaw_iterations", "witness.sym_sup_short_circuits")


class Tracer:
    """Spans in memory, with named counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": math.nan,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}) + "\n")


def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class TracedRun:
    """The traced counterparts of the workloads' calls, and the per-layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.compute_overheads: list[float] = []
        self.cli_overheads: list[float] = []

    def _replay_layers(self, rho: DensityMatrix, quantities, cfg: OptimizerConfig) -> dict[str, float]:
        """Call each layer's public functions on one state; return span durations by name."""
        durations: dict[str, float] = defaultdict(float)

        def timed(name, fn, *args, **kwargs):
            with self.tracer.span(name) as record:
                out = fn(*args, **kwargs)
            durations[name] += _duration(record)
            return out

        timed("states.density_matrix", DensityMatrix, rho.matrix, rho.dims)
        timed("states.marginal", lambda: [rho.marginal(k) for k in range(rho.n_parties)])
        if rho.dims != (2, 2):
            timed("witness.mermin_value", mermin_value, rho)
            timed("witness.mermin_lpo", mermin_lpo_witness, rho, "asym_sup")
            return durations

        chsh, c3322 = preset_functional("chsh"), preset_functional("c3322")
        settings, planar = chsh_settings(), planar_3322_settings()
        timed(
            "states.geometry",
            lambda: (bloch_vector(rho.marginal(0)), bloch_vector(rho.marginal(1)), correlation_matrix(rho)),
        )
        timed("states.horodecki", horodecki, rho)
        timed("bell.marginal_means", lambda: (marginal_means(rho, settings), marginal_means(rho, planar)))
        timed(
            "bell.functional_value",
            lambda: (functional_value(rho, chsh, settings), functional_value(rho, c3322, planar)),
        )
        if {"c3322", "i3322_tilde"} & set(quantities):
            optimum = timed(
                "bell.seesaw",
                optimize_functional_value,
                rho,
                c3322,
                restarts=cfg.restarts,
                seed=cfg.seed,
                max_iterations=cfg.max_iterations,
                value_tolerance=cfg.value_tolerance,
            )
            self.tracer.counts["bell.seesaw_iterations"] += optimum.iterations
        x = kron(settings.alice[0].matrix, settings.bob[0].matrix)
        timed("lpo.lpo_project", lambda: (lpo_project(x, rho, 0), lpo_project(x, rho, 1)))
        timed(
            "lpo.lpo_correlator",
            lambda: [lpo_correlator(a, b, rho) for a in settings.alice for b in settings.bob],
        )
        if "s_chsh_lpo" in quantities:
            report = timed("witness.sym_sup", sym_sup, rho, chsh, "free", cfg)
            if report.restarts_used == 0:
                self.tracer.counts["witness.sym_sup_short_circuits"] += 1
        timed("witness.sym_value_fixed", sym_value_fixed, rho, chsh, settings)
        timed("witness.bound_geometry_free", bound_geometry_free, rho, chsh)
        timed("witness.asym_sup", asym_sup, rho, chsh)
        return durations

    @staticmethod
    def _layer_time(durations: dict[str, float], quantities) -> float:
        names = {layer for q in quantities for layer in QUANTITY_LAYERS[q]}
        return sum(durations.get(name, 0.0) for name in names)

    def sweep_call(
        self, w: wl.SweepWorkload, spec, csv_path: Path, svg_path: Path
    ) -> tuple[SweepResult, list[str]]:
        """The figure-script call with spans, then its points run serially and replayed.

        Returns the sweep result and the problems found: a failed ``lpow plot``
        of the CSV, or a serial cell that differs from the pooled one.
        """
        tr = self.tracer
        with tr.span("round"):
            result = tr.call("sweeps.run_sweep", run_sweep, spec)
            tr.call("sweeps.write_csv", write_csv, result, csv_path)
            with tr.span("svgplot.render") as render:
                w.render(result, svg_path)
            plot_path = svg_path.with_name(svg_path.stem + "-cli.svg")
            argv = ["plot", str(csv_path), "--quantities", ",".join(w.quantities)]
            argv += ["--bounds", "1.0", "--out", str(plot_path)]
            with tr.span("cli.main") as main:
                code = cli.main(argv)
            self.cli_overheads.append(_duration(main) - _duration(render))

            values = spec.grid_values()
            serial = {q: np.empty(len(values)) for q in w.quantities}
            points = []
            with tr.span("sweeps.serial"):
                for i, x in enumerate(values):
                    cfg = dataclasses.replace(spec.optimizer, seed=point_seed(spec.optimizer.seed, i))
                    rho = tr.call("states.make_state", make_state, w.family, **{w.param: float(x)})
                    computed = {}
                    for q in w.quantities:
                        with tr.span("quantities.compute") as compute:
                            r = compute_quantities([q], rho, cfg)[0]
                        computed[q] = _duration(compute)
                        serial[q][i] = r.value if r.converged else math.nan
                    points.append((rho, cfg, computed))
            for x, (rho, cfg, computed) in zip(values, points):
                if w.family == "cg":
                    tr.call("states.cg_lambda", cg_lambda, float(x))
                durations = self._replay_layers(rho, w.quantities, cfg)
                self.compute_overheads += [
                    t - self._layer_time(durations, [q]) for q, t in computed.items()
                ]
        problems = [] if code == 0 else [f"lpow plot exited {code}"]
        problems += wl.svg_problems(plot_path)
        problems += [
            f"serial replay of {q} differs from run_sweep"
            for q in w.quantities
            if serial[q].tobytes() != np.asarray(result.table[q], float).tobytes()
        ]
        return result, problems

    def report_call(self, call: wl.ReportCall) -> tuple[int, str, str]:
        """One ``lpow report`` with a span, then its state and quantities replayed."""
        tr = self.tracer
        out, err = io.StringIO(), io.StringIO()
        with tr.span("report"):
            with tr.span("cli.main") as main:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(call.argv())
            params = dict(call.params)
            with tr.span("states.make_state") as made:
                rho = make_state(call.family, **params)
            if call.family == "cg":
                tr.call("states.cg_lambda", cg_lambda, params["theta"])
            cfg = OptimizerConfig()
            with tr.span("quantities.compute") as compute:
                compute_quantities(call.quantities, rho, cfg)
            self.cli_overheads.append(_duration(main) - _duration(made) - _duration(compute))
            durations = self._replay_layers(rho, call.quantities, cfg)
            self.compute_overheads.append(_duration(compute) - self._layer_time(durations, call.quantities))
        return code, out.getvalue(), err.getvalue()

    def metrics(self, rounds: int, scipy_s: float) -> dict[str, dict]:
        """Per-layer metrics: span totals and counts per round, overheads per call."""
        totals = self.tracer.totals()
        metrics = {"import.scipy_s": {"value": scipy_s, "unit": "s"}}
        for name, unit, span in SPAN_METRICS:
            scale = 1e3 if unit == "ms" else 1.0
            metrics[name] = {"value": totals.get(span, 0.0) * scale / rounds, "unit": unit}
        for name in COUNT_METRICS:
            metrics[name] = {"value": self.tracer.counts.get(name, 0) / rounds, "unit": "count"}
        metrics["quantities.overhead_ms"] = {"value": _median(self.compute_overheads) * 1e3, "unit": "ms"}
        schedule = (totals.get("sweeps.run_sweep", 0.0) - totals.get("sweeps.serial", 0.0)) / rounds
        metrics["sweeps.schedule_overhead_s"] = {"value": schedule, "unit": "s"}
        metrics["cli.overhead_ms"] = {"value": _median(self.cli_overheads) * 1e3, "unit": "ms"}
        return metrics
