"""The benchmark's workloads: their inputs, the calls they time and the checks on outputs.

A sweep workload's call is what a figure script does: ``run_sweep``, then
``write_csv`` and ``render_line_chart``. The report mix's call is one
in-process ``lpow report``. Every output is checked against ``reference``,
which shares no code with lpow.
"""

from __future__ import annotations

import contextlib
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lpow import OptimizerConfig, cli
from lpow.states import make_state
from lpow.svgplot import render_line_chart
from lpow.sweeps import SweepResult, SweepSpec, read_csv, run_sweep, write_csv

import reference as ref

RESTARTS = 64
EXACT_TOL = 1e-9
BOUND_TOL = 1e-8

TWO_QUBIT_QUANTITIES = (
    "s_chsh",
    "s_chsh_lpo",
    "i3322_tilde",
    "c3322",
    "i2222_tilde",
    "i2222_lpo_tilde",
    "horodecki_m",
    "bloch_norm_a",
    "bloch_norm_b",
)
GHZ_QUANTITIES = ("mermin", "mermin_lpo", "bloch_norm_a", "bloch_norm_b")


@dataclass(frozen=True)
class SweepWorkload:
    """A figure sweep on a fixed grid, as its script runs it."""

    name: str
    family: str
    param: str
    grid: tuple[float, float, int]
    quantities: tuple[str, ...]
    seed: int
    title: str

    def spec(self) -> SweepSpec:
        return SweepSpec(
            family=self.family,
            sweep_param=self.param,
            grid=self.grid,
            quantities=self.quantities,
            optimizer=OptimizerConfig(restarts=RESTARTS, seed=self.seed),
        )

    def call(self, spec: SweepSpec, csv_path: Path, svg_path: Path) -> SweepResult:
        result = run_sweep(spec)
        write_csv(result, csv_path)
        self.render(result, svg_path)
        return result

    def render(self, result: SweepResult, svg_path: Path) -> None:
        render_line_chart(
            result.param_values,
            {q: result.table[q] for q in self.quantities},
            svg_path,
            xlabel=self.param,
            ylabel="value",
            bounds=(1.0,),
            title=self.title,
        )


SWEEPS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="transition-sweep",
            family="transition",
            param="p",
            grid=(0.0, 1.0, 6),
            quantities=("i2222_tilde", "i3322_tilde", "s_chsh_lpo"),
            seed=4,
            title="Triplet-to-product transition: bound crossings and witness bump",
        ),
        SweepWorkload(
            name="cg-sweep",
            family="cg",
            param="theta",
            grid=(0.02, 0.78, 6),
            quantities=("i3322_tilde", "i2222_tilde", "i2222_lpo_tilde"),
            seed=2,
            title="CHSH-pinned family: three settings beat two",
        ),
    )
}


def sweep_failures(result: SweepResult) -> list[str]:
    """What the program itself reports as failed: warnings and NaN cells."""
    notes = list(result.warnings)
    for q, column in result.table.items():
        if not np.isfinite(column).all():
            notes.append(f"{q}: non-finite cell")
    return notes


def svg_problems(path: Path) -> list[str]:
    try:
        ET.parse(path)
    except ET.ParseError as exc:
        return [f"{path.name} does not parse as XML: {exc}"]
    return []


def check_sweep(w: SweepWorkload, result: SweepResult, csv_path: Path, svg_path: Path) -> list[str]:
    """Compare one sweep call's table and files with the reference values."""
    problems = []
    header, columns = read_csv(csv_path)
    if header != ["param", *w.quantities]:
        problems.append(f"CSV header {header}")
    elif columns["param"].tobytes() != np.asarray(result.param_values, float).tobytes() or any(
        columns[q].tobytes() != np.asarray(result.table[q], float).tobytes() for q in w.quantities
    ):
        problems.append("CSV does not read back bit for bit")
    problems += svg_problems(svg_path)

    for i, x in enumerate(result.param_values):
        x = float(x)
        if w.family == "transition":
            moments = ref.transition_moments(x)
        else:
            moments = ref.cg_moments(x, ref.cg_lambda(x))
        row = {q: float(result.table[q][i]) for q in w.quantities}
        where = f"{w.param}={x!r}"
        if "i2222_tilde" in row:
            want = 1.0 if w.family == "cg" else ref.m_value(moments[2])
            tol = BOUND_TOL if w.family == "cg" else EXACT_TOL
            if abs(row["i2222_tilde"] - want) > tol:
                problems.append(f"{where}: i2222_tilde {row['i2222_tilde']!r} != {want!r}")
        if "i3322_tilde" in row:
            floor, cap = ref.i3322_window(*moments)
            if not floor - BOUND_TOL <= row["i3322_tilde"] <= cap + BOUND_TOL:
                problems.append(f"{where}: i3322_tilde {row['i3322_tilde']!r} outside [{floor!r}, {cap!r}]")
        if "s_chsh_lpo" in row:
            lo, hi = ref.s_chsh_lpo_window_transition(x)
            if not lo - BOUND_TOL <= row["s_chsh_lpo"] <= hi + BOUND_TOL:
                problems.append(f"{where}: s_chsh_lpo {row['s_chsh_lpo']!r} outside [{lo!r}, {hi!r}]")
        if "i2222_lpo_tilde" in row:
            want = ref.i2222_lpo_tilde(*moments)
            if abs(row["i2222_lpo_tilde"] - want) > EXACT_TOL:
                problems.append(f"{where}: i2222_lpo_tilde {row['i2222_lpo_tilde']!r} != {want!r}")
    return problems


@dataclass(frozen=True)
class ReportCall:
    """One ``lpow report`` invocation: a state family, its parameters and quantities."""

    family: str
    params: tuple[tuple[str, float], ...]
    quantities: tuple[str, ...]

    @property
    def state(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={v!r}" for k, v in self.params)

    def argv(self) -> list[str]:
        return ["report", "--state", self.state, "--quantities", ",".join(self.quantities)]


# Per-family parameter ranges of the report mix; the first parameter is stratified.
MIX_FAMILIES = (
    ("werner", (("p", 0.0, 1.0),)),
    ("transition", (("p", 0.0, 1.0),)),
    ("classical", (("theta", 0.0, math.pi), ("beta", 0.0, 2.0 * math.pi))),
    (
        "pure_product",
        (
            ("theta_a", 0.0, math.pi),
            ("phi_a", 0.0, 2.0 * math.pi),
            ("theta_b", 0.0, math.pi),
            ("phi_b", 0.0, 2.0 * math.pi),
        ),
    ),
    ("cg", (("theta", 0.02, math.pi / 2.0 - 0.02),)),
)
# The cg figure's near-product edge, where both optimizers crawl.
NEAR_PRODUCT_CG_THETA = 0.02
MIX_DRAWS = 6
# The mix's parameters are drawn once, from this seed, for every run: the
# optimizers' cost is chaotic in the state parameters, so parameters drawn
# from the run's seed would move a run's total by about a fifth between seeds.
MIX_PARAMETER_SEED = 2511


def report_mix(seed: int) -> list[ReportCall]:
    """The report mix for one seed: a fixed set of calls in a seeded order.

    Each parametrized family gets ``MIX_DRAWS`` calls whose first parameter
    is drawn once in each of ``MIX_DRAWS`` equal strata of its range; the
    fixed states and the near-product cg state appear once each.
    """
    rng = np.random.default_rng(MIX_PARAMETER_SEED)
    calls = [
        ReportCall("singlet", (), TWO_QUBIT_QUANTITIES),
        ReportCall("sigma", (), TWO_QUBIT_QUANTITIES),
        ReportCall("ghz", (), GHZ_QUANTITIES),
        ReportCall("cg", (("theta", NEAR_PRODUCT_CG_THETA),), TWO_QUBIT_QUANTITIES),
    ]
    for family, ranges in MIX_FAMILIES:
        strata = (np.arange(MIX_DRAWS) + rng.random(MIX_DRAWS)) / MIX_DRAWS
        for u in strata:
            draws = [u] + list(rng.random(len(ranges) - 1))
            params = tuple((name, float(lo + d * (hi - lo))) for (name, lo, hi), d in zip(ranges, draws))
            calls.append(ReportCall(family, params, TWO_QUBIT_QUANTITIES))
    order = np.random.default_rng(int(seed)).permutation(len(calls))
    return [calls[i] for i in order]


def run_report(call: ReportCall) -> tuple[int, str, str]:
    """One in-process ``lpow report``; returns its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(call.argv())
    return code, out.getvalue(), err.getvalue()


def parse_report(text: str) -> dict[str, tuple[float, bool]]:
    """Map each printed quantity to (value, converged)."""
    rows = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" = ")
        value = rest.split()[0]
        rows[name] = (float(value), line.endswith("converged: yes"))
    return rows


def report_failures(call: ReportCall, code: int, rows: dict) -> list[str]:
    """What the program itself reports as failed: an exit code, a missing or unconverged line."""
    if code != 0:
        return [f"{call.state}: exit code {code}"]
    notes = [f"{call.state}: no line for {q}" for q in call.quantities if q not in rows]
    notes += [f"{call.state}: {q} not converged" for q, (_, ok) in rows.items() if not ok]
    return notes


def report_reference(call: ReportCall) -> dict[str, float] | None:
    """Reference moments of a two-qubit report state, or None for ghz."""
    if call.family == "ghz":
        return None
    params = dict(call.params)
    if call.family == "cg":
        params["lam"] = ref.cg_lambda(params["theta"])
    return ref.pauli_moments(make_state(call.family, **params).matrix)


def check_report(call: ReportCall, rows: dict, moments) -> list[str]:
    """Compare one report's printed values with the reference."""
    value = {q: v for q, (v, _) in rows.items()}
    problems = []

    def expect(q: str, want: float, tol: float = EXACT_TOL) -> None:
        if q in value and abs(value[q] - want) > tol:
            problems.append(f"{call.state}: {q} {value[q]!r} != {want!r}")

    if moments is None:
        expect("mermin", 4.0)
        expect("mermin_lpo", 0.0)
        expect("bloch_norm_a", 0.0)
        expect("bloch_norm_b", 0.0)
        return problems
    r_a, r_b, t = moments
    m = ref.m_value(t)
    expect("horodecki_m", m)
    expect("i2222_tilde", m)
    expect("s_chsh", 2.0 * m, 2.0 * EXACT_TOL)
    expect("bloch_norm_a", float(np.linalg.norm(r_a)))
    expect("bloch_norm_b", float(np.linalg.norm(r_b)))
    expect("i2222_lpo_tilde", ref.i2222_lpo_tilde(r_a, r_b, t))
    cap = 4.0 * float(np.linalg.norm(r_a) * np.linalg.norm(r_b))
    if value.get("s_chsh_lpo", 0.0) > cap + BOUND_TOL:
        problems.append(f"{call.state}: s_chsh_lpo {value['s_chsh_lpo']!r} above 4|r_A||r_B| = {cap!r}")
    return problems
