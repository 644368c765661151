"""Parameter sweeps over state families with deterministic per-point seeding."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .quantities import QUANTITY_NAMES, _compute, _fill_shared
from .states import make_state
from .bell import OptimizerConfig


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a state family, a swept parameter, a grid, and quantities."""

    family: str
    sweep_param: str
    grid: tuple[float, float, int]
    quantities: tuple[str, ...]
    fixed_params: dict = field(default_factory=dict)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_path: str | Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "quantities", tuple(self.quantities))
        start, stop, count = self.grid
        if not (math.isfinite(float(start)) and math.isfinite(float(stop))):
            raise ValueError(f"grid endpoints must be finite, got {start!r} and {stop!r}")
        if int(count) < 2:
            raise ValueError("grid count must be >= 2")
        if not start < stop:
            raise ValueError("grid start must be below stop")
        if not self.quantities:
            raise ValueError("quantities must be nonempty")
        unknown = [q for q in self.quantities if q not in QUANTITY_NAMES]
        if unknown:
            raise ValueError(f"unknown quantity name(s): {', '.join(sorted(unknown))}")
        repeated = ", ".join(sorted({q for q in self.quantities if self.quantities.count(q) > 1}))
        if repeated:
            raise ValueError(f"quantity name(s) given more than once: {repeated}")
        object.__setattr__(self, "grid", (float(start), float(stop), int(count)))

    def grid_values(self) -> np.ndarray:
        start, stop, count = self.grid
        return np.linspace(start, stop, count)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    param_values: np.ndarray
    table: dict[str, np.ndarray]
    warnings: tuple[str, ...]


def point_seed(global_seed: int, index: int) -> int:
    """Stable per-grid-point seed derived from the whole global seed and the point index."""
    ss = np.random.SeedSequence(entropy=(int(global_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate all quantities on the grid.

    Each point has its own seed derived from the point index. Every point
    whose state was built joins one stacked optimization per shared
    intermediate (one ``c3322`` see-saw serves ``c3322`` and
    ``i3322_tilde``; one ``sym_sup`` serves ``s_chsh_lpo``), whose result
    for a point is bit for bit the one it gets alone, as in
    ``compute_quantities``. The points' quantities are then evaluated one
    after another in index order. A failed or non-converged cell becomes
    NaN with a warning instead of aborting the sweep.
    """
    values = spec.grid_values()
    warnings: list[str] = []
    table = {name: np.full(len(values), math.nan) for name in spec.quantities}
    points: dict[int, tuple] = {}
    failed: dict[int, str] = {}
    for index, value in enumerate(values):
        params = {**spec.fixed_params, spec.sweep_param: float(value)}
        try:
            rho = make_state(spec.family, **params)
        except ValueError as exc:
            failed[index] = f"point {index} ({spec.sweep_param}={format_float(value)}): {exc}"
            continue
        points[index] = (rho, replace(spec.optimizer, seed=point_seed(spec.optimizer.seed, index)), {})
    _fill_shared(spec.quantities, list(points.values()))

    for index in range(len(values)):
        if index in failed:
            warnings.append(failed[index])
            continue
        for name in spec.quantities:
            try:
                result = _compute(name, *points[index])
            except (ValueError, ArithmeticError) as exc:
                warnings.append(f"point {index}, quantity {name}: {exc}")
                continue
            if result.converged:
                table[name][index] = result.value
            else:
                warnings.append(f"point {index}, quantity {name}: optimizer did not converge; recording NaN")
    return SweepResult(spec=spec, param_values=values, table=table, warnings=tuple(warnings))


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the double, NaN spelled ``nan``."""
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def write_csv(result: SweepResult, path: str | Path) -> None:
    """Emit ``param,<quantity...>`` rows with LF endings and round-trip floats."""
    path = Path(path)
    lines = ["param," + ",".join(result.spec.quantities)]
    for i, p in enumerate(result.param_values):
        cells = [format_float(float(p))]
        cells += [format_float(float(result.table[q][i])) for q in result.spec.quantities]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_csv(path: str | Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a sweep CSV back into named float columns; a malformed file raises ValueError."""
    text = Path(path).read_text(encoding="ascii")
    lines = [(number, ln) for number, ln in enumerate(text.split("\n"), 1) if ln]
    if len(lines) < 2:
        raise ValueError(f"{path}: {'no data rows' if lines else 'empty file'}")
    header = lines[0][1].split(",")
    repeated = ", ".join(sorted({repr(name) for name in header if header.count(name) > 1}))
    if repeated:
        raise ValueError(f"{path}, line {lines[0][0]}: repeated column {repeated}")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {number}: {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}, line {number}, column {name!r}: not a number: {cell!r}"
                ) from None
    return header, {name: np.array(vals) for name, vals in columns.items()}


def sweep_to_csv(spec: SweepSpec) -> SweepResult:
    """Make the directory of ``spec.output_path``, run the sweep, write its CSV; warnings to stderr."""
    if spec.output_path is None:
        raise ValueError("no output path given")
    Path(spec.output_path).parent.mkdir(parents=True, exist_ok=True)
    result = run_sweep(spec)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    write_csv(result, spec.output_path)
    return result
