"""Parameter sweeps over state families with deterministic per-point seeding."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .quantities import QUANTITY_NAMES, _compute
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

    Points run one after another in index order, each with its own seed
    derived from the point index. A point's quantities share one cache of
    intermediates (one ``c3322`` optimization serves ``c3322`` and
    ``i3322_tilde``), as in ``compute_quantities``. A failed or
    non-converged cell becomes NaN with a warning instead of aborting the
    sweep.
    """
    values = spec.grid_values()
    warnings: list[str] = []

    def evaluate(index: int) -> tuple[list[float], list[str]]:
        point_cfg = replace(spec.optimizer, seed=point_seed(spec.optimizer.seed, index))
        notes: list[str] = []
        try:
            params = dict(spec.fixed_params)
            params[spec.sweep_param] = float(values[index])
            rho = make_state(spec.family, **params)
        except ValueError as exc:
            notes.append(f"point {index} ({spec.sweep_param}={format_float(values[index])}): {exc}")
            return [math.nan] * len(spec.quantities), notes
        row: list[float] = []
        cache: dict[str, object] = {}
        for name in spec.quantities:
            try:
                result = _compute(name, rho, point_cfg, cache)
            except (ValueError, ArithmeticError) as exc:
                notes.append(f"point {index}, quantity {name}: {exc}")
                row.append(math.nan)
                continue
            if not result.converged:
                notes.append(
                    f"point {index}, quantity {name}: optimizer did not converge; recording NaN"
                )
                row.append(math.nan)
            else:
                row.append(result.value)
        return row, notes

    rows = [evaluate(index) for index in range(len(values))]
    table = {
        name: np.array([rows[i][0][j] for i in range(len(values))])
        for j, name in enumerate(spec.quantities)
    }
    for _, notes in rows:
        warnings.extend(notes)
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


def sweep_to_csv(spec: SweepSpec, path: str | Path | None = None) -> SweepResult:
    """Run a sweep and write its CSV, forwarding warnings to standard error."""
    result = run_sweep(spec)
    target = path if path is not None else spec.output_path
    if target is None:
        raise ValueError("no output path given")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    write_csv(result, target)
    return result
