"""Command-line front end: single-state reports, parameter sweeps, chart rendering."""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from pathlib import Path

from .quantities import compute_quantities
from .states import make_state
from .sweeps import SweepSpec, format_float, read_csv, sweep_to_csv
from .svgplot import render_line_chart
from .bell import OptimizerConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_state(spec: str) -> tuple[str, dict[str, float]]:
    """Parse ``family`` or ``family:key=val,key=val`` into a family call."""
    family, _, tail = spec.partition(":")
    family = family.strip()
    params: dict[str, float] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed state parameter {item!r} (expected key=value)")
            key = key.strip()
            if key in params:
                raise ValueError(f"state parameter {key!r} given more than once")
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(f"non-numeric state parameter {item!r}") from None
    return family, params


def _parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"non-numeric grid component in {spec!r}") from None


def _parse_list(spec: str) -> list[str]:
    return [item.strip() for item in spec.split(",") if item.strip()]


def _optimizer_from_args(args) -> OptimizerConfig:
    kwargs = {"restarts": args.restarts, "seed": args.seed}
    return OptimizerConfig(**{k: v for k, v in kwargs.items() if v is not None})


def _cmd_report(args) -> int:
    family, params = _parse_state(args.state)
    rho = make_state(family, **params)
    names = _parse_list(args.quantities)
    if not names:
        raise ValueError("no quantities requested")
    results = compute_quantities(names, rho, _optimizer_from_args(args))
    for r in results:
        bounds = " ".join(f"{k}={format_float(v)}" for k, v in r.bounds)
        converged = "yes" if r.converged else "no"
        print(f"{r.name} = {format_float(r.value)}  bounds: {bounds}  converged: {converged}")
    return EXIT_OK


def _spec_from_inline(args) -> SweepSpec:
    family, fixed = _parse_state(args.state)
    if args.param is None or args.grid is None or args.quantities is None or args.out is None:
        raise ValueError("sweep needs --param, --grid, --quantities and --out (or --config)")
    return SweepSpec(
        family=family,
        sweep_param=args.param,
        grid=_parse_grid(args.grid),
        quantities=tuple(_parse_list(args.quantities)),
        fixed_params=fixed,
        optimizer=_optimizer_from_args(args),
        output_path=args.out,
    )


def _specs_from_config(path: str) -> list[SweepSpec]:
    file = Path(path)
    if not file.is_file():
        raise OSError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read_string(file.read_text(encoding="utf-8"))
    specs = []
    for section in parser.sections():
        raw = parser[section]
        missing = [k for k in ("family", "param", "grid", "quantities", "out") if k not in raw]
        if missing:
            raise ValueError(f"section [{section}] is missing: {', '.join(missing)}")
        fixed = f":{raw['fixed']}" if raw.get("fixed") else ""
        args = argparse.Namespace(
            state=raw["family"] + fixed,
            param=raw["param"],
            grid=raw["grid"],
            quantities=raw["quantities"],
            out=raw["out"],
            restarts=raw.getint("restarts"),
            seed=raw.getint("seed"),
        )
        specs.append(_spec_from_inline(args))
    if not specs:
        raise ValueError(f"config file {path} defines no sweeps")
    return specs


def _cmd_sweep(args) -> int:
    if args.config:
        specs = _specs_from_config(args.config)
    else:
        if args.state is None:
            raise ValueError("sweep needs --state or --config")
        specs = [_spec_from_inline(args)]
    for spec in specs:
        sweep_to_csv(spec)
    return EXIT_OK


def _cmd_plot(args) -> int:
    path = Path(args.csv)
    if not path.is_file():
        raise OSError(f"CSV file not found: {args.csv}")
    header, columns = read_csv(path)
    names = _parse_list(args.quantities) if args.quantities else header[1:]
    missing = [n for n in names if n not in columns]
    if missing:
        raise ValueError(f"column(s) not in {args.csv}: {', '.join(missing)}")
    if args.out is None:
        raise ValueError("plot needs --out")
    bounds = tuple(float(b) for b in _parse_list(args.bounds)) if args.bounds else ()
    render_line_chart(
        columns[header[0]],
        {n: columns[n] for n in names},
        args.out,
        xlabel=header[0],
        ylabel="value",
        bounds=bounds,
        title=path.stem,
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lpow`` parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="lpow",
        description="Perception witnesses and Bell functionals for few-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print quantities for one state")
    report.add_argument("--state", required=True, help="family or family:key=val,key=val")
    report.add_argument("--quantities", required=True, help="comma-separated quantity names")
    report.add_argument("--seed", type=int, default=None)
    report.add_argument("--restarts", type=int, default=None)
    report.set_defaults(func=_cmd_report)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--state", help="family or family:fixed=val,...")
    sweep.add_argument("--param", help="name of the swept parameter")
    sweep.add_argument("--grid", help="start:stop:count")
    sweep.add_argument("--quantities", help="comma-separated quantity names")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--restarts", type=int, default=None)
    sweep.add_argument("--out", help="CSV output path")
    sweep.add_argument("--config", help="INI file with one [section] per sweep")
    sweep.set_defaults(func=_cmd_sweep)

    plot = sub.add_parser("plot", help="render a line chart from a sweep CSV")
    plot.add_argument("csv", help="input CSV path")
    plot.add_argument("--quantities", help="columns to draw (default: all)")
    plot.add_argument("--bounds", help="comma-separated horizontal reference values")
    plot.add_argument("--out", help="SVG output path")
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
