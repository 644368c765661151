"""Regenerate the committed figures: results/<figure>.csv and results/<figure>.svg.

werner      Werner family: optimized CHSH grows linearly, the normalized
            three-setting value crosses its classical bound at p = 0.8, and
            the local-perception witness stays at zero for every mixing weight.
cg          Collins-Gisin style family pinned to the CHSH classical bound: the
            mixing weight is solved so the optimized CHSH value equals 2, yet
            at small angles the normalized three-setting value sits strictly
            above 1. The advantage fades above theta roughly 0.53.
classical   Pure product states at a shared angle: every Bell quantity sits at
            its classical value, while the fixed-setting local-perception CHSH
            value traces sin^2(2*theta)/2, nonzero without entanglement.
transition  Triplet-to-product mixture: the normalized two- and three-setting
            values cross their bounds at about 0.29 and exactly 0.25, while the
            optimized witness rises through a shallow shoulder to its cap of 2.

Each figure is one SweepSpec run by lpow's sweep_to_csv, then drawn by
render_line_chart. With no names, all four figures are regenerated.
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

from lpow import OptimizerConfig, SweepSpec, sweep_to_csv
from lpow.svgplot import render_line_chart

FIGURES = {  # name: (the sweep at its defaults, y label, bound rules, title)
    "werner": (
        SweepSpec("werner", "p", (0.0, 1.0, 101), ("s_chsh", "i3322_tilde", "s_chsh_lpo"),
                  optimizer=OptimizerConfig(seed=1)),
        "value", (2.0, 1.0), "Werner states: Bell values vs. local-perception witness",
    ),
    "cg": (
        SweepSpec("cg", "theta", (0.02, 0.78, 61),
                  ("i3322_tilde", "i2222_tilde", "i2222_lpo_tilde"),
                  optimizer=OptimizerConfig(seed=2)),
        "normalized value", (1.0,), "CHSH-pinned family: three settings beat two",
    ),
    "classical": (
        SweepSpec("classical", "theta", (0.0, math.pi / 2.0, 101),
                  ("s_chsh", "s_chsh_lpo", "i2222_tilde", "i2222_lpo_tilde"),
                  fixed_params={"beta": 0.0}, optimizer=OptimizerConfig(seed=3)),
        "value", (2.0, 1.0), "Product states: classical Bell values, nonzero perception witness",
    ),
    "transition": (
        SweepSpec("transition", "p", (0.0, 1.0, 101), ("i2222_tilde", "i3322_tilde", "s_chsh_lpo"),
                  optimizer=OptimizerConfig(seed=4)),
        "value", (1.0,), "Triplet-to-product transition: bound crossings and witness bump",
    ),
}


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("figures", nargs="*", metavar="figure", help="a name above (default: all)")
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--points", type=int, help="grid points (default: the figure's own)")
    parser.add_argument("--restarts", type=int, default=64)
    parser.add_argument("--seed", type=int, help="optimizer seed (default: the figure's own)")
    args = parser.parse_args()
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)} (choose from {', '.join(FIGURES)})")

    for name in args.figures or FIGURES:
        spec, ylabel, bounds, title = FIGURES[name]
        start, stop, points = spec.grid
        seed = spec.optimizer.seed if args.seed is None else args.seed
        spec = replace(
            spec,
            grid=(start, stop, points if args.points is None else args.points),
            optimizer=OptimizerConfig(restarts=args.restarts, seed=seed),
            output_path=args.out_dir / f"{name}.csv",
        )
        result = sweep_to_csv(spec)
        svg_path = args.out_dir / f"{name}.svg"
        render_line_chart(
            result.param_values, result.table, svg_path,
            xlabel=spec.sweep_param, ylabel=ylabel, bounds=bounds, title=title,
        )
        print(f"wrote {spec.output_path}")
        print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
