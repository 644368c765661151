"""Minimal self-contained SVG line charts for sweep tables."""

from __future__ import annotations

import html
import math
from pathlib import Path

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 28
MARGIN_BOTTOM = 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return list(np.linspace(lo, hi, n))


def render_line_chart(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    out_path: str | Path,
    xlabel: str = "param",
    ylabel: str = "value",
    bounds: tuple[float, ...] = (),
    title: str = "",
) -> None:
    """Write a line chart with one polyline per series.

    ``bounds`` adds one horizontal reference rule per value. Non-finite
    samples are dropped from their series so each column still renders as a
    single polyline. Text is XML-escaped.
    """
    title, xlabel, ylabel = html.escape(title), html.escape(xlabel), html.escape(ylabel)
    x = np.asarray(x, dtype=float)
    finite_y = [
        v
        for vals in series.values()
        for v in np.asarray(vals, dtype=float)
        if math.isfinite(v)
    ]
    if not finite_y:
        finite_y = [0.0, 1.0]
    y_lo = min(list(finite_y) + list(bounds))
    y_hi = max(list(finite_y) + list(bounds))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{MARGIN_TOP - 10}" text-anchor="middle">{title}</text>'
        )

    # Axes frame and ticks.
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle">'
            f"{_fmt(tick)}</text>"
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">{ylabel}</text>'
    )

    for bound in bounds:
        py = sy(float(bound))
        parts.append(
            f'<line class="bound" x1="{MARGIN_LEFT}" y1="{py:.2f}" '
            f'x2="{MARGIN_LEFT + plot_w}" y2="{py:.2f}" stroke="gray" '
            f'stroke-dasharray="6 4" data-bound="{_fmt(float(bound))}"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w - 4}" y="{py - 4:.2f}" text-anchor="end" '
            f'fill="gray">{_fmt(float(bound))}</text>'
        )

    legend_y = MARGIN_TOP + 14
    for idx, (name, vals) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        name = html.escape(name)
        vals = np.asarray(vals, dtype=float)
        keep = np.isfinite(vals) & np.isfinite(x)
        points = " ".join(
            f"{sx(float(xi)):.2f},{sy(float(vi)):.2f}"
            for xi, vi in zip(x[keep], vals[keep])
        )
        parts.append(
            f'<polyline class="series" data-name="{name}" points="{points}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx = MARGIN_LEFT + 10
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{legend_y}">{name}</text>')
        legend_y += 16

    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="ascii", newline="\n")
