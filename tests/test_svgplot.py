import math

import numpy as np
import pytest

from lpow.svgplot import render_line_chart


@pytest.fixture
def chart_path(tmp_path):
    return tmp_path / "chart.svg"


def test_one_polyline_per_series(chart_path):
    x = np.linspace(0.0, 1.0, 11)
    render_line_chart(x, {"a": x, "b": x**2, "c": 1.0 - x}, chart_path)
    text = chart_path.read_text()
    assert text.count('<polyline class="series"') == 3
    for name in ("a", "b", "c"):
        assert f'data-name="{name}"' in text


def test_bound_rules_are_annotated(chart_path):
    x = np.linspace(0.0, 1.0, 5)
    render_line_chart(x, {"y": 2.0 * x}, chart_path, bounds=(2.0, 1.0))
    text = chart_path.read_text()
    assert text.count('class="bound"') == 2
    assert 'data-bound="2"' in text
    assert "stroke-dasharray" in text


def test_axis_labels_and_title(chart_path):
    x = np.linspace(0.0, 1.0, 5)
    render_line_chart(
        x, {"y": x}, chart_path, xlabel="p", ylabel="value", title="werner"
    )
    text = chart_path.read_text()
    assert ">p</text>" in text
    assert ">value</text>" in text
    assert ">werner</text>" in text
    assert 'transform="rotate(-90' in text


def test_nan_samples_are_dropped_not_split(chart_path):
    x = np.linspace(0.0, 1.0, 5)
    y = x.copy()
    y[2] = np.nan
    render_line_chart(x, {"y": y}, chart_path)
    text = chart_path.read_text()
    assert text.count('<polyline class="series"') == 1
    line = next(ln for ln in text.splitlines() if 'class="series"' in ln)
    points = line.split('points="')[1].split('"')[0].split()
    assert len(points) == 4


def test_degenerate_ranges_do_not_crash(chart_path):
    render_line_chart(np.array([1.0, 1.0]), {"y": np.array([3.0, 3.0])}, chart_path)
    assert chart_path.stat().st_size > 0


def test_all_nan_series_still_renders(chart_path):
    x = np.linspace(0.0, 1.0, 4)
    render_line_chart(x, {"y": np.full(4, np.nan)}, chart_path)
    text = chart_path.read_text()
    assert text.count('<polyline class="series"') == 1


def test_output_is_ascii_with_lf_endings(chart_path):
    render_line_chart(np.linspace(0, 1, 3), {"y": np.arange(3.0)}, chart_path)
    raw = chart_path.read_bytes()
    raw.decode("ascii")
    assert b"\r" not in raw


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_non_finite_bound_is_rejected(chart_path, bound):
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="bounds must be finite"):
        render_line_chart(x, {"y": x}, chart_path, bounds=(1.0, bound))
    assert not chart_path.exists()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_x_is_rejected(chart_path, bad):
    x = np.array([0.0, 0.5, bad])
    with pytest.raises(ValueError, match="x values must all be finite"):
        render_line_chart(x, {"y": np.ones(3)}, chart_path)
    assert not chart_path.exists()
