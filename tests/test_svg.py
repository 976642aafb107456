"""Hand-emitted SVG plots: polyline points as the per-point formatting gives them."""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randset_pde import svg


def per_point_polylines(series):
    """The polyline ``points`` of line_plot, formatted one numpy scalar at a time."""
    x0, x1, y0, y1 = svg._data_bounds(series)
    px0, px1 = svg.MARGIN_L, svg.WIDTH - svg.MARGIN_R
    py0, py1 = svg.HEIGHT - svg.MARGIN_B, svg.MARGIN_T
    out = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        idx = np.nonzero(np.isfinite(x) & np.isfinite(y))[0]
        if idx.size == 0:
            continue
        for seg in np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1):
            if seg.size < 2:
                continue
            out.append(" ".join(
                f"{px0 + (xv - x0) / (x1 - x0) * (px1 - px0):.2f},"
                f"{py0 + (yv - y0) / (y1 - y0) * (py1 - py0):.2f}"
                for xv, yv in zip(x[seg], y[seg])))
    return out


def polylines(text):
    return re.findall(r'<polyline [^>]*points="([^"]*)"', text)


def test_gaps_single_points_and_constant_series():
    x = np.linspace(-1.0, 3.0, 17)
    gappy = np.sin(x)
    gappy[[3, 4, 9, 11]] = np.nan          # leaves the one-point segment x[10]
    series = [
        {"x": x, "y": gappy},
        {"x": x, "y": np.full_like(x, 0.25), "dash": "4 3"},
        {"x": [0.5], "y": [1.0]},
        {"x": x, "y": np.where(x > 1.0, np.nan, x**2)},
    ]
    text = svg.line_plot(series, title="t", xlabel="x", ylabel="y")
    expected = per_point_polylines(series)
    assert len(expected) == 5
    assert polylines(text) == expected
    # a constant y alone widens the y range by 0.5 either side
    flat = [{"x": x, "y": np.full_like(x, -2.0)}]
    assert polylines(svg.line_plot(flat)) == per_point_polylines(flat)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(float("nan"))),
                         min_size=1, max_size=30), min_size=1, max_size=4))
def test_polylines_match_per_point_formatting(ys):
    series = [{"x": np.arange(len(y), dtype=float) * 0.1, "y": y} for y in ys]
    assert polylines(svg.line_plot(series)) == per_point_polylines(series)


def str_format_polylines(series):
    """The polyline ``points`` as ``"{:.2f},{:.2f}".format`` gives them per
    pixel pair, the form the one-template formatting replaced."""
    x0, x1, y0, y1 = svg._data_bounds(series)
    px0, px1 = svg.MARGIN_L, svg.WIDTH - svg.MARGIN_R
    py0, py1 = svg.HEIGHT - svg.MARGIN_B, svg.MARGIN_T
    out = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        idx = np.nonzero(np.isfinite(x) & np.isfinite(y))[0]
        for seg in np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1):
            if seg.size >= 2:
                sx = px0 + (x[seg] - x0) / (x1 - x0) * (px1 - px0)
                sy = py0 + (y[seg] - y0) / (y1 - y0) * (py1 - py0)
                out.append(" ".join(map("{:.2f},{:.2f}".format, sx.tolist(), sy.tolist())))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(float("nan")), st.just(float("inf"))),
                min_size=1, max_size=60))
def test_polylines_match_str_format_with_nan_gaps(y):
    x = np.linspace(-0.3, 2.7, len(y))
    series = [{"x": x, "y": y}, {"x": x[::-1], "y": np.cos(x)}]
    assert polylines(svg.line_plot(series)) == str_format_polylines(series)
