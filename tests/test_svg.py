"""Hand-emitted SVG plots: the one-pass writer against the per-series one it
replaced, and polyline points as the per-point formatting gives them."""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randset_pde import svg


def per_series_bounds(series):
    """The plot bounds as the per-series writer took them, series by series."""
    lo_x = hi_x = lo_y = hi_y = None
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        good = np.isfinite(x) & np.isfinite(y)
        if not np.any(good):
            continue
        lo_x = min(lo_x, x[good].min()) if lo_x is not None else x[good].min()
        hi_x = max(hi_x, x[good].max()) if hi_x is not None else x[good].max()
        lo_y = min(lo_y, y[good].min()) if lo_y is not None else y[good].min()
        hi_y = max(hi_y, y[good].max()) if hi_y is not None else y[good].max()
    if lo_x is None:
        lo_x, hi_x, lo_y, hi_y = 0.0, 1.0, 0.0, 1.0
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_y == lo_y:
        lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
    pad_x, pad_y = 0.03 * (hi_x - lo_x), 0.05 * (hi_y - lo_y)
    return lo_x - pad_x, hi_x + pad_x, lo_y - pad_y, hi_y + pad_y


def per_series_line_plot(series, title="", xlabel="", ylabel=""):
    """The SVG text as the per-series writer gave it: bounds, gaps and one
    template per polyline, series by series."""
    x0, x1, y0, y1 = per_series_bounds(series)
    px0, px1 = svg.MARGIN_L, svg.WIDTH - svg.MARGIN_R
    py0, py1 = svg.HEIGHT - svg.MARGIN_B, svg.MARGIN_T
    W, H = svg.WIDTH, svg.HEIGHT

    def sx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="#404040" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.1f}" y="{svg.MARGIN_T - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for i in range(svg.TICKS + 1):
        fx = x0 + (x1 - x0) * i / svg.TICKS
        fy = y0 + (y1 - y0) * i / svg.TICKS
        parts.append(
            f'<line x1="{sx(fx):.1f}" y1="{py0}" x2="{sx(fx):.1f}" y2="{py0 + 5}" '
            'stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{sx(fx):.1f}" y="{py0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{fx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{px0 - 5}" y1="{sy(fy):.1f}" x2="{px0}" y2="{sy(fy):.1f}" '
            'stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{px0 - 8}" y="{sy(fy) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{fy:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.1f}" y="{H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">{ylabel}</text>'
        )
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        color = s.get("color", "#1f5fa8")
        width = s.get("width", 1.5)
        dash = f' stroke-dasharray="{s["dash"]}"' if s.get("dash") else ""
        idx = np.nonzero(np.isfinite(x) & np.isfinite(y))[0]
        if idx.size == 0:
            continue
        for seg in np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1):
            if seg.size < 2:
                continue
            xy = np.column_stack((sx(x[seg]), sy(y[seg]))).ravel().tolist()
            pts = " ".join(("%.2f,%.2f",) * seg.size) % tuple(xy)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash} '
                f'points="{pts}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def per_point_polylines(series):
    """The polyline ``points`` of line_plot, formatted one numpy scalar at a time."""
    x0, x1, y0, y1 = per_series_bounds(series)
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
    x0, x1, y0, y1 = per_series_bounds(series)
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


FINITE_OR_GAP = st.one_of(st.floats(-1e6, 1e6), st.just(float("nan")), st.just(float("inf")),
                         st.just(float("-inf")))
STYLE = st.fixed_dictionaries({}, optional={
    "color": st.sampled_from(["#1f5fa8", "red", "#c03020"]),
    "width": st.sampled_from([1.2, 2.0, 1.5, 3]),
    "dash": st.sampled_from(["", "4 3", "2%", "1 %d 50%"]),
})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(FINITE_OR_GAP, min_size=1, max_size=60), STYLE,
                          st.booleans()),
                min_size=1, max_size=5))
def test_polylines_match_str_format_with_nan_gaps(specs):
    # several styled series: NaN/inf gaps, one-point and all-gap series,
    # and a "%" in a dash pattern, against the per-series writer
    series = []
    for y, style, reverse in specs:
        x = np.linspace(-0.3, 2.7, len(y))
        series.append({"x": x[::-1] if reverse else x, "y": y, **style})
    series += [{"x": np.linspace(0.0, 1.0, 7), "y": np.cos(np.arange(7.0)), "dash": "3 %s"},
               {"x": [0.4], "y": [0.1], "color": "#303030"},
               {"x": [0.0, 1.0, 2.0], "y": [np.nan] * 3, "width": 2.0}]
    text = svg.line_plot(series, title="p", xlabel="x", ylabel="y")
    assert polylines(text) == str_format_polylines(series)
    assert text == per_series_line_plot(series, title="p", xlabel="x", ylabel="y")


def test_one_pass_writer_matches_the_per_series_one():
    x = np.linspace(-1.0, 3.0, 17)
    gappy = np.sin(x)
    gappy[[3, 4, 9, 11]] = np.nan
    cases = [
        [],
        [{"x": [0.5], "y": [1.0]}],
        [{"x": x, "y": np.full_like(x, np.nan)}, {"x": [], "y": []}],
        [{"x": x, "y": gappy, "color": "#2050a0", "width": 2.0},
         {"x": x, "y": np.where(x > 1.0, np.inf, x), "dash": "4 3"},
         {"x": [0.25], "y": [0.0]},
         {"x": x[::-1], "y": x**2, "dash": "10%", "color": "r%sd"}],
    ]
    for series in cases:
        assert svg.line_plot(series, title="t", xlabel="x", ylabel="y") == \
            per_series_line_plot(series, title="t", xlabel="x", ylabel="y")


def full_staircase(x, y):
    """Every vertex of the right-continuous step curve through (x, y):
    (x[0], y[0]), then (x[i], y[i-1]) and (x[i], y[i]) for each i >= 1."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = np.arange(2 * x.size - 1)
    return x[(v + 1) // 2], y[v // 2]


@st.composite
def step_curves(draw):
    """Sorted thresholds and step values: any, constant, one jump, or one
    jump at the last threshold; NaN values split the curve."""
    n = draw(st.integers(1, 40))
    x = np.sort(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True)))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0, float("nan")])
    kind = draw(st.sampled_from(["any", "constant", "jump", "last"]))
    if kind == "any" or n == 1:
        y = draw(st.lists(levels, min_size=n, max_size=n))
    else:
        lo = draw(levels)
        hi = draw(levels.filter(lambda v: v != lo))
        at = {"constant": n, "last": n - 1}.get(kind) or draw(st.integers(1, n - 1))
        y = np.where(np.arange(n) < at, lo, hi)
    return x, np.asarray(y, dtype=float)


@settings(max_examples=80, deadline=None)
@given(step_curves())
def test_step_points_keep_the_corners_of_the_staircase(curve):
    x, y = curve
    cx, cy = svg.step_points(x, y)
    fx, fy = full_staircase(x, y)
    same = lambda a, b: a == b or (a != a and b != b)
    # the corners are a subsequence of the staircase's vertices (matched
    # from the end: where no jump, (x[i], y[i-1]) and (x[i], y[i]) coincide)
    kept, v = [], fx.size - 1
    for px, py in zip(cx.tolist()[::-1], cy.tolist()[::-1]):
        while v >= 0 and not (fx[v] == px and same(fy[v], py)):
            v -= 1
        assert v >= 0, f"corner ({px}, {py}) is no vertex of the staircase, in order"
        kept.insert(0, v)
        v -= 1
    assert kept[0] == 0 and kept[-1] == fx.size - 1
    # every vertex left out lies on the level segment between the corners beside it
    for a, b in zip(kept, kept[1:]):
        for v in range(a + 1, b):
            assert fy[a] == fy[v] == fy[b] and fx[a] <= fx[v] <= fx[b]
    # two corners per jump and the two end points, one of which is the upper
    # corner of a jump at the last threshold
    jumps = [bool(j) for j in y[1:] != y[:-1]]
    expected = 2 * sum(jumps) + 2 - (jumps[-1] if jumps else 1)
    assert cx.size == cy.size == expected
    # drawn, the corners give the staircase's plot but for the polylines' points
    strip = lambda text: re.sub(r'points="[^"]*"', "", text)
    plot = lambda px, py: svg.line_plot([{"x": px, "y": py}], title="p", xlabel="b")
    assert strip(plot(cx, cy)) == strip(plot(fx, fy))
