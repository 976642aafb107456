"""Hand-emitted static SVG line plots (no plotting dependency).

Just enough for the result displays: framed axes with ticks, polyline
series with per-series color/width/dash, and a step-curve helper for
right-continuous CDFs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot", "step_points", "write_svg"]

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 18, 34, 46
TICKS = 5


def step_points(x, y):
    """The corners of the right-continuous step curve through (x, y): its two
    end points and, where y jumps at x[i], (x[i], y[i-1]) and (x[i], y[i]).

    These are the vertices (x[(v+1)//2], y[v//2]), v = 0, ..., 2n - 2, of
    the curve's full staircase that the path turns at; every other vertex
    lies on the level segment between two of them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.empty(2 * x.size - 1, dtype=bool)
    # a NaN compares unequal, so every vertex beside a gap is kept too
    keep[1::2] = keep[2::2] = y[1:] != y[:-1]
    keep[0] = keep[-1] = True
    v = np.flatnonzero(keep)
    return x[(v + 1) // 2], y[v // 2]


def _data_bounds(x, y, good):
    """Padded plot bounds of the finite points ``good`` of all series, as
    Python floats (the same doubles as numpy's scalars, and faster to work
    with in the ticks)."""
    if good.any():
        lo_x, hi_x = float(x[good].min()), float(x[good].max())
        lo_y, hi_y = float(y[good].min()), float(y[good].max())
    else:
        lo_x, hi_x, lo_y, hi_y = 0.0, 1.0, 0.0, 1.0
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_y == lo_y:
        lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
    pad_x, pad_y = 0.03 * (hi_x - lo_x), 0.05 * (hi_y - lo_y)
    return lo_x - pad_x, hi_x + pad_x, lo_y - pad_y, hi_y + pad_y


def _polylines(series, good, px, py):
    """One ``<polyline>`` per run of at least two consecutive finite points
    of a series, every one filled from a single ``%`` template.

    ``good`` (the finite points) and the pixel coordinates ``px`` and ``py``
    run over the concatenated series; a run ends at a non-finite point and
    at the end of its series.
    """
    lengths = [len(s["x"]) for s in series]
    owner = np.repeat(np.arange(len(series)), lengths)
    idx = np.flatnonzero(good)
    if idx.size == 0:
        return []
    # a segment starts wherever the index skips a point or the series changes
    steps = np.diff(np.stack((idx, owner[idx])), axis=1)
    starts = np.flatnonzero((steps != [[1], [0]]).any(axis=0)) + 1
    bounds = np.concatenate(([0], starts, [idx.size]))
    sizes = np.diff(bounds)
    kept = sizes >= 2
    if not kept.any():
        return []
    points = idx[np.repeat(kept, sizes)]
    templates = []
    for first, size in zip(bounds[:-1][kept].tolist(), sizes[kept].tolist()):
        s = series[owner[idx[first]]]
        dash = f' stroke-dasharray="{s["dash"]}"' if s.get("dash") else ""
        attrs = (f'stroke="{s.get("color", "#1f5fa8")}" '
                 f'stroke-width="{s.get("width", 1.5)}"{dash}').replace("%", "%%")
        templates.append(f'<polyline fill="none" {attrs} points="'
                         + " ".join(("%.2f,%.2f",) * size) + '"/>')
    # pixel coordinates interleaved x, y, as Python floats through one
    # template (numpy scalars format the same, slowly)
    xy = np.column_stack((px[points], py[points])).ravel().tolist()
    return ["\n".join(templates) % tuple(xy)]


def line_plot(series, title="", xlabel="", ylabel=""):
    """SVG text for a list of series dicts: x, y[, color, width, dash], with
    x and y of one length.  NaN and inf points are left out, and split a
    series' polyline."""
    x = np.concatenate([np.asarray(s["x"], dtype=float) for s in series] or [np.empty(0)])
    y = np.concatenate([np.asarray(s["y"], dtype=float) for s in series] or [np.empty(0)])
    good = np.isfinite(x) & np.isfinite(y)
    x0, x1, y0, y1 = _data_bounds(x, y, good)
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T

    def sx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="#404040" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.1f}" y="{MARGIN_T - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for i in range(TICKS + 1):
        fx = x0 + (x1 - x0) * i / TICKS
        fy = y0 + (y1 - y0) * i / TICKS
        tx, ty = sx(fx), sy(fy)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{py0}" x2="{tx:.1f}" y2="{py0 + 5}" '
            'stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{tx:.1f}" y="{py0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{fx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{px0 - 5}" y1="{ty:.1f}" x2="{px0}" y2="{ty:.1f}" '
            'stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{px0 - 8}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{fy:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">{ylabel}</text>'
        )
    parts += _polylines(series, good, sx(x), sy(y))
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
