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
    """Expand (x, y) into the vertices of a right-continuous step curve."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = np.empty(2 * x.size - 1)
    ys = np.empty_like(xs)
    xs[0::2] = x
    xs[1::2] = x[1:]
    ys[0::2] = y
    ys[1::2] = y[:-1]
    return xs, ys


def _data_bounds(series):
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


def line_plot(series, title="", xlabel="", ylabel=""):
    """SVG text for a list of series dicts: x, y[, color, width, dash]."""
    x0, x1, y0, y1 = _data_bounds(series)
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
            f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
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
        good = np.isfinite(x) & np.isfinite(y)
        # split the polyline at gaps so NaNs do not connect across
        idx = np.nonzero(good)[0]
        if idx.size == 0:
            continue
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        segments = np.split(idx, breaks + 1)
        for seg in segments:
            if seg.size < 2:
                continue
            # the segment's pixel coordinates, interleaved x, y, as Python
            # floats through one template (numpy scalars format the same, slowly)
            xy = np.column_stack((sx(x[seg]), sy(y[seg]))).ravel().tolist()
            pts = " ".join(("%.2f,%.2f",) * seg.size) % tuple(xy)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash} '
                f'points="{pts}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
