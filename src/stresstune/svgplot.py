"""Tiny hand-rolled SVG line charts: textual, diffable, and free of
timestamps or library metadata, so identical inputs give identical bytes.
"""

from __future__ import annotations

import sys

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 70, 70, 40, 55


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(values, lo_px, hi_px):
    """Map the range of ``values`` onto ``[lo_px, hi_px]``; the map and five evenly spaced ticks."""
    vmin, vmax = min(values), max(values)
    if vmax == vmin:
        # A flat series sits mid-axis: pad it by 0.5, or by a sixteenth of its
        # magnitude where rounding loses 0.5 (from about 2**53 on), keeping
        # the padded bounds inside the float range.
        pad = 0.5 if vmin - 0.5 != vmin + 0.5 else abs(vmin) / 16
        vmin, vmax = max(vmin - pad, -sys.float_info.max), min(vmax + pad, sys.float_info.max)
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, [vmin + span * i / 4 for i in range(5)]


def _y_ticks(x, side, to_px, ticks):
    """Ticks and labels of the vertical axis at ``x``: left of it for side -1, right for 1."""
    lo, hi = sorted((x, x + 5 * side))
    anchor = "end" if side < 0 else "start"
    for tv in ticks:
        py = to_px(tv)
        yield f'<line x1="{lo}" y1="{_fmt(py)}" x2="{hi}" y2="{_fmt(py)}" stroke="black"/>'
        yield (
            f'<text x="{x + 8 * side}" y="{_fmt(py + 4)}" text-anchor="{anchor}" font-size="11" '
            f'font-family="sans-serif">{_fmt(tv)}</text>'
        )


def _series(xy, color, label, legend_y):
    """A polyline through the pixel points ``xy`` with a marker at each, and its legend entry."""
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in xy)
    marks = "".join(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>' for x, y in xy)
    return [
        f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>{marks}',
        f'<text x="{_ML + 10}" y="{legend_y}" font-size="12" font-family="sans-serif" '
        f'fill="{color}">{label}</text>',
    ]


def sweep_chart(hs, stresses, errors=None, title="stress sweep") -> str:
    """SVG chart of stress (left axis) and optional error (right axis) vs h."""
    if len(hs) != len(stresses) or not hs:
        raise ValueError("need one stress value per hop value")
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT
    sx, hticks = _scale(hs, x0, x1)
    sy, sticks = _scale(stresses, y0, y1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for tv in hticks:
        px = _fmt(sx(tv))
        parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px}" y="{y0 + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_fmt(tv)}</text>'
        )
    parts += _y_ticks(x0, -1, sy, sticks)
    parts += [
        f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">hops</text>',
        f'<text x="18" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) // 2})">stress</text>',
    ]
    parts += _series([(sx(h), sy(s)) for h, s in zip(hs, stresses)], "#1f6fb2", "stress", y1 + 14)
    if errors is not None:
        sey, eticks = _scale(errors, y0, y1)
        parts += _y_ticks(x1, 1, sey, eticks)
        parts.append(f'<line x1="{x1}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="black"/>')
        parts += _series([(sx(h), sey(e)) for h, e in zip(hs, errors)], "#c23b22",
                         "embedding error", y1 + 30)
    return "\n".join(parts) + "\n</svg>\n"
