"""Minimal hand-rolled SVG charts (no plotting dependency).

Output is a plain string assembled with fixed two-decimal formatting,
so identical inputs give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

PALETTE = (
    "#1b6ca8",
    "#c03a2b",
    "#2e8540",
    "#8e44ad",
    "#d68910",
    "#148f77",
    "#5d6d7e",
    "#a93226",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 18, 46, 52
_WIDTH, _LINE_HEIGHT, _MAP_HEIGHT = 760, 480, 520


@dataclass(frozen=True)
class LineSeries:
    label: str
    points: tuple[tuple[float, float], ...]
    color: str | None = None


@dataclass(frozen=True)
class Band:
    """A shaded min-max envelope between two same-x point runs."""

    lo: tuple[tuple[float, float], ...]
    hi: tuple[tuple[float, float], ...]
    color: str = "#9bb8d3"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:  # degenerate data still needs a drawable axis
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


class _Frame:
    """Maps data coordinates onto the pixel plot area."""

    def __init__(self, height, x_span, y_span):
        self.x0, self.x1 = x_span
        self.y0, self.y1 = y_span
        self.px0 = _MARGIN_L
        self.px1 = _WIDTH - _MARGIN_R
        self.py0 = _MARGIN_T
        self.py1 = height - _MARGIN_B

    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py1 - (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _start(height: int, title: str) -> list[str]:
    """The svg tag, white background and centred title of a chart."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="24" font-size="15" text-anchor="middle" '
        f'fill="#111111">{_esc(title)}</text>',
    ]


def _finish(parts: list[str], x: float, entries: Sequence[tuple[str, str]]) -> str:
    """The chart's text, closed by a legend of (color, label) swatches at ``x``."""
    parts.append('<g class="legend">')
    for i, (color, label) in enumerate(entries):
        y = _MARGIN_T + 6 + i * 16
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y - 8)}" width="12" height="8" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 18)}" y="{_fmt(y)}" font-size="11" '
            f'fill="#333333">{_esc(label)}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _axes(parts: list[str], frame: _Frame, x_label: str, y_label: str) -> None:
    parts.append(
        f'<line x1="{_fmt(frame.px0)}" y1="{_fmt(frame.py1)}" x2="{_fmt(frame.px1)}" '
        f'y2="{_fmt(frame.py1)}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(frame.px0)}" y1="{_fmt(frame.py0)}" x2="{_fmt(frame.px0)}" '
        f'y2="{_fmt(frame.py1)}" stroke="#333333" stroke-width="1"/>'
    )
    for v in _ticks(frame.x0, frame.x1):
        x = frame.x(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(frame.py1)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(frame.py1 + 4)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(frame.py1 + 18)}" font-size="11" '
            f'text-anchor="middle" fill="#333333">{_fmt(v)}</text>'
        )
    for v in _ticks(frame.y0, frame.y1):
        y = frame.y(v)
        parts.append(
            f'<line x1="{_fmt(frame.px0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(frame.px0)}" '
            f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(frame.px0 - 8)}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end" fill="#333333">{_fmt(v)}</text>'
        )
    mid_x = (frame.px0 + frame.px1) / 2
    mid_y = (frame.py0 + frame.py1) / 2
    parts.append(
        f'<text x="{_fmt(mid_x)}" y="{_fmt(frame.py1 + 38)}" font-size="13" '
        f'text-anchor="middle" fill="#111111">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(mid_y)}" font-size="13" text-anchor="middle" '
        f'fill="#111111" transform="rotate(-90 16 {_fmt(mid_y)})">{_esc(y_label)}</text>'
    )


def line_chart(
    series: Sequence[LineSeries],
    *,
    title: str,
    x_label: str,
    y_label: str,
    bands: Sequence[Band] = (),
) -> str:
    """Overlaid line series with optional shaded envelopes and a legend."""
    if not series:
        raise ValueError("need at least one series")
    for s in series:
        if not s.points:
            raise ValueError(f"series {s.label!r} has no points")
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    for band in bands:
        xs += [p[0] for run in (band.lo, band.hi) for p in run]
        ys += [p[1] for run in (band.lo, band.hi) for p in run]
    frame = _Frame(_LINE_HEIGHT, _span(xs), _span(ys))
    parts = _start(_LINE_HEIGHT, title)
    _axes(parts, frame, x_label, y_label)
    for band in bands:
        ring = list(band.lo) + list(reversed(band.hi))
        d = " L ".join(f"{_fmt(frame.x(x))} {_fmt(frame.y(y))}" for x, y in ring)
        parts.append(
            f'<path class="band" d="M {d} Z" fill="{band.color}" fill-opacity="0.25" '
            f'stroke="none"/>'
        )
    colors = [s.color or PALETTE[i % len(PALETTE)] for i, s in enumerate(series)]
    for s, color in zip(series, colors):
        pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in s.points)
        parts.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.8" points="{pts}"/>'
        )
    return _finish(parts, frame.px1 - 170, [(c, s.label) for s, c in zip(series, colors)])


def _ramp(t: float) -> str:
    # blue -> white -> red, linear in RGB
    stops = ((0x21, 0x66, 0xAC), (0xF7, 0xF7, 0xF7), (0xB2, 0x18, 0x2B))
    if t <= 0.5:
        a, b, u = stops[0], stops[1], t / 0.5
    else:
        a, b, u = stops[1], stops[2], (t - 0.5) / 0.5
    rgb = tuple(round(a[i] + (b[i] - a[i]) * u) for i in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def scatter_map(
    points: Sequence[tuple[float, float, float]],
    *,
    title: str,
    value_label: str,
) -> str:
    """Lon/lat scatter with a diverging color ramp over the values."""
    if not points:
        raise ValueError("need at least one point")
    lons = [p[0] for p in points]
    lats = [p[1] for p in points]
    values = [p[2] for p in points]
    frame = _Frame(_MAP_HEIGHT, _span(lons), _span(lats))
    vmin, vmax = min(values), max(values)

    def color_for(v: float) -> str:
        if vmax == vmin:
            return _ramp(0.5)
        return _ramp((v - vmin) / (vmax - vmin))

    parts = _start(_MAP_HEIGHT, title)
    _axes(parts, frame, "longitude", "latitude")
    for lon, lat, value in points:
        parts.append(
            f'<circle cx="{_fmt(frame.x(lon))}" cy="{_fmt(frame.y(lat))}" r="4.5" '
            f'fill="{color_for(value)}" stroke="#555555" stroke-width="0.5"/>'
        )
    swatches = [(vmin, 0.0), ((vmin + vmax) / 2, 0.5), (vmax, 1.0)]
    legend = [(_ramp(t), f"{value_label} = {_fmt(value)}") for value, t in swatches]
    return _finish(parts, frame.px1 - 150, legend)
