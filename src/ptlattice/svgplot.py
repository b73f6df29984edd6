"""Minimal dependency-free SVG line plots.

Used by the command-line tools to sketch spectra and min-eigenvalue curves:
axes with round-number ticks, solid polylines for real parts and dashed for
imaginary parts.  Coordinates are formatted with '%.6g' so output is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_WIDTH = 720
_HEIGHT = 480
_MARGIN = 56
_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    return "%.6g" % x


_TICK_TARGET = 6


def nice_ticks(lo: float, hi: float) -> list[float]:
    """About _TICK_TARGET round tick positions (1/2/5 x 10^k) covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICK_TARGET
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


@dataclass
class LinePlot:
    """A single-axes line plot assembled curve by curve."""

    title: str = ""
    x_label: str = ""
    y_label: str = ""
    curves: list = field(default_factory=list)

    def add_curve(self, xs, ys, *, label: str = "", dashed: bool = False) -> None:
        pairs = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
        ]
        self.curves.append((pairs, label, dashed))

    def _bounds(self):
        xs = [
            x for pairs, _, _ in self.curves for x, y in pairs
            if math.isfinite(x) and math.isfinite(y)
        ]
        ys = [
            y for pairs, _, _ in self.curves for x, y in pairs
            if math.isfinite(x) and math.isfinite(y)
        ]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.04 * (y_hi - y_lo)
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def to_svg(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        plot_w = _WIDTH - 2 * _MARGIN
        plot_h = _HEIGHT - 2 * _MARGIN

        def px(x: float) -> float:
            return _MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{_WIDTH / 2:g}" y="24" text-anchor="middle" '
                f'font-family="sans-serif" font-size="16">{self.title}</text>'
            )
        axis_style = 'stroke="#333" stroke-width="1"'
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" '
            f'x2="{_WIDTH - _MARGIN}" y2="{_HEIGHT - _MARGIN}" {axis_style}/>'
        )
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_MARGIN}" '
            f'x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" {axis_style}/>'
        )
        for tick in nice_ticks(x_lo, x_hi):
            x = px(tick)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_HEIGHT - _MARGIN}" '
                f'x2="{_fmt(x)}" y2="{_HEIGHT - _MARGIN + 5}" {axis_style}/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN + 20}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="11">{_fmt(tick)}</text>'
            )
        for tick in nice_ticks(y_lo, y_hi):
            y = py(tick)
            parts.append(
                f'<line x1="{_MARGIN - 5}" y1="{_fmt(y)}" '
                f'x2="{_MARGIN}" y2="{_fmt(y)}" {axis_style}/>'
            )
            parts.append(
                f'<text x="{_MARGIN - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )
            parts.append(
                f'<line x1="{_MARGIN}" y1="{_fmt(y)}" '
                f'x2="{_WIDTH - _MARGIN}" y2="{_fmt(y)}" '
                'stroke="#ddd" stroke-width="0.5"/>'
            )
        if self.x_label:
            parts.append(
                f'<text x="{_WIDTH / 2:g}" y="{_HEIGHT - 12}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="13">{self.x_label}</text>'
            )
        if self.y_label:
            parts.append(
                f'<text x="16" y="{_HEIGHT / 2:g}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="13" '
                f'transform="rotate(-90 16 {_HEIGHT / 2:g})">{self.y_label}</text>'
            )

        legend_y = _MARGIN + 4
        for idx, (pairs, label, dashed) in enumerate(self.curves):
            color = _COLORS[idx % len(_COLORS)]
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            # Nonfinite samples split the curve into separate polylines.
            segment: list[str] = []
            segments: list[list[str]] = []
            for x, y in pairs:
                if math.isfinite(x) and math.isfinite(y):
                    segment.append(f"{_fmt(px(x))},{_fmt(py(y))}")
                elif segment:
                    segments.append(segment)
                    segment = []
            if segment:
                segments.append(segment)
            for seg in segments:
                if len(seg) == 1:
                    cx, cy = seg[0].split(",")
                    parts.append(
                        f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>'
                    )
                else:
                    parts.append(
                        f'<polyline points="{" ".join(seg)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"{dash}/>'
                    )
            if label:
                parts.append(
                    f'<line x1="{_WIDTH - _MARGIN - 150}" y1="{legend_y}" '
                    f'x2="{_WIDTH - _MARGIN - 120}" y2="{legend_y}" '
                    f'stroke="{color}" stroke-width="1.5"{dash}/>'
                )
                parts.append(
                    f'<text x="{_WIDTH - _MARGIN - 114}" y="{legend_y + 4}" '
                    f'font-family="sans-serif" font-size="11">{label}</text>'
                )
                legend_y += 16
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_svg())
