"""Dependency-light SVG line plots (paths and text only)."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

__all__ = ["line_plot"]

_COLORS = ["#1f6fb2", "#c0392b", "#27853a", "#8e44ad"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def line_plot(
    path: Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: Sequence[tuple[float, str]] = (),
) -> None:
    """Write a simple multi-series line plot with optional vertical markers."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes and ticks
    parts.append(
        f'<path d="M {_ML} {_MT} V {_H - _MB} H {_W - _MR}" stroke="black" fill="none"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<path d="M {px(t):.1f} {_H - _MB} v 5" stroke="black"/>'
            f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<path d="M {_ML} {py(t):.1f} h -5" stroke="black"/>'
            f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end" dominant-baseline="middle">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>'
    )
    for x, label in vlines:
        parts.append(
            f'<path d="M {px(x):.1f} {_MT} V {_H - _MB}" stroke="#888" stroke-dasharray="4 3"/>'
            f'<text x="{px(x):.1f}" y="{_MT - 5}" text-anchor="middle" fill="#555">{label}</text>'
        )
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        parts.append(f'<polyline points="{pts}" stroke="{color}" fill="none" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MR - 10}" y="{_MT + 16 * (i + 1)}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
