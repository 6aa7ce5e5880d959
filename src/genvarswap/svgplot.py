"""Minimal static SVG charts: line/scatter, grouped histogram, heatmap.

Deterministic output: fixed float formatting, no timestamps, no randomness,
so identical inputs produce byte-identical files. Styling is intentionally
plain; these are batch artifacts, not an interactive plotting layer.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _as_floats

__all__ = ["line_chart", "grouped_histogram", "heatmap"]

_PALETTE = (
    "#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97", "#c97b1d",
    "#2a9d8f", "#6c584c", "#5c6bc0", "#a4161a",
)
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#444444", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, points, color, width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def rect(self, x, y, w, h, color, stroke="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{color}" stroke="{stroke}"/>'
        )

    def text(self, x, y, content, size=11, anchor="start", color="#222222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{color}">{_escape(content)}</text>'
        )

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return 0.0, 1.0
    if lo == hi:
        pad = max(abs(lo), 1.0) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    """Data-to-pixel mapping plus axes/ticks/title for one plot area."""

    def __init__(self, canvas: _Canvas, x_range, y_range, title, xlabel, ylabel):
        self.canvas = canvas
        self.x0, self.x1 = _axis_range(*x_range)
        self.y0, self.y1 = _axis_range(*y_range)
        self.px0 = _MARGIN_LEFT
        self.px1 = canvas.width - _MARGIN_RIGHT
        self.py0 = canvas.height - _MARGIN_BOTTOM
        self.py1 = _MARGIN_TOP
        canvas.text(canvas.width / 2, 18, title, size=13, anchor="middle")
        canvas.text(canvas.width / 2, canvas.height - 10, xlabel, anchor="middle")
        canvas.text(14, canvas.height / 2, ylabel, anchor="middle")
        canvas.line(self.px0, self.py0, self.px1, self.py0)
        canvas.line(self.px0, self.py0, self.px0, self.py1)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xp = self.px(xv)
            yp = self.py(yv)
            canvas.line(xp, self.py0, xp, self.py0 + 4)
            canvas.text(xp, self.py0 + 16, _tick_label(xv), size=9, anchor="middle")
            canvas.line(self.px0 - 4, yp, self.px0, yp)
            canvas.text(self.px0 - 6, yp + 3, _tick_label(yv), size=9, anchor="end")

    def px(self, x: float) -> float:
        return self.px0 + (x - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def py(self, y: float) -> float:
        return self.py0 - (y - self.y0) / (self.y1 - self.y0) * (self.py0 - self.py1)


def line_chart(
    path,
    curves: dict,
    points: dict | None = None,
    title: str = "",
    xlabel: str = "t (years)",
    ylabel: str = "",
    size: tuple[int, int] = (720, 440),
) -> None:
    """Polyline per ``curves[label] = (x, y)`` plus optional scatter series."""
    points = points or {}
    curves = {label: (_as_floats("x", x), _as_floats("y", y)) for label, (x, y) in curves.items()}
    points = {label: (_as_floats("x", x), _as_floats("y", y)) for label, (x, y) in points.items()}
    series = [*curves.values(), *points.values()]
    xs = np.concatenate([x for x, _ in series]) if series else np.array([0.0, 1.0])
    ys = np.concatenate([y for _, y in series]) if series else np.array([0.0, 1.0])
    canvas = _Canvas(*size)
    frame = _Frame(canvas, (xs.min(), xs.max()), (ys.min(), ys.max()), title, xlabel, ylabel)

    legend_y = _MARGIN_TOP + 4
    color_index = 0
    for label, (x, y) in points.items():
        color = _PALETTE[color_index % len(_PALETTE)]
        color_index += 1
        for xi, yi in zip(x, y):
            canvas.circle(frame.px(xi), frame.py(yi), 2.4, color)
        canvas.circle(frame.px1 - 130, legend_y - 3, 3, color)
        canvas.text(frame.px1 - 122, legend_y, label, size=10)
        legend_y += 14
    for label, (x, y) in curves.items():
        color = _PALETTE[color_index % len(_PALETTE)]
        color_index += 1
        pts = [(frame.px(xi), frame.py(yi)) for xi, yi in zip(x, y)]
        canvas.polyline(pts, color)
        canvas.line(frame.px1 - 136, legend_y - 3, frame.px1 - 124, legend_y - 3, color, 2)
        canvas.text(frame.px1 - 122, legend_y, label, size=10)
        legend_y += 14
    canvas.write(path)


def grouped_histogram(
    path,
    samples: dict,
    bins: int = 20,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "count",
    size: tuple[int, int] = (720, 440),
) -> None:
    """Side-by-side bars per group over shared bin edges."""
    arrays = {label: _as_floats("samples", v) for label, v in samples.items()}
    pooled = np.concatenate(list(arrays.values()))
    edges = np.histogram_bin_edges(pooled, bins=bins)
    counts = {label: np.histogram(v, bins=edges)[0] for label, v in arrays.items()}
    top = max(int(c.max()) for c in counts.values()) if counts else 1

    canvas = _Canvas(*size)
    frame = _Frame(canvas, (edges[0], edges[-1]), (0.0, float(top)), title, xlabel, ylabel)
    n_groups = len(arrays)
    legend_y = _MARGIN_TOP + 4
    for g, (label, c) in enumerate(counts.items()):
        color = _PALETTE[g % len(_PALETTE)]
        for b in range(len(edges) - 1):
            if c[b] == 0:
                continue
            x_lo = frame.px(edges[b])
            x_hi = frame.px(edges[b + 1])
            slot = (x_hi - x_lo) / n_groups
            y_top = frame.py(float(c[b]))
            canvas.rect(x_lo + g * slot, y_top, max(slot - 0.5, 0.5), frame.py0 - y_top, color)
        canvas.rect(frame.px1 - 136, legend_y - 9, 10, 10, color)
        canvas.text(frame.px1 - 122, legend_y, label, size=10)
        legend_y += 14
    canvas.write(path)


def _cell_color(value: float) -> str:
    """Blue (-1) through white (0) to red (+1)."""
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v * 0.75)), round(255 * (1 - v * 0.75))
    else:
        r, g, b = round(255 * (1 + v * 0.75)), round(255 * (1 + v * 0.75)), 255
    return f"rgb({r},{g},{b})"


def heatmap(
    path,
    matrix: np.ndarray,
    labels,
    title: str = "",
    size: tuple[int, int] = (520, 520),
) -> None:
    """Correlation-style heatmap with the value printed in each cell."""
    matrix = _as_floats("matrix", matrix)
    n = matrix.shape[0]
    canvas = _Canvas(*size)
    canvas.text(size[0] / 2, 18, title, size=13, anchor="middle")
    left, top = 70.0, 50.0
    cell_w = (size[0] - left - 20.0) / n
    cell_h = (size[1] - top - 20.0) / n
    for i in range(n):
        canvas.text(left - 6, top + (i + 0.6) * cell_h, str(labels[i]), size=10, anchor="end")
        canvas.text(left + (i + 0.5) * cell_w, top - 8, str(labels[i]), size=10, anchor="middle")
        for j in range(n):
            x = left + j * cell_w
            y = top + i * cell_h
            canvas.rect(x, y, cell_w - 1, cell_h - 1, _cell_color(matrix[i, j]), stroke="#cccccc")
            canvas.text(
                x + cell_w / 2, y + cell_h / 2 + 4, f"{matrix[i, j]:.3f}", size=10, anchor="middle"
            )
    canvas.write(path)
