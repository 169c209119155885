"""Minimal deterministic SVG line plots.

Polyline series in a fixed-size viewBox with auto-scaled axes, boundary
ticks, optional equal aspect and point markers.  Output is a plain string;
byte-identical for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

from . import _compiled

_PALETTE = ("#c0392b", "#2956b2", "#222222", "#1e8449", "#8e44ad", "#b9770e")
# viewBox size in pixels, and about the most points a series keeps
WIDTH, HEIGHT = 760, 480
MAX_POINTS = 4000
# below this, an equal-aspect frame is that of the data times 2^64
_TINY = 2.0 ** -900
_NORMAL_MIN = 2.0 ** -1022


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points attribute of a polyline: "x,y x,y ...", each value as
    _fmt writes it.  Where the compiled library is loaded, its formatter
    writes the same bytes for a series it takes whole."""
    text = _compiled.points(xs, ys)
    if text is None:
        text = " ".join([f"{_fmt(x)},{_fmt(y)}" for x, y
                         in zip(xs.tolist(), ys.tolist(), strict=True)])
    return text


def _tick_label(v: float, scale: float = 1.0) -> str:
    """The label of the tick at v / scale, which beyond the doubles, or
    below their normal range where it is scaled, is formatted from its exact
    decimal value."""
    q = v / scale
    if math.isinf(q) or (scale != 1.0 and v and abs(q) < _NORMAL_MIN):
        from decimal import Decimal  # which import multilink leaves out

        return f"{Decimal(v) / Decimal(scale):.4g}"
    return f"{q:.4g}"


def _span(lo, hi):
    """The axis range of data from lo to hi: a single value v is widened to
    v -+ 1, or at |v| >= 2**53, where v - 1 can be v, by the spacing of
    doubles at v, inward where outward would overflow."""
    if hi != lo:
        return lo, hi
    step = max(1.0, math.ulp(lo))
    if math.isinf(abs(lo) + step):
        return (lo - 2.0 * step, hi) if lo > 0.0 else (lo, hi + 2.0 * step)
    return lo - step, hi + step


def _around(lo, hi, data_lo, data_hi):
    """The axis limits lo and hi, each moved out an ulp at a time while it
    lies inside the data limits data_lo and data_hi."""
    while lo > data_lo:
        lo = math.nextafter(lo, -math.inf)
    while hi < data_hi:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


class LinePlot:
    """Collects series/markers, then renders one SVG document."""

    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = "",
                 equal_aspect: bool = False):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.equal_aspect = equal_aspect
        self._series: list[tuple[np.ndarray, np.ndarray, str, float, bool, str]] = []
        self._markers: list[tuple[float, float, str, float]] = []

    def add_series(self, x, y, color: str | None = None, width: float = 1.2,
                   dashed: bool = False, label: str = ""):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
        if x.size > MAX_POINTS:
            # every stride-th point, and the last one once
            stride = int(math.ceil(x.size / MAX_POINTS))
            x = np.append(x[:-1:stride], x[-1])
            y = np.append(y[:-1:stride], y[-1])
        if color is None:
            color = _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append((x, y, color, width, dashed, label))

    def add_marker(self, x: float, y: float, color: str = "#000000",
                   radius: float = 4.0):
        self._markers.append((float(x), float(y), color, radius))

    def _limits(self, scale):
        """The limits of the data times scale, each axis widened by _span;
        None without data."""
        xs = [s[0] for s in self._series if s[0].size] + \
             [np.array([m[0]]) for m in self._markers]
        ys = [s[1] for s in self._series if s[1].size] + \
             [np.array([m[1]]) for m in self._markers]
        if not xs:
            return None
        x_lo = min(float(a.min()) for a in xs)
        x_hi = max(float(a.max()) for a in xs)
        y_lo = min(float(a.min()) for a in ys)
        y_hi = max(float(a.max()) for a in ys)
        return (*(scale * v for v in _span(x_lo, x_hi)),
                *(scale * v for v in _span(y_lo, y_hi)))

    def _frame(self, pw, ph, scale):
        """The limits of the data times scale, and the axis limits: those
        padded, or -1 and 1 on both axes without data, and widened to equal
        aspect where asked."""
        data = self._limits(scale)
        if data is None:
            x_lo, x_hi, y_lo, y_hi = data = -1.0, 1.0, -1.0, 1.0
        else:
            x_lo, x_hi, y_lo, y_hi = data
            pad_x = 0.04 * (x_hi - x_lo)
            pad_y = 0.04 * (y_hi - y_lo)
            x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
            y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
        if self.equal_aspect:
            sx, sy = pw / (x_hi - x_lo), ph / (y_hi - y_lo)
            s = min(sx, sy)
            cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
            x_lo, x_hi = cx - 0.5 * pw / s, cx + 0.5 * pw / s
            y_lo, y_hi = cy - 0.5 * ph / s, cy + 0.5 * ph / s
        return data, (x_lo, x_hi, y_lo, y_hi)

    def render(self) -> str:
        ml, mr, mt, mb = 64, 16, 34, 46
        pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
        # Near the largest doubles the spans, the centre or the widened
        # limits can overflow; the frame is then that of the data times
        # 2^-4, an exact scaling that keeps every one of them finite.  Its
        # upward twin: where both spans lie below pw / DBL_MAX, about
        # 2^-1013, an equal-aspect frame's pixel scale overflows and its
        # limits coincide.  Such data lie within about 2^-960 of 0 (a span
        # is at least the spacing of doubles at its ends), so the data times
        # 2^64, exact again, span at least 2^-1010 and stay far from
        # overflow.
        scale = 1.0
        data, frame = self._frame(pw, ph, scale)
        x_lo, x_hi, y_lo, y_hi = frame
        if not all(map(math.isfinite, frame)):
            scale = 0.0625
        elif (x_lo == x_hi or y_lo == y_hi) and max(map(abs, frame)) < _TINY:
            scale = 2.0 ** 64
        if scale != 1.0:
            data, frame = self._frame(pw, ph, scale)
        # Spans of an ulp or so at a normal magnitude, which no scaling
        # widens: the equal-aspect centre and half-width round, which can
        # leave a limit inside the data, or both limits on one value.
        x_lo, x_hi = _around(*frame[:2], *data[:2])
        y_lo, y_hi = _around(*frame[2:], *data[2:])

        def fx(u):  # a frame coordinate, the data times scale, in pixels
            return ml + (u - x_lo) / (x_hi - x_lo) * pw

        def fy(u):
            return mt + (y_hi - u) / (y_hi - y_lo) * ph

        def px(x):
            return fx(x if scale == 1.0 else x * scale)

        def py(y):
            return fy(y if scale == 1.0 else y * scale)

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}" '
               f'font-family="sans-serif" font-size="12">',
               f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="#ffffff" stroke="#555555" stroke-width="1"/>']
        if self.title:
            out.append(f'<text x="{WIDTH // 2}" y="20" '
                       f'text-anchor="middle" font-size="14">{self.title}</text>')
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x_lo + frac * (x_hi - x_lo)
            yv = y_lo + frac * (y_hi - y_lo)
            out.append(f'<text x="{_fmt(fx(xv))}" y="{HEIGHT - mb + 16}" '
                       f'text-anchor="middle">{_tick_label(xv, scale)}</text>')
            out.append(f'<text x="{ml - 6}" y="{_fmt(fy(yv) + 4)}" '
                       f'text-anchor="end">{_tick_label(yv, scale)}</text>')
            out.append(f'<line x1="{_fmt(fx(xv))}" y1="{mt + ph}" '
                       f'x2="{_fmt(fx(xv))}" y2="{mt + ph + 4}" stroke="#555555"/>')
            out.append(f'<line x1="{ml - 4}" y1="{_fmt(fy(yv))}" '
                       f'x2="{ml}" y2="{_fmt(fy(yv))}" stroke="#555555"/>')
        if self.xlabel:
            out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" '
                       f'text-anchor="middle">{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
                       f'transform="rotate(-90 16 {HEIGHT // 2})">'
                       f'{self.ylabel}</text>')

        legend_y = mt + 14
        for x, y, color, width, dashed, label in self._series:
            pts = _points(px(x), py(y))
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="{width}"{dash}/>')
            if label:
                out.append(f'<line x1="{ml + pw - 120}" y1="{legend_y - 4}" '
                           f'x2="{ml + pw - 96}" y2="{legend_y - 4}" '
                           f'stroke="{color}" stroke-width="{width}"{dash}/>')
                out.append(f'<text x="{ml + pw - 90}" y="{legend_y}">{label}</text>')
                legend_y += 16
        for x, y, color, radius in self._markers:
            out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" '
                       f'r="{radius}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def split_wrapped(x, y, jump: float = math.pi):
    """Split a wrapped-angle path into continuous segments (for torus
    phase portraits): a new segment starts wherever either coordinate jumps
    by more than `jump`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        return []
    breaks = np.flatnonzero((np.abs(np.diff(x)) > jump) |
                            (np.abs(np.diff(y)) > jump)) + 1
    return [(xs, ys) for xs, ys in zip(np.split(x, breaks), np.split(y, breaks))
            if xs.size > 1]
