"""Tiny self-contained SVG writer: each chart returns its panel, the elements of
one 960 x 360 row, and ``stack_svgs`` writes the one document that stacks them."""

from __future__ import annotations

import numpy as np

_W, _H = 960, 360
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without entities: &, < and > in that order.
    Importing saxutils would load urllib.request, http.client, ssl and email."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(vals, dtype=float) - lo) * (out_hi - out_lo) / span


def _axes(title, x_label, y_label, x_lo, x_hi, y_lo, y_hi):
    parts = [
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 12}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_MARGIN}" y2="{12}" stroke="black"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" font-size="12">{_escape(x_label)}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H // 2})">{_escape(y_label)}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = _MARGIN + frac * (_W - 12 - _MARGIN)
        yp = _H - _MARGIN - frac * (_H - _MARGIN - 12)
        parts.append(f'<text x="{xp:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{_MARGIN - 6}" y="{yp:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
    return parts


def line_chart(x, series, title="", x_label="", y_label="") -> str:
    """Polyline panel; ``series`` is a list of (label, y-array) pairs."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(title, x_label, y_label, float(x.min()), float(x.max()), y_lo, y_hi)
    xp = _scale(x, x.min(), x.max(), _MARGIN, _W - 12)
    for i, (label, y) in enumerate(series):
        yp = _scale(ys[i], y_lo, y_hi, _H - _MARGIN, 12)
        pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(np.column_stack((xp, yp)).ravel().tolist())
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{_W - 140}" y="{28 + 16 * i}" font-size="12" '
                     f'fill="{color}">{_escape(label)}</text>')
    return "\n".join(parts)


def bar_chart(x, heights, title="", x_label="", y_label="") -> str:
    x = np.asarray(x, dtype=float)
    h = np.asarray(heights, dtype=float)
    y_hi = float(h.max()) * 1.05 or 1.0
    parts = _axes(title, x_label, y_label, float(x.min()), float(x.max()), 0.0, y_hi)
    xp = _scale(x, x.min() - 0.5, x.max() + 0.5, _MARGIN, _W - 12)
    width = max(1.0, 0.8 * (_W - 12 - _MARGIN) / max(x.size, 1))
    base = _H - _MARGIN
    tops = _scale(np.maximum(h, 0.0), 0.0, y_hi, base, 12)
    bar = f'<rect x="%.2f" y="%.2f" width="{width:.2f}" height="%.2f" fill="#1f77b4"/>'
    parts.append("\n".join([bar] * x.size) % tuple(
        np.column_stack((xp - width / 2, tops, base - tops)).ravel().tolist()))
    return "\n".join(parts)


def stack_svgs(panels: list[str]) -> str:
    """The SVG document of the chart panels, stacked top to bottom."""
    rows = [f'<g transform="translate(0 {i * _H})">\n{p}\n</g>' for i, p in enumerate(panels)]
    h = _H * len(panels)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{h}" '
            f'viewBox="0 0 {_W} {h}">\n' + "\n".join(rows) + "\n</svg>\n")
