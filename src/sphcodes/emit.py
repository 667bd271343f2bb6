"""CSV and SVG emission for curve families and tables."""

from __future__ import annotations

import numpy as np

from .bounds import BoundCurve

CSV_HEADER = "phi,cos_phi,R,curve"
SVG_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def fmt(x: float) -> str:
    """A human-facing number: 12 significant digits."""
    return f"{x:.12g}"


def csv_row(phi: float, cos_phi: float, rate: float, name: str) -> str:
    """One curve sample as a CSV row."""
    return f"{fmt(phi)},{fmt(cos_phi)},{fmt(rate)},{name}"


def curves_to_csv(curves: list[BoundCurve]) -> str:
    """Rows "phi,cos_phi,R,curve", one per sample."""
    if not curves:
        raise ValueError("no curves to emit")
    lines = [CSV_HEADER]
    for curve in curves:
        lines += [csv_row(phi, np.cos(phi), r, curve.name)
                  for phi, r in zip(curve.phi, curve.rate)]
    return "\n".join(lines) + "\n"


def curves_to_svg(curves: list[BoundCurve]) -> str:
    """A 640x480 plot of R against cos phi: one polyline per curve and a
    small legend."""
    if not curves:
        raise ValueError("no curves to emit")
    width, height, margin = 640, 480, 56
    series = []
    for curve in curves:
        ok = np.isfinite(curve.rate)
        series.append((curve.name, curve.cos_phi[ok], curve.rate[ok]))
    x_min = min(float(np.min(xs)) for _, xs, _ in series)
    x_max = max(float(np.max(xs)) for _, xs, _ in series)
    y_min = min(0.0, min(float(np.min(ys)) for _, _, ys in series))
    y_max = max(float(np.max(ys)) for _, _, ys in series)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x):
        return margin + (x - x_min) / (x_max - x_min) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_min) / (y_max - y_min) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">cos phi</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {height // 2})">R</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">'
        f'{x_min:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="11" '
        f'text-anchor="end">{x_max:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin}" font-size="11" text-anchor="end">'
        f'{y_max:.3g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" font-size="11" '
        f'text-anchor="end">{y_min:.3g}</text>',
    ]
    for idx, (name, xs, ys) in enumerate(series):
        color = SVG_PALETTE[idx % len(SVG_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<line x1="{width - margin - 110}" y1="{ly}" '
            f'x2="{width - margin - 90}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 84}" y="{ly + 4}" font-size="11">'
            f'{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
