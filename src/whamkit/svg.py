"""Standalone top-down trajectory plots as deterministic SVG text."""

from __future__ import annotations

import math

import numpy as np

from .fileio import atomic_write

WIDTH = 640
HEIGHT = 640
PAD = 60.0


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 6.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def render_topdown(path, truth_xz: np.ndarray, pred_xz: np.ndarray, title: str) -> None:
    """Overlay ground-truth and predicted root paths in the ground plane.

    Inputs are (T, 2) arrays of (x, z) world coordinates in meters. The
    file at path is replaced atomically.
    """
    truth_xz = np.asarray(truth_xz, dtype=float)
    pred_xz = np.asarray(pred_xz, dtype=float)
    both = np.concatenate([truth_xz, pred_xz], axis=0)
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    span = max(float((hi - lo).max()), 0.5)
    center = 0.5 * (lo + hi)
    lo = center - 0.55 * span
    scale = (WIDTH - 2 * PAD) / (1.1 * span)

    def to_px(pts):
        x = PAD + (pts[:, 0] - lo[0]) * scale
        # z grows upward in the plot
        y = HEIGHT - PAD - (pts[:, 1] - lo[1]) * scale
        return x, y

    def polyline(pts, color, width):
        x, y = to_px(pts)
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
                f'points="{coords}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{PAD}" y="28" font-family="monospace" font-size="14">{title}</text>',
    ]
    step = _nice_step(1.1 * span)
    tick0 = math.ceil(lo[0] / step) * step
    while tick0 <= lo[0] + 1.1 * span:
        px = PAD + (tick0 - lo[0]) * scale
        parts.append(f'<line x1="{px:.2f}" y1="{HEIGHT - PAD}" x2="{px:.2f}" '
                     f'y2="{HEIGHT - PAD + 6}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{HEIGHT - PAD + 20}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{tick0:.1f}</text>')
        tick0 += step
    tick1 = math.ceil(lo[1] / step) * step
    while tick1 <= lo[1] + 1.1 * span:
        py = HEIGHT - PAD - (tick1 - lo[1]) * scale
        parts.append(f'<line x1="{PAD - 6}" y1="{py:.2f}" x2="{PAD}" y2="{py:.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{PAD - 10}" y="{py + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{tick1:.1f}</text>')
        tick1 += step
    parts.append(f'<line x1="{PAD}" y1="{HEIGHT - PAD}" x2="{WIDTH - PAD}" '
                 f'y2="{HEIGHT - PAD}" stroke="black"/>')
    parts.append(f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{HEIGHT - PAD}" stroke="black"/>')
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 18}" font-family="monospace" '
                 f'font-size="12" text-anchor="middle">x (m)</text>')
    parts.append(f'<text x="18" y="{HEIGHT / 2:.0f}" font-family="monospace" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 18 {HEIGHT / 2:.0f})">z (m)</text>')
    parts.append(polyline(truth_xz, "#888888", 2.5))
    parts.append(polyline(pred_xz, "#1f77b4", 1.8))
    parts.append(f'<text x="{WIDTH - PAD}" y="28" font-family="monospace" font-size="12" '
                 f'text-anchor="end" fill="#888888">truth</text>')
    parts.append(f'<text x="{WIDTH - PAD}" y="44" font-family="monospace" font-size="12" '
                 f'text-anchor="end" fill="#1f77b4">prediction</text>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts) + "\n")
