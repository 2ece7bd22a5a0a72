"""Deterministic SVG rendering of patches.

Generic-alpha patches are drawn at the reference value 99 degrees; output
bytes depend only on the patch and the scale.
"""

from __future__ import annotations

import math

from .patch import Patch

PALETTE = {"T": "#f5f0e6", "S": "#7fb3d5"}
STROKE = "#333333"
STROKE_WIDTH = 1.0
MARGIN = 0.6  # in edge units


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def render_svg(patch: Patch, scale: float = 60.0) -> str:
    """SVG drawing of the patch at `scale` pixels per unit edge."""
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, not {scale}")
    rad = patch.alpha.eval_radians()
    polys = []
    xs, ys = [0.0], [0.0]
    for t in patch.tiles:
        pts = t.corner_xy(rad)
        polys.append((t.kind, pts))
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
    y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    w, h = (x1 - x0) * scale, (y1 - y0) * scale

    def to_px(x: float, y: float) -> tuple[float, float]:
        # flip y so the mathematical orientation is upright on screen
        return ((x - x0) * scale, (y1 - y) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<g stroke="{STROKE}" stroke-width="{_fmt(STROKE_WIDTH)}" '
        'stroke-linejoin="round">',
    ]
    for kind, pts in polys:
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in pts)
        )
        out.append(f'<polygon points="{coords}" fill="{PALETTE[kind]}"/>')
    out += ["</g>", "</svg>"]
    return "\n".join(out) + "\n"
