"""Deterministic SVG rendering of polygons, pixelations and solutions.

All coordinates are emitted as integers (doubled model units times a fixed
scale), so identical inputs produce byte-identical output.
"""
from __future__ import annotations

from typing import List, Optional

from .exact import Solution
from .geometry import Pixelation, visible_region

_SCALE = 16          # svg units per half model unit
_PAD = 2             # model units of padding


def _tx(pix: Pixelation, x2: int) -> int:
    xl, _, _, _ = pix.polygon.bbox()
    return (x2 - 2 * (xl - _PAD)) * _SCALE


def _ty(pix: Pixelation, y2: int) -> int:
    # flip y so larger model y is up
    _, _, _, yh = pix.polygon.bbox()
    return (2 * (yh + _PAD) - y2) * _SCALE


def _ends(pix: Pixelation, orientation: str, anchor2: int, lo: int, hi: int) -> str:
    """The SVG line ends of an axis-parallel segment on doubled ``anchor2``
    from ``lo`` to ``hi``."""
    if orientation == "V":
        x = _tx(pix, anchor2)
        return f'x1="{x}" y1="{_ty(pix, 2 * lo)}" x2="{x}" y2="{_ty(pix, 2 * hi)}"'
    y = _ty(pix, anchor2)
    return f'x1="{_tx(pix, 2 * lo)}" y1="{y}" x2="{_tx(pix, 2 * hi)}" y2="{y}"'


def render_svg(pix: Pixelation, solution: Optional[Solution] = None) -> str:
    poly = pix.polygon
    xl, yl, xh, yh = poly.bbox()
    width = (xh - xl + 2 * _PAD) * 2 * _SCALE
    height = (yh - yl + 2 * _PAD) * 2 * _SCALE

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">')

    visible = set()
    if solution is not None:
        for cam in solution.cameras:
            visible |= visible_region(pix, cam)

    # polygon body (even-odd fill handles holes)
    path = []
    for ring in poly.rings():
        pts = [f"{_tx(pix, 2 * x)},{_ty(pix, 2 * y)}" for x, y in ring]
        path.append("M " + " L ".join(pts) + " Z")
    out.append(f'<path d="{" ".join(path)}" fill="#f2f2f2" stroke="none" '
               f'fill-rule="evenodd"/>')

    for p in pix.pixels:
        x0, y0, x1, y1 = p.rect
        fill = "#bfdfff" if p.id in visible else "none"
        out.append(
            f'<rect x="{_tx(pix, 2 * x0)}" y="{_ty(pix, 2 * y1)}" '
            f'width="{(x1 - x0) * 2 * _SCALE}" height="{(y1 - y0) * 2 * _SCALE}" '
            f'fill="{fill}" stroke="#999999" stroke-width="1"/>')

    for seg in pix.sigmas:
        out.append(f'<line {_ends(pix, seg.orientation, seg.anchor2, seg.lo, seg.hi)} '
                   f'stroke="#2b7a2b" stroke-width="1" stroke-dasharray="4,3"/>')

    for orientation, anchor, lo, hi in pix.guard_runs:
        out.append(f'<line {_ends(pix, orientation, 2 * anchor, lo, hi)} '
                   f'stroke="#e0a030" stroke-width="1" opacity="0.6"/>')

    for cross in pix.crosses:
        cx, cy = _tx(pix, cross.point2[0]), _ty(pix, cross.point2[1])
        r = _SCALE // 3
        out.append(f'<line x1="{cx - r}" y1="{cy - r}" x2="{cx + r}" y2="{cy + r}" '
                   f'stroke="#444444" stroke-width="1"/>')
        out.append(f'<line x1="{cx - r}" y1="{cy + r}" x2="{cx + r}" y2="{cy - r}" '
                   f'stroke="#444444" stroke-width="1"/>')

    for ring in poly.rings():
        pts = [f"{_tx(pix, 2 * x)},{_ty(pix, 2 * y)}" for x, y in ring]
        out.append(f'<polygon points="{" ".join(pts)}" fill="none" '
                   f'stroke="#000000" stroke-width="3"/>')

    if solution is not None:
        for cam in solution.cameras:
            out.append(f'<line {_ends(pix, cam.orientation, 2 * cam.anchor, cam.lo, cam.hi)} '
                       f'stroke="#cc2222" stroke-width="5" stroke-linecap="round"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
