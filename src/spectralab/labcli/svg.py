"""Minimal deterministic SVG scatter plots for eigenvalue and root clouds."""

from __future__ import annotations

from ..errors import EmptyMeasure, IoError
from ..polycore import canonical_order

__all__ = ["emit_scatter_svg"]

_SIZE = 480.0
_MARGIN_FRACTION = 0.05


def emit_scatter_svg(points, path) -> None:
    """Write a standalone SVG with one circle per point.

    The axes span the points with a 5% margin. Output is byte-deterministic
    for identical input.
    """
    pts = canonical_order(points)
    if pts.size == 0:
        raise EmptyMeasure("no points to plot")
    lox, hix = float(pts.real.min()), float(pts.real.max())
    loy, hiy = float(pts.imag.min()), float(pts.imag.max())
    mx = _MARGIN_FRACTION * max(hix - lox, 1e-9)
    my = _MARGIN_FRACTION * max(hiy - loy, 1e-9)
    xmin, xmax = lox - mx, hix + mx
    ymin, ymax = loy - my, hiy + my
    sx = _SIZE / (xmax - xmin)
    sy = _SIZE / (ymax - ymin)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect width="{_SIZE:.0f}" height="{_SIZE:.0f}" fill="white"/>',
    ]
    for z in pts:
        cx = (float(z.real) - xmin) * sx
        cy = _SIZE - (float(z.imag) - ymin) * sy
        lines.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2" fill="black"/>')
    lines.append("</svg>\n")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
