"""Deterministic SVG export of circle patterns.

Fixed-format coordinates and sorted element order keep the output
byte-identical for identical inputs.
"""
from __future__ import annotations

import cmath
import math
from typing import List, Tuple

from .document import PatternDocument
from .lattice import parity, sub_to_vertex, to_sub
from .pattern_core import PatternParams, ZField, iter_slab_faces
from .radius_system import extract_radii, is_pole


def _f(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


#: blank border around the drawing, in pattern units
MARGIN = 0.6


class NonFiniteError(ArithmeticError):
    """A vertex or radius to draw is not a finite double."""


def render_svg(doc: PatternDocument, show: str = "both", scale: float = 100.0) -> str:
    """SVG 1.1 text for a pattern document.

    show selects circles, quads or both; scale sets pixels per unit length.
    Raises ValueError for a scale that is not finite and positive or a
    canvas whose size overflows, and NonFiniteError, naming the site, for a
    vertex or radius that is not finite in double (an infinite radius is a
    pole, not drawn; a finite one beyond the double range is an error).
    """
    if show not in ("circles", "quads", "both"):
        raise ValueError("show must be circles, quads or both")
    circles: List[Tuple[complex, float]] = []
    # sorted, so that every sweep below runs in a fixed order
    vertices = {s: complex(z) for s, z in sorted(doc.vertices.items())}
    for site, z in vertices.items():
        if not cmath.isfinite(z):
            raise NonFiniteError(f"vertex {site} is not finite in double: {z}")
    if doc.mode == "sg":
        # the mean distance to the stored axis neighbours, in doubles
        double = PatternParams(doc.params.alphas, doc.params.c)
        radii = extract_radii(ZField(double, vertices, doc.n_max))
        for site, z in vertices.items():
            if parity(site) == 0 and to_sub(site) in radii:
                radius = radii[to_sub(site)]
                if not math.isfinite(radius):
                    raise NonFiniteError(f"circle at {site} has no finite radius")
                circles.append((z, radius))
    else:
        for site, r in sorted(doc.radii.items()):
            if sum(site) != 0 or is_pole(r):
                continue
            radius = float(r)
            if not math.isfinite(radius):
                raise NonFiniteError(f"radius {site} is not finite in double: {r}")
            v = sub_to_vertex(site)
            if v in vertices:
                circles.append((vertices[v], radius))
    if doc.mode == "sg":
        quad_sites = [((k, 0, m), (k + 1, 0, m), (k + 1, 0, m - 1), (k, 0, m - 1))
                      for (k, l, m) in vertices]
    else:
        quad_sites = iter_slab_faces(vertices)
    quads = [tuple(vertices[s] for s in sites) for sites in quad_sites
             if all(s in vertices for s in sites)]

    if not circles and not vertices:
        raise ValueError("empty document")
    xs = [z.real for z in vertices.values()] + \
         [z.real + s * r for z, r in circles for s in (-1, 1)]
    ys = [z.imag for z in vertices.values()] + \
         [z.imag + s * r for z, r in circles for s in (-1, 1)]
    x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
    y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    if not (0 < scale < math.inf and math.isfinite(width + height)):
        raise ValueError(f"scale {scale} is not finite and positive, or overflows the canvas")

    def tx(z: complex) -> Tuple[float, float]:
        # flip the vertical axis so positive orientation reads as usual
        return (z.real - x0) * scale, (y1 - z.imag) * scale

    parts: List[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">')
    parts.append(f'<rect width="{_f(width)}" height="{_f(height)}" fill="white"/>')
    if show in ("quads", "both"):
        for quad in quads:
            pts = " ".join("{},{}".format(_f(px), _f(py))
                           for px, py in (tx(z) for z in quad))
            parts.append(f'<polygon points="{pts}" fill="none" '
                         f'stroke="#9999bb" stroke-width="1"/>')
    if show in ("circles", "both"):
        for z, r in circles:
            cx, cy = tx(z)
            parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r * scale)}" '
                         f'fill="none" stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
