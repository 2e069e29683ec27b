"""Deterministic SVG export of circle patterns.

Fixed-format coordinates and sorted element order keep the output
byte-identical for identical inputs.  Each vertex is mapped to pixels once,
and each polygon and circle is one %-format of its numbers; the text is
joined once, so it is held in one copy.
"""
from __future__ import annotations

import cmath
import math
from typing import List, Tuple

from .document import PatternDocument
from .lattice import MultiIndex, parity, sub_to_vertex, to_sub
from .pattern_core import PatternParams, ZField, iter_slab_faces
from .radius_system import extract_radii, is_pole


#: blank border around the drawing, in pattern units
MARGIN = 0.6

# one element each, all numbers in fixed six-decimal format
_POLYGON = ('<polygon points="%.6f,%.6f %.6f,%.6f %.6f,%.6f %.6f,%.6f" fill="none" '
            'stroke="#9999bb" stroke-width="1"/>')
_CIRCLE = '<circle cx="%.6f" cy="%.6f" r="%.6f" fill="none" stroke="black" stroke-width="1.5"/>'


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
    circles: List[Tuple[MultiIndex, float]] = []  # (center, radius)
    # sorted, so that every sweep below runs in a fixed order
    vertices = {s: complex(z) for s, z in sorted(doc.vertices.items())}
    for site, z in vertices.items():
        if not cmath.isfinite(z):
            raise NonFiniteError(f"vertex {site} is not finite in double: {z}")
    if doc.mode == "sg":
        # the mean distance to the stored axis neighbours, in doubles
        double = PatternParams(doc.params.alphas, doc.params.c)
        radii = extract_radii(ZField(double, vertices, doc.n_max))
        for site in vertices:
            if parity(site) == 0 and to_sub(site) in radii:
                radius = radii[to_sub(site)]
                if not math.isfinite(radius):
                    raise NonFiniteError(f"circle at {site} has no finite radius")
                circles.append((site, radius))
    else:
        for site, r in sorted(doc.radii.items()):
            if sum(site) != 0 or is_pole(r):
                continue
            radius = float(r)
            if not math.isfinite(radius):
                raise NonFiniteError(f"radius {site} is not finite in double: {r}")
            v = sub_to_vertex(site)
            if v in vertices:
                circles.append((v, radius))
    if doc.mode == "sg":
        quad_sites = [q for q in (((k, 0, m), (k + 1, 0, m), (k + 1, 0, m - 1), (k, 0, m - 1))
                                  for k, l, m in vertices) if all(s in vertices for s in q)]
    else:
        quad_sites = iter_slab_faces(vertices)

    if not circles and not vertices:
        raise ValueError("empty document")
    xs = [z.real for z in vertices.values()] + \
         [vertices[v].real + s * r for v, r in circles for s in (-1, 1)]
    ys = [z.imag for z in vertices.values()] + \
         [vertices[v].imag + s * r for v, r in circles for s in (-1, 1)]
    x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
    y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    if not (0 < scale < math.inf and math.isfinite(width + height)):
        raise ValueError(f"scale {scale} is not finite and positive, or overflows the canvas")

    # pixel coordinates, the vertical axis flipped so positive orientation
    # reads as usual; x0 lies at or below every x and y1 at or above every
    # y, so no coordinate is negative and none prints as -0.000000
    pixel = {s: ((z.real - x0) * scale, (y1 - z.imag) * scale) for s, z in vertices.items()}
    size = (width, height)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="%.6f" height="%.6f" viewBox="0 0 %.6f %.6f">' % (size + size),
             '<rect width="%.6f" height="%.6f" fill="white"/>' % size]
    if show in ("quads", "both"):
        parts += [_POLYGON % (*pixel[a], *pixel[b], *pixel[c], *pixel[d])
                  for a, b, c, d in quad_sites]
    if show in ("circles", "both"):
        for site, r in circles:
            r *= scale
            if r <= 0 and "%.6f" % r == "-0.000000":  # a radius may be negative
                r = 0.0
            parts.append(_CIRCLE % (*pixel[site], r))
    parts.append("</svg>\n")  # joined once: the text is held in one copy
    return "\n".join(parts)
