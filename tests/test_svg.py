"""The SVG writer against the per-number writer it replaced, kept here as
the reference: the same bytes for every document, show and scale."""
import cmath
import math
from typing import List, Tuple

import pytest

from hexcircle import cli
from hexcircle.document import load_document
from hexcircle.lattice import parity, sub_to_vertex, to_sub
from hexcircle.pattern_core import PatternParams, ZField, iter_slab_faces
from hexcircle.radius_system import extract_radii, is_pole
from hexcircle.svg import MARGIN, render_svg


def _f(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def reference_render_svg(doc, show="both", scale=100.0) -> str:
    """render_svg as it was written number by number: each coordinate
    through _f, each corner through a closure, the text joined and then
    extended by its last newline."""
    circles: List[Tuple[complex, float]] = []
    vertices = {s: complex(z) for s, z in sorted(doc.vertices.items())}
    assert all(map(cmath.isfinite, vertices.values()))
    if doc.mode == "sg":
        double = PatternParams(doc.params.alphas, doc.params.c)
        radii = extract_radii(ZField(double, vertices, doc.n_max))
        for site, z in vertices.items():
            if parity(site) == 0 and to_sub(site) in radii:
                circles.append((z, radii[to_sub(site)]))
    else:
        for site, r in sorted(doc.radii.items()):
            if sum(site) != 0 or is_pole(r):
                continue
            v = sub_to_vertex(site)
            if v in vertices:
                circles.append((vertices[v], float(r)))
    if doc.mode == "sg":
        quad_sites = [((k, 0, m), (k + 1, 0, m), (k + 1, 0, m - 1), (k, 0, m - 1))
                      for (k, l, m) in vertices]
    else:
        quad_sites = iter_slab_faces(vertices)
    quads = [tuple(vertices[s] for s in sites) for sites in quad_sites
             if all(s in vertices for s in sites)]
    xs = [z.real for z in vertices.values()] + \
         [z.real + s * r for z, r in circles for s in (-1, 1)]
    ys = [z.imag for z in vertices.values()] + \
         [z.imag + s * r for z, r in circles for s in (-1, 1)]
    x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
    y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def tx(z: complex) -> Tuple[float, float]:
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


KINDS = {"hex": ["--c", "1.5"], "sg": ["--c", "1.5", "--mode", "sg"],
         "z2": ["--c", "2", "--mode", "z2"], "log": ["--c", "2", "--mode", "log"]}
PRECISIONS = {"double": [], "dps40": ["--precision", "ext", "--dps", "40"],
              "dps80": ["--precision", "ext", "--dps", "80"]}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("svg")
    paths = {}
    for kind, args in KINDS.items():
        for precision, extra in PRECISIONS.items():
            path = paths[kind, precision] = str(root / f"{kind}-{precision}.pat")
            assert cli.main(["generate", *args, "--n", "7", *extra, "--out", path]) == 0
    return paths


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_render_matches_the_reference_writer(documents, kind, precision):
    path = documents[kind, precision]
    for doc in (load_document(path, doubles=True), load_document(path)):
        for show in ("circles", "quads", "both"):
            for scale in (1e-3, 80.0, 100.0):
                got = render_svg(doc, show=show, scale=scale)
                assert got == reference_render_svg(doc, show=show, scale=scale)
        assert got.count("<polygon") >= 10 and got.count("<circle") >= 10


def test_render_prints_no_negative_zero(documents):
    # a radius a hair below zero prints -0.000000 without the mapping
    doc = load_document(documents["z2", "double"], doubles=True)
    sites = sorted(s for s in doc.radii if sum(s) == 0 and not is_pole(doc.radii[s]))
    tiny, zero, negative = sites[3:6]
    doc.radii[tiny], doc.radii[zero], doc.radii[negative] = -1e-9, -0.0, -0.25
    assert f"{doc.radii[tiny] * 100:.6f}" == "-0.000000"
    for scale in (1e-3, 80.0, 100.0):
        got = render_svg(doc, scale=scale)
        assert got == reference_render_svg(doc, scale=scale)
        assert "-0.000000" not in got
    assert 'r="0.000000"' in got and 'r="-25.000000"' in got


def test_render_coordinates_are_never_negative(documents):
    # the pixel coordinates are measured from the margin of the drawing
    for (kind, precision), path in documents.items():
        svg = render_svg(load_document(path, doubles=True), scale=1e-3)
        numbers = [float(x) for x in svg.replace('"', " ").replace(",", " ").split()
                   if x[:1].isdigit() or x[:1] == "-"]
        assert numbers and min(numbers) >= 0 and not any(map(math.isnan, numbers))
