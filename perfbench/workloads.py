"""The benchmark's workloads: lists of `hexcircle` command lines.

A workload is a list of items.  An item is a short sequence of steps that
must run in order (generate, then verify and render the document it wrote);
the workload seed permutes the order of the items, never their content.
Each step is ``(kind, argv)`` where kind is the CLI subcommand and argv is
exactly what a user would pass to ``hexcircle``; ``{work}`` in an argument
stands for the run's scratch directory.

Every workload also has a smallest version (n = 6, one sweep point), used
for the untimed warm-up pass and by the smoke test.
"""
from __future__ import annotations

import math
from typing import Dict, List, Tuple

Step = Tuple[str, List[str]]
Item = List[Step]

PI_3 = repr(math.pi / 3)
PI_2 = repr(math.pi / 2)

SWEEP_C = ("0.5", "1.0", "1.5", "1.9")
SWEEP_ALPHA = ("iso", "1/4pi,1/4pi,1/2pi", "1/6pi,1/3pi,1/2pi")
SWEEP_MODE = ("hex", "sg")
SWEEP_ANALYZE_ALPHA = (PI_3, PI_2)


def pattern_item(name: str, generate_args: List[str]) -> Item:
    """generate -> verify -> render on one document."""
    doc = "{work}/" + name + ".pat"
    return [
        ("generate", ["generate", *generate_args, "--out", doc]),
        ("verify", ["verify", doc]),
        ("render", ["render", doc, "--out", "{work}/" + name + ".svg"]),
    ]


def analyze_items(c: str, alpha: str) -> List[Item]:
    return [
        [("analyze", ["analyze", "p0", "--c", c, "--alpha", alpha])],
        [("analyze", ["analyze", "riccati", "--c", c, "--alpha", alpha,
                      "--n", "40"])],
        [("analyze", ["analyze", "painleve", "--c", c, "--alpha", alpha,
                      "--n", "20", "--shoot", "10"])],
    ]


def hex_ext(smoke: bool) -> List[Item]:
    n = "6" if smoke else "24"
    return [pattern_item("hex-ext", ["--c", "1.5", "--alpha", "iso", "--n", n,
                                     "--precision", "ext", "--dps", "40"])]


def radius_ext(smoke: bool) -> List[Item]:
    n = "6" if smoke else "48"
    return [pattern_item(f"radius-{mode}",
                         ["--c", "2", "--mode", mode, "--n", n,
                          "--precision", "ext", "--dps", "80"])
            for mode in ("z2", "log")]


def double_sweep(smoke: bool) -> List[Item]:
    grid = [(c, a, m) for c in SWEEP_C for a in SWEEP_ALPHA for m in SWEEP_MODE]
    analyses = [(c, a) for c in SWEEP_C for a in SWEEP_ANALYZE_ALPHA]
    n = "12"
    if smoke:
        # one sweep point, in both modes, so every sweep span is still reached
        grid, analyses, n = grid[:len(SWEEP_MODE)], analyses[:1], "6"
    items = [pattern_item(f"sweep-c{c}-{a.replace('/', '_').replace(',', '+')}-{m}",
                          ["--c", c, "--alpha", a, "--n", n, "--mode", m])
             for c, a, m in grid]
    for c, a in analyses:
        items += analyze_items(c, a)
    return items


WORKLOADS = {
    "hex-ext": hex_ext,
    "radius-ext": radius_ext,
    "double-sweep": double_sweep,
}

# Spans a traced pass of each workload must reach; a traced pass that
# records zero calls on any of them is an error, not a zero.
_COMMON = (
    "cli.main", "verify.run_checks", "verify.max_kite_residual",
    "document.save_document", "document.load_document", "svg.render_svg",
    "numerics.Backend", "numerics.Backend.context",
    "pattern_core.max_face_residual", "radius_system.max_equation_residual",
    "radius_system.extract_radii", "geometry.immersion_check",
)
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "hex-ext": _COMMON + (
        "pattern_core.generate_z", "pattern_core.solve_fourth",
        "pattern_core.max_constraint_residual",
        "pattern_core.max_zero_curvature_residual",
    ),
    "radius-ext": _COMMON + (
        "radius_system.generate_radii", "radius_system.dual",
        "lattice.fill_order", "geometry.reconstruct",
    ),
    "double-sweep": _COMMON + (
        "pattern_core.generate_z", "pattern_core.solve_fourth",
        "pattern_core.max_constraint_residual",
        "pattern_core.max_zero_curvature_residual",
        "radius_system.seeds_from_pattern",
        "geometry.sg_slice", "geometry.sg_immersion_check",
        "painleve.shoot", "painleve.run_trajectory", "painleve.growth_rate",
        "riccati.trajectory", "riccati.p0_via_series",
    ),
}
