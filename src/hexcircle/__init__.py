"""Hexagonal and square-grid circle patterns of the discrete power map.

Three mutually checking routes: cross-ratio lattice evolution
(pattern_core), radius-function recurrences (radius_system) and closed-form
boundary analysis (painleve, riccati); geometry rebuilds embedded patterns
from radii and certifies immersion.
"""

from .pattern_core import PatternParams, ZField, solve_fourth, axis_next, generate_z
from .radius_system import (RadiusField, PositivityViolation, generate_radii,
                            dual, z2_initial, border_solve, hex_solve,
                            extract_radii)
from .riccati import Boundary, g, p0_closed, p0_via_series
from .painleve import run_trajectory, shoot
from .geometry import reconstruct, immersion_check, sg_slice
from .document import PatternDocument, save_document, load_document
from .verify import run_checks, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "PatternParams", "ZField", "RadiusField", "Boundary",
    "PatternDocument", "VerifyReport", "PositivityViolation",
    "solve_fourth", "axis_next", "generate_z", "generate_radii", "dual",
    "z2_initial", "border_solve", "hex_solve", "extract_radii", "g",
    "p0_closed", "p0_via_series", "run_trajectory", "shoot",
    "reconstruct", "immersion_check", "sg_slice",
    "save_document", "load_document", "run_checks",
]
