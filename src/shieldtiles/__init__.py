"""Exact engine for edge-to-edge shield tilings.

Tiles: a unit regular triangle and a "shield" hexagon whose angles
alternate between alpha and beta = 4*pi/3 - alpha, alpha in (pi/3, 2pi/3).
"""

from .alpha import GENERIC, AlphaSpec, make_alpha, parse_alpha
from .atlas import (
    VertexConfig,
    VertexCounts,
    atlas_configs,
    atlas_words,
    exceptional_alphas,
)
from .classify import Classification, classify, fault_lines, vertex_census
from .diskroot import DiskRadius, disk_radius_root
from .generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    gen_triangle_tiling,
)
from .patch import Patch
from .placement import Placement
from .patterns import (
    complete_ball,
    count_patterns,
    dodecagon_fillings,
    entropy_bound,
    is_config_extendable,
)
from .render import render_svg
from .shieldio import load_file, loads, dumps, save_file

__version__ = "0.1.0"

__all__ = [
    "AlphaSpec",
    "Classification",
    "DiskRadius",
    "DodecagonChoice",
    "GENERIC",
    "Patch",
    "Placement",
    "VertexConfig",
    "VertexCounts",
    "atlas_configs",
    "atlas_words",
    "classify",
    "complete_ball",
    "count_patterns",
    "disk_radius_root",
    "dodecagon_fillings",
    "dumps",
    "entropy_bound",
    "exceptional_alphas",
    "fault_lines",
    "gen_dodecagon_tiling",
    "gen_line_tiling",
    "gen_triangle_tiling",
    "is_config_extendable",
    "load_file",
    "loads",
    "make_alpha",
    "parse_alpha",
    "render_svg",
    "save_file",
    "vertex_census",
]
