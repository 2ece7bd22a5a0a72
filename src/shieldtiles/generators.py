"""Window generators for the known tiling families.

All anchor arithmetic is exact; the stacking offsets and lattice vectors
below were located by exhaustive search over small coefficient maps and
are pinned by the test suite (seam vertex census, validation at sampled
angles, classification round trips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .alpha import AlphaSpec
from .errors import MissingChoice, ShieldError
from .patch import Patch
from .placement import Placement
from .patterns import (
    DODECA_CIRCUM,
    RIGHT,
    dodecagon_fillings,
    fill_disk,
    packing_cells,
)
from .symbolic import (
    ANGLE_T,
    OMEGA_POW,
    Direction,
    ExactPoint,
    SymbolicAngle,
    lattice_points,
    same_angle,
    unit_vector,
)

EP = ExactPoint.from_dict
ORIGIN = EP({})

# translation carrying a shield of a line to the next shield of that line
LINE_PERIOD = EP({0: (0, 1), 1: (1, -1)})

# offset from a line's base shield to the base shield of the line above,
# by (sign below, sign above); opposite signs meet in a fault seam
STACK_OFFSET = {
    ("+", "+"): EP({0: (-1, 1), 1: (1, 0)}),
    ("-", "-"): EP({0: (-1, 1), 1: (1, 0)}),
    ("+", "-"): EP({1: (1, 1)}),
    ("-", "+"): EP({0: (-2, 1)}),
}

LINE_HEADING = {"+": Direction.of(0, 0), "-": Direction.of(3, 0)}

# translation between nearest hex centers of the order-k triangle tiling
def hex_lattice_vector(k: int) -> ExactPoint:
    return EP({0: (k + 1, 0), 1: (0, -k)})


def _fill_unit_gaps(patch: Patch):
    """Place the forced triangle wherever an angular gap is exactly pi/3."""
    while True:
        progress = False
        for vid in list(patch.vertex_ids()):
            for (d, sym, _gn) in patch.gaps(vid):
                if same_angle(sym, ANGLE_T, patch.alpha):
                    try:
                        patch.add_tile(Placement("T", patch.vertex_point(vid), d))
                        progress = True
                    except ShieldError:
                        pass
        if not progress:
            return


def gen_line_tiling(word: str, extent: int, alpha: AlphaSpec) -> Patch:
    """Window of stacked shield lines, orientation letters bottom to top.

    Each line holds 2*extent+1 shields joined tip to tip; junction
    triangles and seam triangles are the forced pi/3 fillers.
    """
    if not word or any(c not in "+-" for c in word):
        raise ValueError("orientation word must be a non-empty string of + and -")
    if extent < 1:
        raise ValueError("extent must be >= 1")
    shields = []
    base = ORIGIN
    for i, sign in enumerate(word):
        for k in range(-extent, extent + 1):
            shields.append(
                Placement("S", base + LINE_PERIOD.scaled(k), LINE_HEADING[sign])
            )
        if i + 1 < len(word):
            base = base + STACK_OFFSET[(sign, word[i + 1])]
    patch = Patch.from_tiles(alpha, shields)
    _fill_unit_gaps(patch)
    patch.require_valid()
    patch.freeze()
    return patch


def _grid_triangles(corners) -> list[Placement]:
    """The triangles of the plain grid that have a corner in corners, a
    list of (u, v) points of the {1, w} basis.  Each triangle is placed
    once, anchored at its first corner in the list."""
    rank = {c: i for i, c in enumerate(corners)}
    out = []
    for i, (u, v) in enumerate(corners):
        anchor = EP({0: (u, v)})
        for j in range(6):
            # the triangle of heading j at (u, v) has its other two corners
            # at (u, v) + w^j and (u, v) + w^(j+1)
            others = (OMEGA_POW[j], OMEGA_POW[(j + 1) % 6])
            if all(rank.get((u + du, v + dv), i) >= i for du, dv in others):
                out.append(Placement("T", anchor, Direction.of(j, 0)))
    return out


def _hex_seeds(centers) -> list[Placement]:
    """The six triangles of a hex at each center and the six shields
    around it, center by center.  Neighbouring hexes share shields; each
    tile is listed once, where it first comes, known by its kind and exact
    corner set."""
    out = []
    seen = set()

    def put(pl: Placement):
        key = (pl.kind, frozenset(pl.corner_points()))
        if key not in seen:
            seen.add(key)
            out.append(pl)

    for center in centers:
        for j in range(6):
            put(Placement("T", center, Direction.of(j, 0)))
        for j in range(6):
            put(Placement(
                "S", center + unit_vector(Direction.of(j, 0)),
                Direction.of(4 + j, 0),
            ))
    return out


def gen_triangle_tiling(order, extent: int, alpha: AlphaSpec) -> Patch:
    """Window of the order-k shield triangle tiling around a hex vertex.

    order 0 is the plain triangular grid; math.inf gives the limit tiling
    (realized as a window of a finite order too large for a second hex
    center to be visible).
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    if order == math.inf:
        order = 2 * extent + 1
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a non-negative integer or math.inf")
    rad = alpha.eval_radians()
    if order == 0:
        reach = extent + 2.0
        m = int(reach) + 2
        corners = []
        for u in range(-m, m + 1):
            for v in range(-m, m + 1):
                x, y = EP({0: (u, v)}).xy(rad)
                if math.hypot(x, y) <= reach:
                    corners.append((u, v))
        patch = Patch.from_tiles(alpha, _grid_triangles(corners))
        patch.freeze()
        return patch

    v1 = hex_lattice_vector(order)
    v2 = v1.rotated(SymbolicAngle(1, 0))
    centers = [c for _i, _j, c in lattice_points(v1, v2, extent + 3.0, rad)]
    patch = Patch.from_tiles(alpha, _hex_seeds(centers))
    whitelist = {patch.add_vertex(c) for c in centers}

    def no_stray_hex(p: Patch, _cand, vids) -> bool:
        # three or more triangle corners at a vertex force a hex there
        for v in set(vids):
            if v in whitelist:
                continue
            t_corners = sum(1 for t in p.tiles_at(v) if p.tiles[t].kind == "T")
            if t_corners >= 3:
                return False
        return True

    center_vid = patch.add_vertex(ORIGIN)
    done = fill_disk(patch, center_vid, extent + 0.5, tile_filter=no_stray_hex)
    if not done:
        raise ShieldError("triangle tiling window completion failed")
    patch.require_valid()
    patch.freeze()
    return patch


@dataclass
class DodecagonChoice:
    """Filling index per dodecagon cell of the triangular-grid packing."""

    assignment: dict = field(default_factory=dict)
    default: int | None = None

    @classmethod
    def constant(cls, index: int) -> "DodecagonChoice":
        return cls(assignment={}, default=index)

    def index_for(self, cell) -> int:
        if cell in self.assignment:
            return self.assignment[cell]
        if self.default is not None:
            return self.default
        raise MissingChoice(f"no filling chosen for dodecagon cell {cell}")


def gen_dodecagon_tiling(choice: DodecagonChoice, extent: int) -> Patch:
    """Window of a right-shield tiling built from the dodecagon packing.

    Dodecagons sit on a triangular grid, each filled per `choice`; the
    triangular holes of the packing are the forced pi/3 fillers.
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    fillings = dodecagon_fillings()
    cells = [
        t.translated(base)
        for i, j, base in packing_cells(extent + DODECA_CIRCUM)
        for t in fillings[choice.index_for((i, j))].tiles
    ]
    patch = Patch.from_tiles(RIGHT, cells)
    _fill_unit_gaps(patch)
    patch.require_valid()
    patch.freeze()
    return patch
