"""Window generators for the known tiling families.

All anchor arithmetic is exact; the stacking offsets and lattice vectors
below were located by exhaustive search over small coefficient maps and
are pinned by the test suite (seam vertex census, validation at sampled
angles, classification round trips).  The forced triangles of line and
dodecagon windows are listed with their shields and cells, and the test
suite checks them against a closure of every pi/3 gap.
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
    DODECAGON_NORTH,
    DODECAGON_NORTH_60,
    RIGHT,
    dodecagon_fillings,
    fill_disk,
    packing_cells,
)
from .symbolic import (
    OMEGA_POW,
    Direction,
    ExactPoint,
    SymbolicAngle,
    lattice_points,
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

# the two forced triangles at the anchor of a shield that meets the shield
# before it in its line (the one before along LINE_PERIOD on a + line, the
# one after on a - line): the shield's heading turned by alpha and by -pi/3
JUNCTION_TURNS = (SymbolicAngle(0, 1), SymbolicAngle(-1, 0))

# the two forced triangles where a line ends beside the next one, by (sign
# below, sign above): each is the junction triangle JUNCTION_TURNS[turn] at
# shield end*extent + step of the line below (above = 0) or above (1)
SEAM_TRIANGLES = {
    ("+", "+"): ((0, 1, 1, 0), (1, -1, 0, 1)),
    ("+", "-"): ((0, -1, 0, 0), (1, 1, 0, 0)),
    ("-", "+"): ((0, 1, 0, 1), (1, -1, 0, 1)),
    ("-", "-"): ((0, 1, 0, 1), (1, -1, -1, 0)),
}

# the triangle in a hole of the dodecagon packing, placed from the base of
# cell (i, j), with the offsets of the three cells around the hole: the
# hole inside the lattice triangle (i, j), (i + 1, j), (i, j + 1), and the
# one inside (i + 1, j), (i, j + 1), (i + 1, j + 1)
PACKING_HOLES = (
    (Placement("T", DODECAGON_NORTH, Direction.of(1, 1)), ((0, 0), (1, 0), (0, 1))),
    (Placement("T", EP({0: (-2, 3), 1: (2, 2)}), Direction.of(4, 1)),
     ((1, 0), (0, 1), (1, 1))),
)

# translation between nearest hex centers of the order-k triangle tiling
def hex_lattice_vector(k: int) -> ExactPoint:
    return EP({0: (k + 1, 0), 1: (0, -k)})


def gen_line_tiling(word: str, extent: int, alpha: AlphaSpec) -> Patch:
    """Window of stacked shield lines, orientation letters bottom to top.

    Each line holds 2*extent+1 shields joined tip to tip; junction
    triangles and seam triangles are the forced pi/3 fillers.  Every tile
    is listed first and the window is built and validated in one batch.
    """
    if not word or any(c not in "+-" for c in word):
        raise ValueError("orientation word must be a non-empty string of + and -")
    if extent < 1:
        raise ValueError("extent must be >= 1")
    bases = [ORIGIN]
    for pair in zip(word, word[1:]):
        bases.append(bases[-1] + STACK_OFFSET[pair])

    def junction(line: int, k: int, turn: int) -> Placement:
        heading = LINE_HEADING[word[line]].plus(JUNCTION_TURNS[turn])
        return Placement("T", bases[line] + LINE_PERIOD.scaled(k), heading)

    tiles = [
        Placement("S", base + LINE_PERIOD.scaled(k), LINE_HEADING[sign])
        for base, sign in zip(bases, word)
        for k in range(-extent, extent + 1)
    ]
    for line, sign in enumerate(word):
        first = -extent + 1 if sign == "+" else -extent
        tiles += [
            junction(line, k, turn)
            for k in range(first, first + 2 * extent)
            for turn in (0, 1)
        ]
    for line, pair in enumerate(zip(word, word[1:])):
        tiles += [
            junction(line + above, end * extent + step, turn)
            for above, end, step, turn in SEAM_TRIANGLES[pair]
        ]
    patch = Patch.from_tiles(alpha, tiles)
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


def _hex_seeds(centers, order: int) -> list[Placement]:
    """The six triangles of a hex at each center and the six shields
    around it, center by center.

    At order 1 each ring shield is a ring shield of three hexes: shield j
    of a center is shield j + 4 of the center one hex lattice vector
    turned by j*pi/3 away, and shield j + 2 of the center one vector turned
    by (j - 1)*pi/3 away.  It is listed with the first of those centers
    in the list.  At higher orders the hexes share no tile.
    """
    rank = {c: i for i, c in enumerate(centers)}
    v = hex_lattice_vector(order)
    turned = [v.rotated(SymbolicAngle(j, 0)) for j in range(6)] if order == 1 else ()
    out = []
    for i, center in enumerate(centers):
        out += [Placement("T", center, Direction.of(j, 0)) for j in range(6)]
        for j in range(6):
            if turned and any(
                rank.get(center + turned[(j - s) % 6], i) < i for s in (0, 1)
            ):
                continue
            out.append(Placement(
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
    patch = Patch.from_tiles(alpha, _hex_seeds(centers, order))
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
    triangular holes of the packing are the forced pi/3 fillers.  Two
    dodecagons of the window that meet leave a pi/3 gap at each end of
    their common edge, so a hole is filled when two of its three cells are
    in the window.  The window is built and validated in one batch.
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    fillings = dodecagon_fillings()
    cells = packing_cells(extent + DODECA_CIRCUM)
    tiles = [
        t.translated(base)
        for i, j, base in cells
        for t in fillings[choice.index_for((i, j))].tiles
    ]
    present = {(i, j) for i, j, _base in cells}
    # the holes placed from cell (i, j) lie between cells (i, j) to
    # (i + 1, j + 1), so only cells up to one step below a present one
    # place a hole
    near = {(i - di, j - dj) for i, j in present for di in (0, 1) for dj in (0, 1)}
    for i, j in sorted(near):
        base = DODECAGON_NORTH.scaled(i) + DODECAGON_NORTH_60.scaled(j)
        tiles += [
            hole.translated(base)
            for hole, around in PACKING_HOLES
            if sum((i + di, j + dj) in present for di, dj in around) >= 2
        ]
    patch = Patch.from_tiles(RIGHT, tiles)
    patch.freeze()
    return patch
