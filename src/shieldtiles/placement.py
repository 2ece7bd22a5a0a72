"""Placed tiles: a kind, an anchor corner and a heading.

A tile's shape depends only on its kind and heading.  Its exact corner
offsets from the anchor are computed once per (kind, heading), and the
float steps between its corners and its corner spans once per alpha as
well, in bounded caches; corner_points and corner_xy translate them.
Each placement keeps its exact corners once computed, and its float
geometry at the last alpha asked (see Placement.geometry), so a candidate
that a search tries many times is computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .atlas import LABEL_ANGLES
from .symbolic import HALF_TURN, Direction, ExactPoint, SymbolicAngle, unit_vector

TILE_LABEL_SEQ = {"T": "TTT", "S": "ABABAB"}


@dataclass(frozen=True)
class FloatPoint:
    """Anchor known only numerically (SHIELD/1 `num` form)."""

    x: float
    y: float

    def xy(self, alpha_rad: float) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Placement:
    """One placed tile.

    anchor is a vertex of the tile (any corner of a triangle, a sharp
    A-corner of a shield); heading is the direction of the first boundary
    edge going counterclockwise.  Shield corner labels then alternate
    A,B,A,B,A,B along the walk.
    """

    kind: str  # "T" | "S"
    anchor: ExactPoint | FloatPoint
    heading: Direction
    # exact corners, once corner_points has computed them: a generator that
    # keys a tile by its corners and the patch that places it share them
    _points: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (alpha, *flat polygon, *bounding disc), once geometry has computed them
    _geom: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def labels(self) -> str:
        return TILE_LABEL_SEQ[self.kind]

    @property
    def is_exact(self) -> bool:
        return isinstance(self.anchor, ExactPoint)

    def corner_dirs(self) -> list[tuple[str, Direction, SymbolicAngle]]:
        """Per corner: (label, outgoing edge direction, interior angle)."""
        return _corner_dirs(self.kind, self.heading.a, self.heading.b)

    def corner_points(self) -> tuple[ExactPoint, ...]:
        """Exact corner positions (anchor first); exact anchors only."""
        if self._points is None:
            a = self.anchor
            offsets = _corner_offsets(self.kind, self.heading.a, self.heading.b)
            object.__setattr__(self, "_points", (a, *[a + off for off in offsets]))
        return self._points

    def corner_spans(self, alpha_rad: float) -> tuple[tuple[float, float], ...]:
        """Each corner's angular interval (start, end), start in [0, 2*pi)."""
        return _corner_floats(self.kind, self.heading.a, self.heading.b, alpha_rad)[1]

    def corner_xy(self, alpha_rad: float) -> list[tuple[float, float]]:
        x, y = self.anchor.xy(alpha_rad)
        pts = [(x, y)]
        steps, _spans = _corner_floats(
            self.kind, self.heading.a, self.heading.b, alpha_rad
        )
        for c, s in steps:
            x, y = x + c, y + s
            pts.append((x, y))
        return pts

    def geometry(self, alpha_rad: float) -> tuple:
        """(corner_xy, flat polygon, bounding disc) at alpha_rad: the polygon
        is the corner coordinates in one flat tuple, the disc the mean of
        the corners and the greatest corner distance from it.

        They are kept for the last alpha asked in one flat tuple of floats
        and rebuilt from it on a hit.  The garbage collector soon stops
        tracking a tuple of floats; holding the three results themselves
        makes it collect more often, which slows the bulk builds of large
        windows by 1-2 %.  The caller must not change the results."""
        g = self._geom
        if g is not None and g[0] == alpha_rad:
            flat = g[1:-3]
            return list(zip(flat[0::2], flat[1::2])), flat, g[-3:]
        xys = self.corner_xy(alpha_rad)
        flat = tuple(chain.from_iterable(xys))
        xs, ys = flat[0::2], flat[1::2]
        n = len(xs)
        cx, cy = sum(xs) / n, sum(ys) / n
        r = max([math.hypot(x - cx, y - cy) for x, y in xys])
        object.__setattr__(self, "_geom", (alpha_rad, *flat, cx, cy, r))
        return xys, flat, (cx, cy, r)

    def translated(self, vec: ExactPoint) -> "Placement":
        return Placement(self.kind, self.anchor + vec, self.heading)

    def rotated(self, ang: SymbolicAngle) -> "Placement":
        return Placement(self.kind, self.anchor.rotated(ang), self.heading.plus(ang))

    def reflected(self) -> "Placement":
        """Mirror image across the real axis, re-anchored CCW."""
        if self.kind == "T":
            h = Direction.of(-self.heading.a - 1, -self.heading.b)
        else:
            h = Direction.of(-self.heading.a, -self.heading.b - 1)
        return Placement(self.kind, self.anchor.conj(), h)


@lru_cache(maxsize=4096)
def _corner_dirs(kind, a, b):
    out = []
    d = Direction.of(a, b)
    labels = TILE_LABEL_SEQ[kind]
    for i, lab in enumerate(labels):
        ang = LABEL_ANGLES[lab]
        out.append((lab, d, ang))
        nxt = labels[(i + 1) % len(labels)]
        d = d.plus(HALF_TURN - LABEL_ANGLES[nxt])
    return out


@lru_cache(maxsize=1024)
def _corner_offsets(kind, a, b) -> tuple[ExactPoint, ...]:
    """Exact offsets of the corners after the anchor from the anchor."""
    out = []
    p = ExactPoint()
    for _lab, d, _ang in _corner_dirs(kind, a, b)[:-1]:
        p = p.step(d)
        out.append(p)
    return tuple(out)


@lru_cache(maxsize=1024)
def _corner_floats(kind, a, b, alpha_rad):
    """(steps, spans) of a tile shape at one alpha: the (cos, sin) unit step
    from each corner to the next, and each corner's angular interval
    (start, end), start in [0, 2*pi)."""
    dirs = _corner_dirs(kind, a, b)
    steps = []
    for _lab, d, _ang in dirs[:-1]:
        t = d.value(alpha_rad)
        steps.append((math.cos(t), math.sin(t)))
    spans = []
    for _lab, d, ang in dirs:
        s = d.value(alpha_rad)
        spans.append((s, s + ang.value(alpha_rad)))
    return tuple(steps), tuple(spans)


def placement_with_corner(
    kind: str, corner_index: int, point: ExactPoint, d_out: Direction
) -> Placement:
    """Placement whose corner #corner_index sits at `point` with outgoing
    boundary direction d_out."""
    labels = TILE_LABEL_SEQ[kind]
    # walk backwards from the corner to the anchor
    d = d_out
    p = point
    for i in range(corner_index, 0, -1):
        d = d.plus(LABEL_ANGLES[labels[i]] - HALF_TURN)
        p = p - unit_vector(d)
    return Placement(kind, p, d)


# the tile kind and corner index that put each corner label at a vertex
LABEL_CORNERS = {"T": ("T", 0), "A": ("S", 0), "B": ("S", 1)}


def star_placements(word: str, point: ExactPoint) -> list[Placement]:
    """The tiles of the vertex star with corner word `word` at `point`,
    counterclockwise, the first corner flush at direction 0."""
    d = Direction.of(0, 0)
    out = []
    for lab in word:
        out.append(placement_with_corner(*LABEL_CORNERS[lab], point, d))
        d = d.plus(LABEL_ANGLES[lab])
    return out
