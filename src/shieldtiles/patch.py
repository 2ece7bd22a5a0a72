"""Finite edge-to-edge tile arrangements.

A Patch stores placed tiles together with a vertex index (angular corner
intervals per vertex), an edge index, and spatial hashes for the numeric
checks.  A vertex exists exactly while some tile has a corner there.
Vertices are identified by exact coefficient maps for generic alpha.  For
numeric alpha two points are one vertex when both coordinates agree
within GEOM_TOL; the candidates are the vertices in the unit cells that
the point's +-GEOM_TOL box touches, almost always one cell.

Every placement check looks only at nearby tiles.  Edges are unit
segments, so a point can lie on an edge only within 1/2 + GEOM_TOL of its
midpoint; edges are hashed by the unit cell of their midpoint.  Two tiles
can overlap only if their bounding discs meet.  The gaps at each vertex
are kept up to date as tiles come and go.

Tiles come in two ways, under one placement rule:

- add_tile checks one tile against the patch, then places it.  No vertex
  lies strictly inside an edge (add_tile refuses to break that), so it
  tests only what the tile changes: new corners against edges, new edges
  against vertices, the corner intervals at each vertex it shares,
  polygon overlap against the nearby tiles that share no vertex with it,
  and the stars it closes (see add_tile).
- from_tiles places a list of tiles unchecked, then runs validate() once.
  validate() checks the whole patch by add_tile's rule: edges with more
  than two tiles, vertices inside edges, the corner intervals at every
  vertex, polygon overlap only between tiles that share no vertex, and
  every star.  An invalid list is replayed through add_tile, so that
  from_tiles raises what add_tile raises for the first tile at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from . import geomkernel as gk
from .alpha import AlphaSpec
from .atlas import canonical_word
from .errors import (
    AtlasViolation,
    EdgeMismatchError,
    IncompleteCoverage,
    NotValidated,
    OverlapError,
)
from .placement import FloatPoint, Placement
from .symbolic import (
    OMEGA_POW,
    Direction,
    ExactPoint,
    SymbolicAngle,
    full_turn_check,
)

TWO_PI = 2.0 * math.pi
GEOM_TOL = 1e-6  # numeric coincidence tolerance at unit scale
# spatial hash cell for tile-tile checks: a 3x3 block of cells holds every
# tile whose corner mean is within GRID of a point.  A shield's corners lie
# within 2/sqrt(3) of their mean, so two tiles whose bounding discs meet have
# corner means less than 4/sqrt(3) + GEOM_TOL ~ 2.3094 apart.
GRID = 2.32
# corner angles within this of 2*pi close a full turn
TURN_TOL = 1e-7
# a point within GEOM_TOL of a unit edge is this close to its midpoint
NEAR_MID2 = (0.5 + GEOM_TOL) ** 2

@dataclass
class Violation:
    kind: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str):
        self.violations.append(Violation(kind, detail))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"{v.kind}: {v.detail}" for v in self.violations)


class _Vertex:
    __slots__ = ("xy", "intervals")

    def __init__(self, xy):
        self.xy = xy
        # interval: (start_rad, end_rad, start_dir, angle, tile_idx, label),
        # in the order the tiles were placed; the first tile made the vertex
        self.intervals: list[tuple] = []


class Patch:
    """A growing or frozen finite edge-to-edge arrangement."""

    def __init__(self, alpha: AlphaSpec):
        self.alpha = alpha
        self.eval_rad = alpha.eval_radians()
        self.exact_keys = alpha.kind == "generic"
        self.tiles: list[Placement] = []
        self._tile_vids: list[tuple[int, ...]] = []
        self._tile_polys: list[tuple] = []
        self._vertices: list[_Vertex] = []
        self._key2vid: dict = {}
        self._edges: dict[tuple[int, int], list[int]] = {}
        # unit cell of an edge's midpoint -> [(mx, my, ax, ay, bx, by, edge)]
        self._mid: dict[tuple[int, int], list[tuple]] = {}
        # per tile: mean of its corners and greatest corner distance from it
        self._tile_discs: list[tuple[float, float, float]] = []
        self._grid: dict[tuple[int, int], list[int]] = {}
        self._vgrid: dict[tuple[int, int], list[int]] = {}
        # vid -> (gaps, index in the sorted intervals of the one before each
        # gap); dropped whenever the vertex's intervals change
        self._gap_cache: dict[int, tuple] = {}
        self._frozen = False
        # the report of validate(), kept while it holds: once validate() has
        # found the patch valid, add_tile and pop_tile keep it so
        self._report: ValidationReport | None = None

    @classmethod
    def from_tiles(cls, alpha: AlphaSpec, placements) -> "Patch":
        """The patch of the given tiles, placed in order unchecked and then
        validated once.  The report is kept, so validate() costs nothing
        while tiles are added and popped through add_tile and pop_tile.

        A patch that fails raises what add_tile raises, adding the same
        tiles one by one: the tiles are replayed through add_tile, which
        refuses the first tile at fault.  validate() and add_tile share one
        placement rule, so the replay runs only for an invalid patch.
        """
        placements = list(placements)
        patch = cls(alpha)
        for pl in placements:
            geom, pts = patch._corners(pl)
            patch._commit(pl, geom, pts, patch._locate(geom[0], pts))
        if not patch.validate().ok:
            replay = cls(alpha)
            for pl in placements:
                replay.add_tile(pl)
            patch.require_valid()  # reached only if the two rules disagree
        return patch

    # -- vertex identification ------------------------------------------

    def _find_vid(self, xy, point):
        if self.exact_keys:
            return self._key2vid.get(point.coeffs)
        x, y = xy
        for vid in self._vids_near(x, y, GEOM_TOL):
            ex, ey = self._vertices[vid].xy
            if abs(ex - x) < GEOM_TOL and abs(ey - y) < GEOM_TOL:
                return vid
        return None

    def _make_vid(self, xy, point):
        """Id of a new vertex at a point that _find_vid has just missed."""
        vid = len(self._vertices)
        self._vertices.append(_Vertex(xy))
        if self.exact_keys:
            self._key2vid[point.coeffs] = vid
        self._vgrid.setdefault((math.floor(xy[0]), math.floor(xy[1])), []).append(vid)
        return vid

    def _locate(self, xys, pts) -> tuple[int, ...]:
        """Vertex ids of a tile's corners.  A corner not in the patch yet
        gets the id that _commit will give it (the corners of one tile never
        coincide)."""
        vids = []
        next_vid = len(self._vertices)
        for xy, pt in zip(xys, pts):
            vid = self._find_vid(xy, pt)
            if vid is None:
                vid = next_vid
                next_vid += 1
            vids.append(vid)
        return tuple(vids)

    # -- geometry helpers ------------------------------------------------

    def _corners(self, pl: Placement):
        """(Placement.geometry, exact corner points or Nones) of a tile.

        Only generic alpha identifies vertices by their exact points; a
        numeric patch computes a vertex's point when vertex_point asks."""
        if not pl.is_exact and self.exact_keys:
            raise ValueError("numeric anchors require numeric alpha")
        geom = pl.geometry(self.eval_rad)
        pts = pl.corner_points() if self.exact_keys else (None,) * len(geom[0])
        return geom, pts

    def _tile_ids_near(self, x, y):
        cx, cy = math.floor(x / GRID), math.floor(y / GRID)
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out.extend(self._grid.get((cx + dx, cy + dy), ()))
        return out

    def _vids_near(self, x, y, r):
        """Vertices in the unit cells that the box (x, y) +- r touches."""
        return _in_cells(self._vgrid, x, y, r)

    def _inside_some_edge(self, x, y, vid=None) -> bool:
        """True iff (x, y) lies strictly inside an edge of the patch.

        (x, y) is the point of vertex vid, if given; its own edges end at
        it and are passed over."""
        near = _in_cells(self._mid, x, y, 0.5 + GEOM_TOL)
        for mx, my, ax, ay, bx, by, ek in near:
            ux, uy = x - mx, y - my
            if vid not in ek and ux * ux + uy * uy <= NEAR_MID2 and (
                _strictly_inside(x, y, ax, ay, bx, by)
            ):
                return True
        return False

    def _vertex_inside_edge(self, ax, ay, bx, by) -> bool:
        """True iff a vertex of the patch lies strictly inside edge ab."""
        mx, my = (ax + bx) / 2, (ay + by) / 2
        for vid in self._vids_near(mx, my, 0.5 + GEOM_TOL):
            px, py = self._vertices[vid].xy
            ux, uy = px - mx, py - my
            if ux * ux + uy * uy <= NEAR_MID2 and _strictly_inside(
                px, py, ax, ay, bx, by
            ):
                return True
        return False

    def _discs_meeting(self, disc, ids):
        """Tiles among ids whose bounding disc meets disc, within GEOM_TOL.

        disc is (cx, cy, r), as made by Placement.geometry."""
        cx, cy, r = disc
        for tid in ids:
            ox, oy, orad = self._tile_discs[tid]
            reach = r + orad + GEOM_TOL
            if (ox - cx) ** 2 + (oy - cy) ** 2 < reach * reach:
                yield tid

    def _overlaps(self, flat, disc, ids):
        """Tiles among ids whose interior meets the polygon flat.

        disc is (cx, cy, r) with every corner of flat within r of (cx, cy);
        a tile whose disc it does not meet is passed over."""
        for tid in self._discs_meeting(disc, ids):
            if gk.convex_overlap(flat, self._tile_polys[tid], GEOM_TOL):
                yield tid

    # -- construction ------------------------------------------------------

    def add_tile(self, pl: Placement) -> tuple[int, ...]:
        """Place a tile; raises and leaves the patch unchanged on conflict.

        Returns the vertex ids of the tile corners.

        No vertex of the patch lies strictly inside an edge: add_tile
        refuses a corner or an edge that would break this.  So three tests
        are left out, each of which could only find what the invariant
        rules out or what another test has ruled out already:

        - the corner-inside-edge test of a corner that lands on a vertex
          of the patch: the corner is that vertex, which lies inside no
          edge;
        - the vertex-inside-edge test of an edge already in the patch: it
          was tested against every vertex when it came in, and every vertex
          made since was tested against every edge;
        - the polygon overlap test against a tile with a corner at one of
          this tile's vertices.  A convex tile lies inside the cone of its
          corner at a vertex, and the angular test at that vertex has found
          the two cones disjoint.
        """
        if self._frozen:
            raise ValueError("patch is frozen")
        geom, pts = self._corners(pl)
        xys, flat, disc = geom
        vids = self._locate(xys, pts)
        old = len(self._vertices)

        # -- checks on a scratch view (no mutation yet) --
        n = len(vids)
        # edge usage; a new vertex is in no edge yet
        edge_tiles = []
        for i in range(n):
            u, v = vids[i], vids[(i + 1) % n]
            ek = (u, v) if u < v else (v, u)
            ts = self._edges.get(ek)
            if ts is not None and len(ts) >= 2:
                raise OverlapError(f"edge {ek} already shared by two tiles")
            edge_tiles.append(ts)
        # T-junctions: new corners against old edges, old corners
        # against new edges
        for xy, vid in zip(xys, vids):
            if vid >= old and self._inside_some_edge(*xy):
                raise EdgeMismatchError("tile corner lands inside an existing edge")
        for i in range(n):
            if edge_tiles[i] is None and self._vertex_inside_edge(
                *xys[i], *xys[(i + 1) % n]
            ):
                raise EdgeMismatchError("existing vertex lies inside a new edge")
        # angular overlap at shared vertices; this also refuses a duplicate
        spans = pl.corner_spans(self.eval_rad)
        sharing = set()  # tiles with a corner at a vertex of this one
        for (s, e), vid in zip(spans, vids):
            if vid < old:
                for iv in self._vertices[vid].intervals:
                    if _circular_overlap(s, e, iv[0], iv[1]) > GEOM_TOL:
                        raise OverlapError("angular overlap at a shared vertex")
                    sharing.add(iv[4])
        # polygon overlap against the other nearby tiles
        near = [
            t for t in self._tile_ids_near(disc[0], disc[1]) if t not in sharing
        ]
        tid = next(self._overlaps(flat, disc, near), None)
        if tid is not None:
            raise OverlapError(f"interior overlap with tile {tid}")
        # tentative stars at the vertices already in the patch
        tidx = len(self.tiles)
        for (lab, d_out, ang), (s, e), vid in zip(pl.corner_dirs(), spans, vids):
            if vid >= old:
                continue
            ivs = self._vertices[vid].intervals + [(s, e, d_out, ang, tidx, lab)]
            fault = self._star_verdict(ivs)
            if fault == "overlap":
                raise OverlapError("corner angles exceed a full turn")
            if fault == "atlas":
                raise AtlasViolation(f"interior star {_star_word(ivs)} not in atlas")

        # add_tile applies validate()'s rule, so a valid patch stays valid
        report = self._report
        vids = self._commit(pl, geom, pts, vids)
        if report is not None and report.ok:
            self._report = report
        return vids

    def _commit(self, pl, geom, pts, vids):
        """Place a tile unchecked at the vertex ids that _locate gave it,
        dropping the kept report.

        An edge and a vertex each keep their tiles in the order they came,
        so the last tile placed is the last one at each of its edges and
        vertices."""
        xys, flat, disc = geom
        old = len(self._vertices)
        for xy, pt, vid in zip(xys, pts, vids):
            if vid >= old:
                # new vertices are made in the order of their tentative ids
                self._make_vid(xy, pt)
        tidx = len(self.tiles)
        self.tiles.append(pl)
        self._tile_vids.append(vids)
        self._tile_polys.append(flat)
        self._tile_discs.append(disc)
        n = len(vids)
        for i in range(n):
            j = (i + 1) % n
            u, v = vids[i], vids[j]
            ek = (u, v) if u < v else (v, u)
            ts = self._edges.get(ek)
            if ts is None:
                self._edges[ek] = [tidx]
                mcell, seg = _mid_entry(*xys[i], *xys[j], ek)
                self._mid.setdefault(mcell, []).append(seg)
            else:
                ts.append(tidx)
        spans = pl.corner_spans(self.eval_rad)
        for (lab, d_out, ang), (s, e), vid in zip(pl.corner_dirs(), spans, vids):
            self._vertices[vid].intervals.append((s, e, d_out, ang, tidx, lab))
            self._gap_cache.pop(vid, None)
        cell = (math.floor(disc[0] / GRID), math.floor(disc[1] / GRID))
        self._grid.setdefault(cell, []).append(tidx)
        self._report = None
        return vids

    def pop_tile(self):
        """Undo the most recent add_tile.

        Tiles leave last in, first out, so the popped tile is the last one
        at each of its edges and vertices.  The vertices it made are the
        last ones, and exactly those it leaves with no tile; an edge it
        leaves with no tile came in with it, from its corners.

        A valid patch stays valid: a removed tile takes away edges, corners
        and the vertices that it alone made, so no edge gains a tile, no
        vertex comes inside an edge, no two corners come to overlap and no
        star grows, and two tiles that shared a vertex still share it."""
        if self._frozen:
            raise ValueError("patch is frozen")
        pl = self.tiles.pop()
        vids = self._tile_vids.pop()
        poly = self._tile_polys.pop()
        cx, cy, _r = self._tile_discs.pop()
        n = len(vids)
        for i in range(n):
            u, v = vids[i], vids[(i + 1) % n]
            ek = (u, v) if u < v else (v, u)
            ts = self._edges[ek]
            ts.pop()
            if ts:
                continue
            del self._edges[ek]
            j = (i + 1) % n
            mcell, seg = _mid_entry(
                *poly[2 * i:2 * i + 2], *poly[2 * j:2 * j + 2], ek
            )
            self._mid[mcell].remove(seg)
        for vid in vids:
            self._vertices[vid].intervals.pop()
            self._gap_cache.pop(vid, None)
        self._grid[(math.floor(cx / GRID), math.floor(cy / GRID))].pop()
        verts = self._vertices
        while verts and not verts[-1].intervals:
            x, y = verts.pop().xy
            self._vgrid[(math.floor(x), math.floor(y))].pop()
        if self.exact_keys:
            for pt, vid in zip(pl.corner_points(), vids):
                if vid >= len(verts):
                    del self._key2vid[pt.coeffs]
        if self._report is not None and not self._report.ok:
            self._report = None

    def freeze(self):
        self._frozen = True

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tiles)

    def vertex_at(self, point) -> int:
        """Id of the vertex at a point; KeyError where no tile has a
        corner."""
        vid = self._find_vid(point.xy(self.eval_rad), point)
        if vid is None:
            raise KeyError(f"no tile has a corner at {point}")
        return vid

    def vertex_ids(self) -> range:
        return range(len(self._vertices))

    def vertex_xy(self, vid: int):
        return self._vertices[vid].xy

    def vertex_point(self, vid: int):
        """The exact point of a vertex: the corner there of its first tile,
        the one that made it; None if that tile has a numeric anchor."""
        tid = self._vertices[vid].intervals[0][4]
        pl = self.tiles[tid]
        if not pl.is_exact:
            return None
        return pl.corner_points()[self._tile_vids[tid].index(vid)]

    def tile_vertices(self, tid: int) -> tuple[int, ...]:
        """Vertex ids of a tile's corners, anchor first."""
        return self._tile_vids[tid]

    def shared_edges(self):
        """Edges between two tiles, as ((u, v), (tile, tile)) with u < v."""
        return ((ek, tuple(ts)) for ek, ts in self._edges.items() if len(ts) == 2)

    def tiles_at(self, vid: int) -> set[int]:
        """Indices of the tiles with a corner at a vertex."""
        return {iv[4] for iv in self._vertices[vid].intervals}

    def tiles_touching(self, pl: Placement):
        """Indices of the placed tiles whose bounding disc meets pl's, within
        GEOM_TOL.  Every check of add_tile looks at no other tile: an
        overlap, a shared edge, a corner on an edge or a corner at a shared
        vertex each puts a point of the other tile on pl's disc."""
        disc = pl.geometry(self.eval_rad)[2]
        return self._discs_meeting(disc, self._tile_ids_near(disc[0], disc[1]))

    def interior_word(self, vid: int) -> str | None:
        """Canonical corner word of a closed star, else None."""
        ivs = self._vertices[vid].intervals
        return _star_word(ivs) if _closes(ivs) else None

    def _star_verdict(self, ivs) -> str | None:
        """The fault of the corner intervals ivs around one vertex.

        "overlap" when the corners exceed a full turn, "atlas" when they
        close it within TURN_TOL but their angles do not solve the vertex
        equation (the atlas holds every arrangement of every solution),
        else None.  Only a decimal alpha within about 1e-7 rad of a special
        value can close a star that the equation, exact to 1e-9, rejects.
        The corner word is left to _star_word, for the callers that read it.
        """
        total = sum(iv[1] - iv[0] for iv in ivs)
        if total > TWO_PI + TURN_TOL:
            return "overlap"
        if abs(total - TWO_PI) >= TURN_TOL:
            return None
        legal = full_turn_check((iv[3] for iv in ivs), self.alpha)
        return None if legal else "atlas"

    def gaps(self, vid: int) -> tuple[tuple[Direction, SymbolicAngle, float], ...]:
        """Open angular gaps at a vertex: (start direction, extent, extent rad).

        The start direction of a gap is the end ray of the interval that
        precedes it counterclockwise.
        """
        return self._gap_scan(vid)[0]

    def _gap_scan(self, vid: int) -> tuple:
        """(gaps, index in the sorted intervals of the one before each gap)."""
        scan = self._gap_cache.get(vid)
        if scan is None:
            scan = self._gap_cache[vid] = self._scan_gaps(vid)
        return scan

    def _scan_gaps(self, vid: int) -> tuple:
        ivs = sorted(self._vertices[vid].intervals)
        if _closes(ivs):
            return _NO_GAPS
        gaps = []
        after = []
        m = len(ivs)
        for i in range(m):
            s, e, start, ang, _t, _lab = ivs[i]
            nxt = ivs[(i + 1) % m]
            gap_num = (nxt[0] - e) % TWO_PI
            # values within rounding error of 0 or 2*pi mean no gap
            if gap_num < TURN_TOL or gap_num > TWO_PI - TURN_TOL:
                continue
            end_dir = start.plus(ang)
            raw = nxt[2].minus(end_dir)
            # normalize the symbolic extent to match the numeric gap
            k = round((gap_num - raw.value(self.eval_rad)) / TWO_PI)
            gaps.append((end_dir, SymbolicAngle(raw.a + 6 * k, raw.b), gap_num))
            after.append(i)
        return tuple(gaps), tuple(after)

    def boundary_edges(self) -> list[tuple[int, int]]:
        """Edges with exactly one tile."""
        return [ek for ek, ts in self._edges.items() if len(ts) == 1]

    def star_blocks(self, vid: int):
        """Cyclic (word | gap) blocks at a vertex, for atlas matching."""
        ivs = sorted(self._vertices[vid].intervals)
        gaps, after = self._gap_scan(vid)
        blocks = []
        run = ""
        k = 0
        for i, iv in enumerate(ivs):
            run += iv[5]
            if k < len(after) and after[k] == i:
                blocks.append(("word", run))
                blocks.append(("gap", gaps[k][1]))
                run = ""
                k += 1
        if run:
            # the star wraps with no gap at the seam: merge into first block
            if blocks and blocks[0][0] == "word":
                blocks[0] = ("word", run + blocks[0][1])
            else:
                blocks.insert(0, ("word", run))
        return blocks

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the whole patch by add_tile's placement rule.

        Faults: an edge with more than two tiles, a vertex strictly inside
        an edge, two corner intervals that overlap at a vertex, two tiles
        that share no vertex but overlap, and a star that exceeds a full
        turn or closes it off the atlas.  Tiles that share a vertex get no
        polygon test: each lies in the cone of its corner there, so the
        interval test has decided them.  The report is kept while it holds
        (see add_tile and pop_tile); tiles placed unchecked drop it.
        """
        if self._report is not None:
            return self._report
        rep = ValidationReport()
        # every tile's boundary walk closes by construction: a shield's edge
        # directions d + {0, 2, 4}*pi/3 and d + alpha + {-1, 1, 3}*pi/3, and a
        # triangle's three, are triples of unit vectors summing to 0
        for ek, ts in self._edges.items():
            if len(ts) > 2:
                rep.add("edge_overuse", f"edge {ek} has {len(ts)} tiles")
        for vid, v in enumerate(self._vertices):
            if self._inside_some_edge(*v.xy, vid):
                rep.add("t_junction", f"vertex {vid} lies inside an edge")
            ivs = v.intervals
            if _cones_may_meet(ivs):
                for i, a in enumerate(ivs):
                    for b in ivs[i + 1:]:
                        if _circular_overlap(a[0], a[1], b[0], b[1]) > GEOM_TOL:
                            rep.add(
                                "overlap",
                                f"tiles {a[4]} and {b[4]} overlap at vertex {vid}",
                            )
            fault = self._star_verdict(ivs)
            if fault == "overlap":
                rep.add("overlap", f"vertex {vid} corners exceed a full turn")
            elif fault == "atlas":
                rep.add("atlas", f"vertex {vid} star {_star_word(ivs)} not in atlas")
        blocks = {}  # tile grid cell -> the tiles of its 3x3 block
        discs, polys, tile_vids = self._tile_discs, self._tile_polys, self._tile_vids
        for i, (cx, cy, r) in enumerate(discs):
            cell = (math.floor(cx / GRID), math.floor(cy / GRID))
            block = blocks.get(cell)
            if block is None:
                block = blocks[cell] = self._tile_ids_near(cx, cy)
            # the disc test of _discs_meeting, inlined, comes first: most
            # tiles of a block are out of reach, and only a tile within
            # reach is asked whether it shares a vertex
            vids = set(tile_vids[i])
            for j in block:
                if j >= i:
                    continue
                ox, oy, orad = discs[j]
                reach = r + orad + GEOM_TOL
                if (
                    (ox - cx) ** 2 + (oy - cy) ** 2 < reach * reach
                    and vids.isdisjoint(tile_vids[j])
                    and gk.convex_overlap(polys[i], polys[j], GEOM_TOL)
                ):
                    rep.add("overlap", f"tiles {j} and {i} overlap")
        self._report = rep
        return rep

    def require_valid(self):
        if not self.validate().ok:
            raise NotValidated(str(self._report))

    # -- pattern balls ---------------------------------------------------

    def extract_ball(self, vid: int, n: float) -> "PatternBall":
        """All tiles whose closed region meets the closed disk of radius n.

        Raises IncompleteCoverage unless every tile that could meet the
        disk is determined, i.e. no patch-boundary edge comes within n of
        the center.
        """
        cx, cy = self._vertices[vid].xy
        for (u, v) in self.boundary_edges():
            ax, ay = self._vertices[u].xy
            bx, by = self._vertices[v].xy
            if gk.point_segment_dist(cx, cy, ax, ay, bx, by) <= n + GEOM_TOL:
                raise IncompleteCoverage(
                    f"patch boundary within radius {n} of the center"
                )
        tiles = [
            pl
            for pl, poly in zip(self.tiles, self._tile_polys)
            if gk.poly_point_dist(poly, cx, cy) <= n + 1e-9
        ]
        return PatternBall(
            alpha=self.alpha,
            center=self.vertex_point(vid),
            center_xy=(cx, cy),
            radius=n,
            tiles=tuple(tiles),
        )


_NO_GAPS = ((), ())


def _closes(ivs) -> bool:
    """True when the corner intervals ivs around one vertex close a full
    turn within TURN_TOL."""
    return abs(sum(iv[1] - iv[0] for iv in ivs) - TWO_PI) < TURN_TOL


def _star_word(ivs) -> str:
    """Canonical corner word of the corner intervals ivs around one vertex."""
    return canonical_word("".join(iv[5] for iv in sorted(ivs)))


def _in_cells(table, x, y, r):
    """Entries of the unit cells of table that the box (x, y) +- r touches.

    A box in one cell gets that cell's own list: iterate over it, but do
    not keep it or change the table meanwhile."""
    x0, x1 = math.floor(x - r), math.floor(x + r)
    y0, y1 = math.floor(y - r), math.floor(y + r)
    if x0 == x1 and y0 == y1:
        return table.get((x0, y0), ())
    out = []
    for cx in range(x0, x1 + 1):
        for cy in range(y0, y1 + 1):
            out.extend(table.get((cx, cy), ()))
    return out


def _mid_entry(ax, ay, bx, by, ek):
    """Midpoint-index cell and entry of the edge ek from a to b."""
    mx, my = (ax + bx) / 2, (ay + by) / 2
    return (math.floor(mx), math.floor(my)), (mx, my, ax, ay, bx, by, ek)


def _strictly_inside(px, py, ax, ay, bx, by) -> bool:
    """True iff the point lies on segment ab, away from both ends."""
    # the end tests first: a point tested against an edge is most often
    # one of its ends
    return (
        math.hypot(px - ax, py - ay) > GEOM_TOL
        and math.hypot(px - bx, py - by) > GEOM_TOL
        and gk.point_segment_dist(px, py, ax, ay, bx, by) < GEOM_TOL
    )


def _circular_overlap(s1, e1, s2, e2) -> float:
    """Overlap length of two angular intervals given as (start, start+len)."""
    best = 0.0
    for shift in (-TWO_PI, 0.0, TWO_PI):
        lo = max(s1, s2 + shift)
        hi = min(e1, e2 + shift)
        if hi - lo > best:
            best = hi - lo
    return best


def _cones_may_meet(ivs) -> bool:
    """False when no two of the corner intervals ivs at one vertex overlap
    by more than GEOM_TOL.

    Sorted by start, each interval must end by the start of the next, and
    the last by the start of the first a turn later, each within GEOM_TOL.
    Then each interval ends, within GEOM_TOL, before every later start and
    every start a turn later, so no shift of _circular_overlap finds more.
    """
    if len(ivs) < 2:
        return False
    ivs = sorted(ivs)
    end = ivs[-1][1] - TWO_PI
    for iv in ivs:
        if end > iv[0] + GEOM_TOL:
            return True
        end = iv[1]
    return False


# ---------------------------------------------------------------------------
# Pattern balls and canonical keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternBall:
    """The sub-patch of tiles within distance `radius` of a center vertex.

    Its keys code each tile by its kind and its corner points, relative to
    the center (see `canonical_key`): the exact center for generic alpha,
    center_xy for numeric alpha.  The ball codes its frames once, on the
    first call of key() or orbit_translation_keys(), and keeps the codes.
    """

    alpha: AlphaSpec
    center: ExactPoint | FloatPoint | None
    center_xy: tuple[float, float]
    radius: float
    tiles: tuple[Placement, ...]
    # the codes of the ball in every frame of canonical_key, once computed
    _frames: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    def key(self) -> str:
        return canonical_key(self)

    def translation_key(self) -> str:
        """Pattern identity up to translation only (no rotation/reflection)."""
        return canonical_key(self, rotations=False)

    def orbit_translation_keys(self) -> frozenset:
        """Translation keys of every image of the ball under the point
        isometries compatible with its own edge directions."""
        return _orbit(self)


def _orbit(ball: PatternBall) -> frozenset:
    """The ball's codes in every frame, coded on first use and kept."""
    if ball._frames is None:
        object.__setattr__(ball, "_frames", frozenset(_key_candidates(ball, True)))
    return ball._frames


def canonical_key(ball: PatternBall, rotations: bool = True) -> str:
    """Canonical string equal for two balls iff they are isometric.

    The least image of the ball over a finite frame set (McKay, J.
    Algorithms 26, 1998).  Each frame turns one of the tiles' edge
    directions onto the x axis, for the ball and for its mirror image, with
    the center at the origin.  The set moves with the ball, so isometric
    balls have the same images, and the images are the ball's orbit
    translation keys.  With rotations=False the only frame is the ball as
    it lies, which keys it up to translation.

    In a frame, a tile is written as its kind and its sorted corner codes.
    A convex polygon is the hull of its corners, so the corner set fixes
    the tile, whatever corner it is anchored at.  A corner is coded by its
    exact coefficient map for generic alpha and by its coordinates rounded
    to 6 decimals otherwise.
    """
    if rotations:
        return min(_orbit(ball))
    return min(_key_candidates(ball, False))


def _key_candidates(ball: PatternBall, rotations: bool) -> list[str]:
    """The code of the ball in each frame of `canonical_key`.

    Each distinct corner point is transformed and coded once per frame.
    Only the point transform and the point code depend on alpha; for
    numeric alpha, frames of the same angle are merged.
    """
    exact = ball.alpha.kind == "generic"
    rad = None if exact else ball.alpha.eval_radians()
    index: dict = {}  # point (rounded when numeric) -> position in pts
    pts = []
    tiles = []  # (kind and "|", getter of the tile's corner codes)
    dirs = set()
    for t in ball.tiles:
        ids = []
        for p in t.corner_points() if exact else t.geometry(rad)[0]:
            k = p if exact else (round(p[0], 6), round(p[1], 6))
            if k not in index:
                index[k] = len(pts)
                pts.append(p)
            ids.append(index[k])
        tiles.append((t.kind + "|", itemgetter(*ids)))
        dirs.update(d for _lab, d, _ang in t.corner_dirs())
    if exact:
        pts = [p - ball.center for p in pts]
    else:
        cx, cy = ball.center_xy
        pts = [(x - cx, y - cy) for x, y in pts]
    variants = [(pts, dirs if rotations else {Direction(0, 0)})]
    if rotations:
        # mirroring reverses each tile's walk: edge direction d becomes pi - d
        mirror = [p.conj() for p in pts] if exact else [(x, -y) for x, y in pts]
        variants.append((mirror, {Direction.of(3 - d.a, -d.b) for d in dirs}))
    out = []
    for vpts, vdirs in variants:
        if not exact:
            vdirs = {round(d.value(rad), 9): d for d in vdirs}.values()
        for d in vdirs:
            codes = _frame_codes(vpts, d, rad)
            out.append(";".join(sorted([
                kind + "/".join(sorted(get(codes))) for kind, get in tiles
            ])))
    return out


def _frame_codes(pts, d: Direction, rad: float | None) -> list[str]:
    """Codes of the points turned by -d: exact points when rad is None,
    else (x, y) pairs rounded to 6 decimals, each written with 6."""
    if rad is None:
        # ExactPoint.rotated by -d, inlined: multiply by the unit w^-a and
        # shift every b by -d.b
        wu, wv = OMEGA_POW[-d.a % 6]
        db = d.b
        return [
            ",".join([
                f"{b - db}:{u * wu - v * wv}:{u * wv + v * wu + v * wv}"
                for b, u, v in p.coeffs
            ])
            for p in pts
        ]
    t = d.value(rad)
    c, s = math.cos(t), math.sin(t)
    # :.6f rounds the exact binary value correctly, half to even, as
    # round(v, 6) does; a coordinate that rounds to 0 is written unsigned
    return [
        f"{x * c + y * s:.6f}:{y * c - x * s:.6f}".replace("-0.000000", "0.000000")
        for x, y in pts
    ]
