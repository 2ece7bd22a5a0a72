"""Exhaustive completion search and pattern counting.

The engine fills angular gaps one at a time.  At the chosen gap there are
exactly three ways to place a tile flush against the gap's starting ray
(triangle corner, shield sharp corner, shield wide corner), so depth-first
search over those choices is exhaustive.  It chooses first a gap that
admits the fewest of the three (see _DiskFrontier).  A branch is cut when
a gap at a touched vertex cannot be written as a non-negative combination
of corner angles: that is exactly when the partial vertex star extends to
no atlas word (see star_completable).  A dead branch jumps straight back
to the latest tile it depends on (see _Search.run).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cache

from . import geomkernel as gk
from .alpha import AlphaSpec, make_alpha
from .atlas import LABEL_ANGLES, VertexConfig, atlas_configs, gap_feasible
from .errors import BudgetExceeded, ShieldError
from .patch import GEOM_TOL, Patch, PatternBall
from .placement import (
    LABEL_CORNERS,
    Placement,
    placement_with_corner,
    star_placements,
)
from .symbolic import Direction, ExactPoint, SymbolicAngle, lattice_points

DEFAULT_BUDGET = 2_000_000
DEFAULT_MARGIN = 1.0

ORIGIN = ExactPoint.from_dict({})


class NodeBudget:
    """Search nodes allowed and used, and the flush candidates built.

    A node is one tentative tile placement.  Passing one instance as the
    budget of several searches makes them share a single limit and one
    table of candidates: the three tiles flush against a gap's start ray
    depend only on its point and direction, so each pair is built once
    (see _Search.run).  count_patterns makes one per count, so no table
    outlives its count.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        # (vertex point, start direction) -> _flush_candidates of the pair
        self.candidates: dict = {}

    def spend(self) -> None:
        if self.used >= self.limit:
            raise BudgetExceeded("node budget exhausted")
        self.used += 1


def _as_budget(budget: int | NodeBudget) -> NodeBudget:
    return budget if isinstance(budget, NodeBudget) else NodeBudget(budget)


def star_completable(
    blocks: list[tuple[str, SymbolicAngle]], alpha: AlphaSpec
) -> bool:
    """True iff some atlas word extends the partial vertex star whose cyclic
    ('word', labels) and ('gap', angle) blocks are given.

    Only the gaps are tested; the word blocks always fit.  Fill each gap
    with corners whose angles sum to it: the filled star closes a full
    turn, so its corner counts solve the vertex equation, and the atlas
    holds every cyclic arrangement of every solution, the filled star
    among them.  Conversely the corners that fill a gap in an atlas word
    show that the gap is feasible.
    """
    return all(gap_feasible(g, alpha) for kind, g in blocks if kind == "gap")


@dataclass
class _Search:
    """Shared state for one depth-first completion run.

    Every completion closes the star of each vertex within must_close of
    the frontier's center.  The search reports each tile it places and
    takes back to the frontier, and no one else adds or pops tiles while
    it runs.
    """

    patch: Patch
    frontier: _DiskFrontier
    budget: NodeBudget
    must_close: float
    tile_filter: object = None
    on_solution: object = None

    def __post_init__(self):
        # the corner angles that _flush_candidates puts at the vertex
        rad = self.patch.eval_rad
        self.angles = [LABEL_ANGLES[lab].value(rad) for lab in "TAB"]

    def run(self) -> bool | set[int] | None:
        """Search the completions of the patch as it stands.

        Without on_solution the search stops at the first completion,
        leaves the patch in it and returns True; with it every completion
        is visited.  Otherwise the patch is restored, and the result is
        None when a completion was found below, else the blame: indices of
        placed tiles that no completion holds all together.

        This is conflict-directed backjumping (P. Prosser, Computational
        Intelligence 9(3), 1993).  A candidate refused by the gap
        arithmetic, add_tile, the gap pruning or the tile filter is blamed
        on every placed tile whose bounding disc meets its own
        (Patch.tiles_touching): the checks look at no other tile, and more
        tiles never make a refused tile fit.  The tile filter must be such
        a check too.  A candidate whose subtree failed contributes that
        subtree's blame without itself.  When a candidate is not in its
        subtree's blame, the failure does not depend on it: the node pops
        it and returns that blame at once, and every node up to the latest
        blamed tile does the same.

        Why a blame is sound: the chosen vertex lies within must_close, so
        every completion that holds the tiles at that vertex (always in the
        blame) puts one of the three flush candidates against the gap, and
        each candidate is ruled out by its own part of the blame.  The
        search falls back to chronological order in two cases.  A vertex
        beyond must_close need not close in every completion, so there the
        blame is every placed tile.  A node with a completion below returns
        None, so the nodes above it try all their candidates.  Backjumping
        skips only subtrees without completions: it visits every completion
        the chronological search visits, in the same order, and never more
        nodes.

        A candidate whose corner at the chosen vertex is wider than the gap
        by more than 2*GEOM_TOL overlaps the tile after the gap there by
        more than the GEOM_TOL of add_tile's angular test.  It is refused
        without add_tile, which would refuse it too, so the search tree is
        the same.
        """
        p = self.patch
        chosen = self.frontier()
        if chosen is None:
            if self.on_solution is None:
                return True
            self.on_solution(p)
            return None
        d2, vid, (start_dir, _sym, gap_rad) = chosen
        point = p.vertex_point(vid)
        table = self.budget.candidates
        cands = table.get((point, start_dir))
        if cands is None:
            cands = table[point, start_dir] = _flush_candidates(point, start_dir)
        room = gap_rad + 2 * GEOM_TOL
        me = len(p)  # index of the tile this node places
        refused = []
        blame = set()
        found = False
        for cand, angle in zip(cands, self.angles):
            self.budget.spend()
            if angle > room:
                refused.append(cand)
                continue
            try:
                vids = p.add_tile(cand)
            except ShieldError:
                refused.append(cand)
                continue
            if not self._prune(cand, vids):
                p.pop_tile()
                refused.append(cand)
                continue
            self.frontier.touch(vids)
            sub = self.run()
            if sub is True:
                return True
            p.pop_tile()
            self.frontier.touch(vids)
            if sub is None:
                found = True
            elif me not in sub:
                return sub
            else:
                blame |= sub
        if found:
            return None
        if d2 > self.must_close ** 2:
            return set(range(me))
        # the patch is as it was when each candidate was refused
        blame.discard(me)
        blame |= p.tiles_at(vid)
        for cand in refused:
            blame.update(p.tiles_touching(cand))
        return blame

    def _prune(self, cand: Placement, vids) -> bool:
        p = self.patch
        for v in set(vids):
            if not star_completable(p.star_blocks(v), p.alpha):
                return False
        return self.tile_filter is None or self.tile_filter(p, cand, vids)


@cache
def admitted_labels(gap: SymbolicAngle, alpha: AlphaSpec) -> str:
    """The corner labels, of T, A and B, that a tile flush against the start
    ray of a gap can put into it: those whose angle leaves the gap 0 or
    feasible."""
    return "".join(
        lab for lab in "TAB" if gap_feasible(gap - LABEL_ANGLES[lab], alpha)
    )


def _flush_candidates(point: ExactPoint, d: Direction) -> list[Placement]:
    return [placement_with_corner(*LABEL_CORNERS[lab], point, d) for lab in "TAB"]


class _DiskFrontier:
    """The open vertex to fill next, in a disk.

    Calling it returns (dist2, vid, gap), or None when no boundary edge
    meets the disk.  Among the open vertices within must_close of the
    center, which close in every completion, it takes the one whose gaps
    admit the fewest flush labels (see admitted_labels), ties by distance
    and then by id, and there the gap that admits the fewest, ties by
    least start direction: the fail-first choice of Haralick and Elliott
    (Artificial Intelligence 14, 1980).  With no open vertex that near, it
    takes the nearest gap-bearing end of a boundary edge that meets the
    disk, and its gap of least start direction.

    An open vertex within must_close is always such an end: the edge
    along one of its gaps has one tile and lies no farther from the
    center than the vertex.  So a heap of (labels, dist2, vid) holds the
    open vertices within must_close, read from patch.vertex_ids() at the
    start, and the boundary edges are scanned only when it has none.  The
    gaps of a vertex change only when a tile at it is added or popped; the
    search that owns the frontier reports that tile's vertices (touch),
    which are pushed again.  A call drops entries from the top until one
    equals the vertex's entry now (a popped vertex's id is reused).  Stale
    entries are dropped in a rebuild once they outnumber the vertices.
    """

    def __init__(self, patch: Patch, center_xy, radius: float):
        self.patch = patch
        self.cx, self.cy = center_xy
        self.radius = radius
        # a vertex in the closed disk closes in every completion, since each
        # edge at it meets the disk: half of GEOM_TOL is more than float
        # rounding can take off the radius + GEOM_TOL test of _beyond
        self.must_close = radius + GEOM_TOL / 2
        self.close2 = self.must_close ** 2
        self._rebuild()

    def _rebuild(self):
        entries = (self._entry(w) for w in self.patch.vertex_ids())
        self.heap = [e for e in entries if e is not None]
        heapq.heapify(self.heap)

    def _dist2(self, w) -> float:
        x, y = self.patch.vertex_xy(w)
        return (x - self.cx) ** 2 + (y - self.cy) ** 2

    def _labels(self, gap) -> int:
        return len(admitted_labels(gap[1], self.patch.alpha))

    def _entry(self, w):
        """(labels, dist2, w) for an open vertex within must_close, else
        None."""
        d2 = self._dist2(w)
        if d2 > self.close2:
            return None
        gaps = self.patch.gaps(w)
        if not gaps:
            return None
        return min(self._labels(g) for g in gaps), d2, w

    def touch(self, vids):
        """Re-rank the vertices of a tile just added or popped."""
        live = self.patch.vertex_ids()
        for w in vids:
            if w in live:
                entry = self._entry(w)
                if entry is not None:
                    heapq.heappush(self.heap, entry)
        if len(self.heap) > 2 * len(live) + 64:
            self._rebuild()

    def __call__(self):
        p = self.patch
        heap = self.heap
        live = p.vertex_ids()
        rad = p.eval_rad
        while heap:
            top = heap[0]
            w = top[2]
            if w in live and top == self._entry(w):
                gap = min(p.gaps(w), key=lambda g: (
                    self._labels(g), g[0].value(rad)
                ))
                return top[1], w, gap
            heapq.heappop(heap)
        return self._beyond()

    def _beyond(self):
        """The nearest gap-bearing end of a boundary edge that meets the
        disk, with its gap of least start direction, or None."""
        p = self.patch
        reach = self.radius + GEOM_TOL
        ends = []
        for u, v in p.boundary_edges():
            if gk.point_segment_dist(
                self.cx, self.cy, *p.vertex_xy(u), *p.vertex_xy(v)
            ) <= reach:
                ends += (u, v)
        nearest = min(
            ((self._dist2(w), w) for w in ends if p.gaps(w)), default=None
        )
        if nearest is None:
            return None
        rad = p.eval_rad
        return *nearest, min(p.gaps(nearest[1]), key=lambda g: g[0].value(rad))


def fill_disk(
    patch: Patch,
    center_vid: int,
    radius: float,
    *,
    budget: int | NodeBudget = DEFAULT_BUDGET,
    tile_filter=None,
    on_solution=None,
) -> bool:
    """DFS over the completions until no boundary edge meets the disk.

    Each end of a boundary edge has an open gap (a closed star has a
    second tile on each of its edges), so an empty frontier means the disk
    is complete.  Without on_solution the search stops at the first
    completion, leaves the patch in it and returns True, or returns False
    with the patch restored.  With on_solution it is invoked on every
    completion, the patch is restored and False is returned.  budget
    is a node count, or a NodeBudget shared with other searches.
    tile_filter (patch, placement, vids) -> bool may refuse a placed tile;
    it must look only at tiles touching it, and refuse whatever it refused
    before once more tiles are placed.

    The search fills first the gap that admits the fewest tiles (see
    _DiskFrontier), and a dead branch backjumps (see _Search.run).  A
    NodeBudget passed as budget lends the search its table of flush
    candidates; an int budget gives it a table of its own.
    """
    frontier = _DiskFrontier(patch, patch.vertex_xy(center_vid), radius)
    s = _Search(
        patch=patch,
        frontier=frontier,
        budget=_as_budget(budget),
        tile_filter=tile_filter,
        on_solution=on_solution,
        must_close=frontier.must_close,
    )
    return s.run() is True


# ---------------------------------------------------------------------------
# Pattern balls
# ---------------------------------------------------------------------------


def complete_ball(
    alpha: AlphaSpec,
    n: float,
    *,
    margin: float = DEFAULT_MARGIN,
    budget: int | NodeBudget = DEFAULT_BUDGET,
) -> set[PatternBall]:
    """All pattern balls of radius n around a tiling vertex that occur
    inside completions of the radius n + margin disk.

    The center vertex sits at the origin.  Each search runs on a patch of
    its own, built from its first tiles with Patch.from_tiles.
    The margin discards local configurations that close the disk but cannot
    grow any further.  Two steps, both run by fill_disk:

    1. For each atlas word, in sorted order, place its star around the
       center, first corner flush at direction 0, and search the
       completions of the radius-n disk.  Atlas words are canonical up
       to rotation and reflection, and the rotations about the center by
       edge directions and the reflection in the x axis map exact points
       to exact points, so every completion is isometric to one that
       holds one of these stars: each center star is searched once.
       Each completion yields its ball, keyed by canonical_key: every tile
       is coded by its kind and its corner set, which fixes a convex tile
       whatever its anchor.
    2. For each new key, one search out to n + margin, started from the
       ball's tiles and stopped at its first completion, decides whether
       the ball extends.  Only balls
       that extend are kept.

    This gives the same balls as listing every completion of the
    n + margin disk.  Such a completion holds the ball of its own radius-n
    disk, so it witnesses that ball.  Conversely the ball covers the closed
    radius-n disk, so every completion of the ball has that same ball.  A
    star with symmetries, such as TTTTTT, still yields isometric balls more
    than once; an isometry about the center maps completions onto
    completions, so each key is decided once, kept or refuted.

    budget bounds the nodes of all these searches together, and they share
    its table of flush candidates; the star tiles are placed directly and
    spend none.  On exhaustion BudgetExceeded is raised carrying the
    witnessed balls found so far.  A radius n or a margin that is negative
    or not finite raises ValueError before any search.
    """
    for name, r in (("radius n", n), ("margin", margin)):
        if not (math.isfinite(r) and r >= 0):
            raise ValueError(f"{name} = {r} is not a finite number >= 0")
    nodes = _as_budget(budget)
    found: dict[str, PatternBall] = {}
    refuted: set[str] = set()
    new_balls: list[PatternBall] = []

    def search(tiles, radius: float, list_balls: bool = False) -> bool:
        # a patch of the search's own, validated once and dropped after it
        patch = Patch.from_tiles(alpha, tiles)
        center = patch.vertex_at(ORIGIN)

        def record(p: Patch):
            # an empty frontier leaves no boundary edge within n + GEOM_TOL
            # of the center, so the ball is covered
            new_balls.append(p.extract_ball(center, n))

        return fill_disk(patch, center, radius, budget=nodes,
                         on_solution=record if list_balls else None)

    try:
        for cfg in sorted(atlas_configs(alpha)):
            search(star_placements(cfg.word, ORIGIN), n, list_balls=True)
            # taken off the list one at a time, so that a ball whose key is
            # known already is dropped, with its frame codes, once keyed
            new_balls.reverse()
            while new_balls:
                ball = new_balls.pop()
                key = ball.key()
                if key in found or key in refuted:
                    continue
                if search(ball.tiles, n + margin):
                    found[key] = ball
                else:
                    refuted.add(key)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            "node budget exhausted", partial=set(found.values())
        ) from exc
    return set(found.values())


@dataclass
class PatternCount:
    """P_n: how many distinct radius-n patterns exist around a vertex.

    translation_count is the number of translation classes among the images
    of every ball under the rotations and reflections that bring one of the
    ball's own edge directions onto the x axis.  nodes is the number of
    search nodes (tentative tile placements) the count took.
    """

    n: float
    alpha: AlphaSpec
    count: int
    translation_count: int
    complete: bool = True
    patterns: set = field(default_factory=set)
    nodes: int = 0


def count_patterns(
    n: float,
    alpha: AlphaSpec,
    *,
    budget: int = DEFAULT_BUDGET,
    keep: bool = True,
) -> PatternCount:
    """Count patterns up to isometry; also up to translation only.

    The translation count treats two patterns as equal only when one is a
    translate of the other; rotated or reflected images of each isometry
    class are counted separately.  On budget exhaustion the counts are a
    verified lower bound, flagged with complete=False.
    """
    nodes = NodeBudget(budget)
    complete = True
    try:
        balls = complete_ball(alpha, n, budget=nodes)
    except BudgetExceeded as exc:
        balls = exc.partial
        complete = False
    # a ball's key is the least of its orbit's translation keys
    orbits = [b.orbit_translation_keys() for b in balls]
    return PatternCount(
        n=n,
        alpha=alpha,
        count=len(balls),
        translation_count=len(frozenset().union(*orbits)),
        complete=complete,
        patterns={min(o) for o in orbits} if keep else set(),
        nodes=nodes.used,
    )


# ---------------------------------------------------------------------------
# Bounded extendability check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendableWitness:
    """A completed neighborhood containing the configuration."""

    patch: object


class ProvenImpossible:
    """The bounded search space is exhausted with no valid completion."""

    def __repr__(self) -> str:  # pragma: no cover
        return "ProvenImpossible"


class Unknown:
    """The search budget ran out before the question was settled."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Unknown"


def is_config_extendable(
    config: VertexConfig, alpha: AlphaSpec, depth: int = 3
):
    """Can the configuration appear in a tiling?  Bounded local answer.

    Attempts to complete the star out to `depth` rings of tiles by
    exhaustive backtracking.  ExtendableWitness(patch) carries one valid
    completed neighborhood; ProvenImpossible means every branch of the
    bounded search dead-ends; Unknown means the node budget ran out.
    """
    patch = Patch.from_tiles(alpha, star_placements(config.word, ORIGIN))
    vid = patch.vertex_at(ORIGIN)
    try:
        if fill_disk(patch, vid, float(depth)):
            patch.freeze()
            return ExtendableWitness(patch)
    except BudgetExceeded:
        return Unknown()
    return ProvenImpossible()


# ---------------------------------------------------------------------------
# Dodecagon packing and its fillings (right shield, 3.12.12 packing)
# ---------------------------------------------------------------------------

RIGHT = make_alpha("rational", 1, 2)

# the exact center of the unit-edge regular dodecagon whose first edge
# leaves the origin at 0 degrees: w + e^(i*alpha) at alpha = pi/2
DODECAGON_CENTER = ExactPoint.from_dict({0: (0, 1), 1: (1, 0)})


def dodecagon_center_xy():
    return DODECAGON_CENTER.xy(RIGHT.radians())


# circumradius of the unit-edge regular dodecagon
DODECA_CIRCUM = 0.5 / math.sin(math.pi / 12.0)

# translation between nearest dodecagon centers of the packing: 2 + sqrt(3)
# to the north; the centers form a triangular lattice
DODECAGON_NORTH = ExactPoint.from_dict({0: (-1, 2), 1: (2, 0)})
DODECAGON_NORTH_60 = DODECAGON_NORTH.rotated(SymbolicAngle(1, 0))


def packing_cells(rho: float) -> list[tuple[int, int, ExactPoint]]:
    """Cells (i, j, base) of the dodecagon packing whose center lies within
    rho of the origin, a corner of cell (0, 0).

    Cell (i, j) is the dodecagon around DODECAGON_CENTER translated by
    base = i*DODECAGON_NORTH + j*DODECAGON_NORTH_60.  Its center is base
    plus the center offset, one circumradius from the origin at 75 degrees.
    """
    rad = RIGHT.radians()
    cx, cy = dodecagon_center_xy()
    out = []
    for i, j, base in lattice_points(
        DODECAGON_NORTH, DODECAGON_NORTH_60, rho + DODECA_CIRCUM, rad
    ):
        bx, by = base.xy(rad)
        if math.hypot(bx + cx, by + cy) <= rho + 1e-9:
            out.append((i, j, base))
    return out


@cache
def dodecagon_fillings() -> tuple[Patch, ...]:
    """All ways to tile the unit-edge regular dodecagon, as frozen patches.

    Filling k is the AAAA star at the center, its four shields headed
    k*pi/3 + b*pi/2 for b = 0..3, plus the four triangles that its
    vertex stars force.  The index k names the filling when generating
    packing tilings: the triangles of filling k lie in the directions
    90*b + 60*k degrees from the center.  That there are no others is
    checked by a completion search inside a collar of packing tiles (see
    the test suite).  Every call returns the same patches.
    """
    out = []
    for k in range(3):
        tiles = []
        for b in range(4):
            d = Direction.of(k, b)
            tiles.append(Placement("S", DODECAGON_CENTER, d))
            # the B corners of shields b and b - 1 meet at the end of
            # shield b's first edge and leave the pi/3 from -30 to +30
            # degrees about that edge's direction
            tiles.append(Placement(
                "T", DODECAGON_CENTER.step(d), Direction.of(k + 1, b - 1)
            ))
        q = Patch.from_tiles(RIGHT, tiles)
        q.freeze()
        out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# Entropy lower bound
# ---------------------------------------------------------------------------


def dodecagon_cells_inside(n: float) -> int:
    """Dodecagons of the packing wholly inside a radius-n disk centered at
    a tiling vertex."""
    if n <= 2.0 * DODECA_CIRCUM:
        return 0
    return len(packing_cells(n - DODECA_CIRCUM))


def entropy_bound(n: float) -> float:
    """log(3)*D(n)/n^2: independent 3-way fillings give P_n >= 3^D(n)."""
    if n <= 0:
        return 0.0
    return math.log(3.0) * dodecagon_cells_inside(n) / (n * n)
