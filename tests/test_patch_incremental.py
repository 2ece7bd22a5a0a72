"""Differential tests: the incremental state of a Patch against fresh scans.

Random add_tile / pop_tile sequences are run at generic alpha, at pi/2
and at 110 degrees.  The candidates are flush against a gap, as the
completion search places them, or turned into the gap, so that they share
a vertex but no edge.  After every step the boundary edges, the edge
midpoint index and every cached gap list must equal what a fresh scan
gives, every vertex must be a tile corner that vertex_at finds and
vertex_point names, and every add_tile verdict must equal the one of a
brute force reference that checks all tiles, edges and vertices.  A
duplicate must be refused, and the incremental disk frontier, told of
the vertices of each tile added or popped, must return what a full scan
of the boundary edges returns, whether it is called after every step or
only now and then.

Batch builds are checked the same way: Patch.from_tiles must refuse a
tile list exactly when adding its tiles one by one does, with the same
error, and build the same state otherwise.  validate() on the tiles
placed unchecked must report the same overlapping pairs as a polygon test
of every pair of tiles.  A validated patch keeps its report through
add_tile and pop_tile; the kept report must equal a full validation of
the same tiles.
"""

import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldtiles import geomkernel, patterns
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import LABEL_ANGLES, atlas_words, canonical_word, gap_feasible
from shieldtiles.errors import (
    AtlasViolation,
    EdgeMismatchError,
    OverlapError,
    ShieldError,
)
from shieldtiles.patch import GEOM_TOL, Patch, _closes
from shieldtiles.placement import LABEL_CORNERS, Placement, placement_with_corner
from shieldtiles.patterns import _DiskFrontier, _flush_candidates
from shieldtiles.symbolic import (
    ANGLE_A,
    ANGLE_T,
    HALF_TURN,
    Direction,
    ExactPoint,
    SymbolicAngle,
    unit_vector,
)

ORIGIN = ExactPoint()
RIGHT = make_alpha("rational", 1, 2)
DECIMAL = make_alpha("decimal", 110)
TWO_PI = 2 * math.pi


# -- brute-force reference ---------------------------------------------------


def _same_vertex(patch, p, q):
    if patch.exact_keys:
        return p[0] == q[0]
    return abs(p[1][0] - q[1][0]) < GEOM_TOL and abs(p[1][1] - q[1][1]) < GEOM_TOL


def _corners(patch, pl):
    """Per corner: ((exact point, xy), start angle, end angle, label)."""
    rad = patch.eval_rad
    out = []
    for pt, xy, (lab, d, ang) in zip(
        pl.corner_points(), pl.corner_xy(rad), pl.corner_dirs()
    ):
        s = d.value(rad)
        out.append(((pt, xy), s, s + ang.value(rad), lab))
    return out


def _strictly_inside(p, a, b):
    (px, py), (ax, ay), (bx, by) = p, a, b
    return (
        geomkernel.point_segment_dist(px, py, ax, ay, bx, by) < GEOM_TOL
        and math.hypot(px - ax, py - ay) > GEOM_TOL
        and math.hypot(px - bx, py - by) > GEOM_TOL
    )


def _circular_overlap(s1, e1, s2, e2):
    return max(
        min(e1, e2 + k) - max(s1, s2 + k) for k in (-TWO_PI, 0.0, TWO_PI)
    )


def _tile_edges(patch):
    """Edges of the placed tiles, each as its two ends (exact point, xy)."""
    cs_all = [_corners(patch, t) for t in patch.tiles]
    return [
        (cs[i][0], cs[(i + 1) % len(cs)][0])
        for cs in cs_all
        for i in range(len(cs))
    ]


def _anchor_reps(pl):
    """pl re-anchored at each corner that can anchor it: every corner of a
    triangle, each A corner of a shield."""
    pts = pl.corner_points()
    dirs = pl.corner_dirs()
    step = 1 if pl.kind == "T" else 2
    return [Placement(pl.kind, pts[i], dirs[i][1]) for i in range(0, len(pts), step)]


def _tile_id(pl):
    """The kind and exact corner set, which fix a tile whatever its anchor."""
    return pl.kind, sorted(p.coeffs for p in pl.corner_points())


def reference_verdict(patch, pl):
    """The error class add_tile must raise for pl, or None if it must
    accept it.  The checks run in add_tile's order, each one against
    every tile, edge and vertex of the patch."""
    old = [_corners(patch, t) for t in patch.tiles]
    new = _corners(patch, pl)
    points = [c[0] for cs in old for c in cs]
    if any(_tile_id(t) == _tile_id(pl) for t in patch.tiles):
        return OverlapError
    n = len(new)
    edges = _tile_edges(patch)
    for i in range(n):
        a, b = new[i][0], new[(i + 1) % n][0]
        uses = sum(
            1 for p, q in edges
            if (_same_vertex(patch, a, p) and _same_vertex(patch, b, q))
            or (_same_vertex(patch, a, q) and _same_vertex(patch, b, p))
        )
        if uses >= 2:
            return OverlapError
    for c in new:
        if any(_strictly_inside(c[0][1], p[1], q[1]) for p, q in edges):
            return EdgeMismatchError
    for i in range(n):
        a, b = new[i][0][1], new[(i + 1) % n][0][1]
        if any(_strictly_inside(p[1], a, b) for p in points):
            return EdgeMismatchError
    sectors = [o for cs in old for o in cs]
    for c in new:
        for o in sectors:
            if _same_vertex(patch, c[0], o[0]) and (
                _circular_overlap(c[1], c[2], o[1], o[2]) > GEOM_TOL
            ):
                return OverlapError
    flat = tuple(v for c in new for v in c[0][1])
    for cs in old:
        poly = tuple(v for c in cs for v in c[0][1])
        if geomkernel.convex_overlap(flat, poly, GEOM_TOL):
            return OverlapError
    atlas = atlas_words(patch.alpha)
    for c in new:
        if not any(_same_vertex(patch, c[0], p) for p in points):
            continue  # a new vertex holds this one corner only
        star = [c] + [o for o in sectors if _same_vertex(patch, c[0], o[0])]
        total = sum(e - s for _p, s, e, _lab in star)
        if total > TWO_PI + 1e-7:
            return OverlapError
        if abs(total - TWO_PI) < 1e-7:
            word = "".join(lab for _p, _s, _e, lab in sorted(star, key=lambda x: x[1]))
            if canonical_word(word) not in atlas:
                return AtlasViolation
    return None


def reference_frontier(patch, center_xy, radius):
    """The disk frontier as a full scan of the boundary edges that meet the
    disk.  Among their ends with a gap within radius + GEOM_TOL/2 of the
    center: the least (fewest labels over its gaps, dist2, vid), with its
    gap of fewest labels, then least start.  With none, the least (dist2,
    vid) among all their ends with a gap, with its gap of least start."""
    cx, cy = center_xy
    ends = set()
    for u, v in patch.boundary_edges():
        ax, ay = patch.vertex_xy(u)
        bx, by = patch.vertex_xy(v)
        if geomkernel.point_segment_dist(cx, cy, ax, ay, bx, by) <= radius + GEOM_TOL:
            ends.update((u, v))
    rad = patch.eval_rad

    def labels(gap):
        return sum(
            gap_feasible(gap[1] - LABEL_ANGLES[lab], patch.alpha) for lab in "TAB"
        )

    def start(gap):
        return gap[0].value(rad) % TWO_PI

    open_ends = []
    for w in ends:
        x, y = patch.vertex_xy(w)
        if patch.gaps(w):
            open_ends.append(((x - cx) ** 2 + (y - cy) ** 2, w))
    must_close = [
        (min(labels(g) for g in patch.gaps(w)), d2, w)
        for d2, w in open_ends
        if d2 <= (radius + GEOM_TOL / 2) ** 2
    ]
    if must_close:
        _n, d2, w = min(must_close)
        return d2, w, min(patch.gaps(w), key=lambda g: (labels(g), start(g)))
    if open_ends:
        d2, w = min(open_ends)
        return d2, w, min(patch.gaps(w), key=start)
    return None


# -- fresh scans of the incremental state ----------------------------------


def assert_state_matches_fresh_scan(patch):
    uses = Counter()
    for t in range(len(patch)):
        vids = patch.tile_vertices(t)
        uses.update(
            tuple(sorted((u, vids[(i + 1) % len(vids)]))) for i, u in enumerate(vids)
        )
    assert {ek: len(ts) for ek, ts in patch._edges.items()} == uses
    single = [ek for ek, k in uses.items() if k == 1]
    assert sorted(patch.boundary_edges()) == sorted(single)

    indexed = 0
    for cell, segs in patch._mid.items():
        for mx, my, ax, ay, bx, by, ek in segs:
            assert cell == (math.floor(mx), math.floor(my))
            assert (mx, my) == ((ax + bx) / 2, (ay + by) / 2)
            ends = [patch.vertex_xy(v) for v in ek]
            seg = [(ax, ay), (bx, by)]
            assert _close(seg, ends) or _close(seg, ends[::-1])
            indexed += 1
    assert indexed == len(patch._edges)
    for u, v in patch._edges:
        ends = [patch.vertex_xy(u), patch.vertex_xy(v)]
        cx = math.floor((ends[0][0] + ends[1][0]) / 2)
        cy = math.floor((ends[0][1] + ends[1][1]) / 2)
        near = [
            [seg[2:4], seg[4:6]]
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for seg in patch._mid.get((cx + dx, cy + dy), ())
        ]
        assert sum(_close(s, ends) or _close(s, ends[::-1]) for s in near) == 1

    for vid in patch.vertex_ids():
        assert patch._gap_scan(vid) == patch._scan_gaps(vid)
        assert isinstance(patch.gaps(vid), tuple)
        # a vertex has an interior word exactly when its corners close
        closed = _closes(patch._vertices[vid].intervals)
        assert (patch.interior_word(vid) is not None) == closed


def assert_vertices_are_corners(patch, pick):
    """Every vertex holds a tile corner, vertex_at finds the vertex of
    every corner and refuses a point strictly inside an edge, and
    vertex_point is the corner of the vertex's first tile."""
    corners = set()
    for t, pl in enumerate(patch.tiles):
        for point, vid in zip(pl.corner_points(), patch.tile_vertices(t)):
            assert patch.vertex_at(point) == vid
            corners.add(vid)
    assert corners == set(patch.vertex_ids())
    for vid in patch.vertex_ids():
        first = min(patch.tiles_at(vid))
        i = patch.tile_vertices(first).index(vid)
        assert patch.vertex_point(vid) == patch.tiles[first].corner_points()[i]
    nowhere = _inside_edge_point(patch, pick) if len(patch) else ORIGIN
    with pytest.raises(KeyError):
        patch.vertex_at(nowhere)


# the frontiers are centred at the origin, a corner of the first tile;
# edges of the tiles at the center lie at distances sqrt(3)/2 and 1
CENTER = (0.0, 0.0)
RADII = (0.5, 0.85, math.sqrt(3) / 2, 0.99, 1.0, 2.0)


def assert_frontiers_match_full_scan(patch, frontiers):
    cx, cy = CENTER
    single = [ek for ek, ts in patch._edges.items() if len(ts) == 1]
    for r, frontier in zip(RADII, frontiers):
        want = reference_frontier(patch, (cx, cy), r)
        assert frontier() == want
        closed = all(
            geomkernel.point_segment_dist(
                cx, cy, *patch.vertex_xy(u), *patch.vertex_xy(v)
            ) > r + GEOM_TOL
            for u, v in single
        )
        assert (want is None) == closed


def _frontiers(patch):
    return [_DiskFrontier(patch, CENTER, r) for r in RADII]


def _followers(*groups):
    """The frontiers of the groups that exist, to report adds and pops to."""
    return [f for g in groups if g is not None for f in g]


def _close(ps, qs):
    return all(
        abs(px - qx) < GEOM_TOL and abs(py - qy) < GEOM_TOL
        for (px, py), (qx, qy) in zip(ps, qs)
    )


def _rebuilt(patch):
    fresh = Patch(patch.alpha)
    for t in patch.tiles:
        fresh.add_tile(t)
    return fresh


def _open_vertex(patch, pick):
    """One of the three open vertices nearest the origin, or None."""
    open_vids = sorted(
        (sum(c * c for c in patch.vertex_xy(v)), v)
        for v in patch.vertex_ids()
        if patch.gaps(v)
    )
    if not open_vids:
        return None
    return open_vids[pick % min(3, len(open_vids))][1]


def _next_candidate(patch, pick, which):
    """A flush candidate at the first gap of one of the three open vertices
    nearest the origin, as the completion search chooses them."""
    vid = _open_vertex(patch, pick)
    if vid is None:
        return _flush_candidates(ORIGIN, Direction.of(0, 0))[which]
    start = min(patch.gaps(vid), key=lambda g: g[0].value(patch.eval_rad))[0]
    return _flush_candidates(patch.vertex_point(vid), start)[which]


def _turned_candidate(patch, pick, which):
    """A tile with a corner at an open vertex, turned into the gap by a
    triangle or a sharp shield corner: it shares that vertex, but not the
    edge or sector before the gap."""
    vid = _open_vertex(patch, pick)
    point = ORIGIN if vid is None else patch.vertex_point(vid)
    start = Direction.of(0, 0) if vid is None else patch.gaps(vid)[0][0]
    turn = (ANGLE_T, ANGLE_A)[pick % 2]
    return placement_with_corner(*LABEL_CORNERS["TAB"[which]], point, start.plus(turn))


def _slid_candidate(patch, pick, which):
    """A tile whose first edge runs through an open vertex, from a point
    a short step behind it (see _short_step)."""
    vid = _open_vertex(patch, pick)
    if vid is None:
        return _next_candidate(patch, pick, which)
    d = patch.gaps(vid)[0][0]
    anchor = patch.vertex_point(vid) + _short_step(d)
    return Placement(("T", "S")[which % 2], anchor, d)


def _stuck_candidate(patch, pick, which):
    """A tile with a corner strictly inside an edge of the patch."""
    if not len(patch):
        return _next_candidate(patch, pick, which)
    heading = Direction.of(pick + 2 * which, which % 2)
    return Placement(("T", "S")[which % 2], _inside_edge_point(patch, pick), heading)


def _short_step(d):
    """With theta = pi/3 + alpha in (2pi/3, pi), e(d) + e(d + theta) +
    e(d - theta) = (1 + 2 cos theta) e(d): a step of length in (0, 1)
    against direction d."""
    theta = SymbolicAngle(1, 1)
    return unit_vector(d) + unit_vector(d.plus(theta)) + unit_vector(d.plus(-theta))


def _inside_edge_point(patch, pick):
    """An exact point strictly inside an edge of the patch: a short step
    from a corner along the edge that leaves it."""
    t = patch.tiles[pick % len(patch)]
    i = pick % len(t.labels)
    return t.corner_points()[i] + _short_step(t.corner_dirs()[i][1].plus(HALF_TURN))


STEPS = st.lists(
    st.tuples(
        st.integers(0, 2),  # which of the nearest open vertices
        st.integers(0, 2),  # which candidate kind
        # 0: pop up to three tiles, 2: a turned tile, 3: a tile with an
        # edge through a vertex, 4: a tile with a corner inside an edge,
        # otherwise a flush tile
        st.integers(0, 9),
        st.integers(0, 2),  # 0: call the occasional frontiers after this step
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(alpha=st.sampled_from([GENERIC, RIGHT, DECIMAL]), steps=STEPS)
def test_incremental_state_and_verdicts_match_brute_force(alpha, steps):
    patch = Patch(alpha)
    every_step = _frontiers(patch)
    # made once two tiles are placed, and made again after a pop below them
    now_and_then, made_at = None, 0
    for pick, which, op, call in steps:
        if op == 0 and len(patch):
            count = min(pick + 1, len(patch))
            if len(patch) - count < made_at:
                now_and_then, made_at = None, 0
            for _ in range(count):
                vids = patch.tile_vertices(len(patch) - 1)
                patch.pop_tile()
                for f in _followers(every_step, now_and_then):
                    f.touch(vids)
        else:
            if op == 2:
                cand = _turned_candidate(patch, pick, which)
            elif op == 3:
                cand = _slid_candidate(patch, pick, which)
            elif op == 4:
                cand = _stuck_candidate(patch, pick, which)
            else:
                cand = _next_candidate(patch, pick, which)
            want = reference_verdict(patch, cand)
            try:
                vids = patch.add_tile(cand)
                got = None
            except ShieldError as exc:
                got = type(exc)
            assert got is want
            if got is None:
                for f in _followers(every_step, now_and_then):
                    f.touch(vids)
        assert_state_matches_fresh_scan(patch)
        assert_vertices_are_corners(patch, pick)
        # the kept report against a full pass over the same tiles, placed
        # unchecked
        fresh = _planted(alpha, patch.tiles)
        assert fresh.validate().ok and patch.validate() == fresh.validate()
        assert_frontiers_match_full_scan(patch, every_step)
        if now_and_then is None and len(patch) >= 2:
            now_and_then, made_at = _frontiers(patch), len(patch)
        elif now_and_then is not None and call == 0:
            assert_frontiers_match_full_scan(patch, now_and_then)
        if len(patch):
            twin = _anchor_reps(patch.tiles[pick % len(patch)])[-1]
            with pytest.raises(OverlapError):
                patch.add_tile(twin)
    fresh = _rebuilt(patch)
    assert list(fresh.vertex_ids()) == list(patch.vertex_ids())
    for vid in patch.vertex_ids():
        assert fresh.gaps(vid) == patch.gaps(vid)
        assert fresh.star_blocks(vid) == patch.star_blocks(vid)
    assert set(fresh.boundary_edges()) == set(patch.boundary_edges())


@pytest.mark.parametrize(
    "alpha", [GENERIC, RIGHT, DECIMAL], ids=["generic", "right", "110deg"]
)
def test_frontier_follows_pops_and_adds_between_calls(alpha):
    """Several reported pops, then adds, between two calls; then pops back
    to the tiles that were there when the frontier was made."""
    patch = Patch(alpha)
    _grow(patch, 4, 0)
    frontiers = _frontiers(patch)
    assert_frontiers_match_full_scan(patch, frontiers)
    _grow(patch, 12, 0, frontiers)
    assert len(patch) == 16
    assert_frontiers_match_full_scan(patch, frontiers)
    _pop(patch, 5, frontiers)
    _grow(patch, 3, 1, frontiers)
    assert_frontiers_match_full_scan(patch, frontiers)
    _pop(patch, len(patch) - 4, frontiers)
    _grow(patch, 2, 2, frontiers)
    assert_frontiers_match_full_scan(patch, frontiers)


@pytest.mark.parametrize(
    "alpha", [GENERIC, RIGHT, DECIMAL], ids=["generic", "right", "110deg"]
)
def test_frontier_falls_back_to_an_edge_beyond_must_close(alpha):
    """The edge from (0, 0) to (1, 0) meets the disk, but both its ends lie
    beyond must_close, at equal distance: the frontier takes vertex 0 and
    its one gap, from 60 degrees."""
    patch = Patch(alpha)
    patch.add_tile(Placement("T", ORIGIN, Direction.of(0, 0)))
    center, radius = (0.5, -0.2), 0.3
    frontier = _DiskFrontier(patch, center, radius)
    assert not frontier.heap
    got = frontier()
    assert got == reference_frontier(patch, center, radius)
    d2, vid, gap = got
    assert vid == 0 and d2 > frontier.must_close ** 2
    assert gap == patch.gaps(0)[0] and gap[0] == Direction.of(1, 0)


def _grow(patch, steps, offset, frontiers=()):
    """Place steps tiles, each the first candidate that fits at one of
    the nearest open vertices, and report each to the frontiers."""
    for pick in range(steps):
        for which in range(3):
            try:
                vids = patch.add_tile(_next_candidate(patch, pick + offset, which))
                break
            except ShieldError:
                pass
        else:
            raise AssertionError("no candidate fits")
        for f in frontiers:
            f.touch(vids)


def _pop(patch, count, frontiers):
    for _ in range(count):
        vids = patch.tile_vertices(len(patch) - 1)
        patch.pop_tile()
        for f in frontiers:
            f.touch(vids)


@pytest.mark.parametrize(
    "n, alpha",
    [(1.0, GENERIC), (0.6, RIGHT), (1.0, DECIMAL)],
    ids=["generic-n1", "right-n0.6", "110deg-n1"],
)
def test_search_frontier_matches_full_scan(monkeypatch, n, alpha):
    """Every frontier call of the completion searches of count_patterns,
    which close edges at nearly every node, returns the full scan's
    answer."""
    calls = []

    class Checked(_DiskFrontier):
        def __call__(self):
            got = super().__call__()
            center = (self.cx, self.cy)
            assert got == reference_frontier(self.patch, center, self.radius)
            calls.append(got)
            return got

    monkeypatch.setattr(patterns, "_DiskFrontier", Checked)
    patterns.count_patterns(n, alpha)
    assert len(calls) > 50 and None in calls


# -- batch builds ----------------------------------------------------------

# per step: which open vertex, which candidate kind, 0: a turned tile,
# 1: a tile with an edge through a vertex, 2: a tile with a corner inside
# an edge, 3: a placed tile from another anchor, otherwise a flush tile;
# and 0: keep the candidate in the list even if add_tile refused it
BATCH_STEPS = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 7), st.integers(0, 3)
    ),
    min_size=1,
    max_size=30,
)


def _tile_list(alpha, steps):
    """Tiles as the completion search and its neighbours propose them: each
    candidate is tried on a patch of the accepted ones, and a refused one
    joins the list only when its step says so."""
    patch = Patch(alpha)
    out = []
    for pick, which, op, keep in steps:
        if op == 0:
            cand = _turned_candidate(patch, pick, which)
        elif op == 1:
            cand = _slid_candidate(patch, pick, which)
        elif op == 2:
            cand = _stuck_candidate(patch, pick, which)
        elif op == 3 and len(patch):
            cand = _anchor_reps(patch.tiles[pick % len(patch)])[-1]
        else:
            cand = _next_candidate(patch, pick, which)
        try:
            patch.add_tile(cand)
        except ShieldError:
            if keep:
                out.append(cand)
            continue
        out.append(cand)
    return out


def _planted(alpha, tiles):
    """The tiles placed in order with no check at all, as from_tiles places
    them before it validates."""
    patch = Patch(alpha)
    for t in tiles:
        geom, pts = patch._corners(t)
        patch._commit(t, geom, pts, patch._locate(geom[0], pts))
    return patch


def reference_overlapping_pairs(patch):
    """Pairs of tiles whose interiors meet: every pair through the polygon
    test, tiles that share a vertex included."""
    rad = patch.eval_rad
    polys = [tuple(c for xy in t.corner_xy(rad) for c in xy) for t in patch.tiles]
    return {
        (i, j)
        for j in range(len(polys))
        for i in range(j)
        if geomkernel.convex_overlap(polys[i], polys[j], GEOM_TOL)
    }


def _reported_pairs(report):
    """Tile pairs of the overlap faults of a report."""
    out = set()
    for v in report.violations:
        m = re.match(r"tiles (\d+) and (\d+) overlap", v.detail)
        if m:
            out.add((int(m[1]), int(m[2])))
    return out


def _state(patch):
    return (
        [(patch.vertex_point(v), patch.vertex_xy(v)) for v in patch.vertex_ids()],
        patch._edges,
        set(patch.boundary_edges()),
        [patch.gaps(v) for v in patch.vertex_ids()],
        [patch.tile_vertices(t) for t in range(len(patch))],
    )


@settings(max_examples=300, deadline=None)
@given(alpha=st.sampled_from([GENERIC, RIGHT, DECIMAL]), steps=BATCH_STEPS)
def test_from_tiles_refuses_what_add_tile_refuses(alpha, steps):
    tiles = _tile_list(alpha, steps)
    one_by_one = Patch(alpha)
    want = None
    for t in tiles:
        try:
            one_by_one.add_tile(t)
        except ShieldError as exc:
            want = type(exc)
            break
    try:
        batch = Patch.from_tiles(alpha, tiles)
        got = None
    except ShieldError as exc:
        got = type(exc)
    assert got is want
    if want is None:
        assert _state(batch) == _state(one_by_one)
        assert_state_matches_fresh_scan(batch)
    # validate's placement rule against every pair of tiles
    planted = _planted(alpha, tiles)
    report = planted.validate()
    assert report.ok is (want is None)
    assert _reported_pairs(report) == reference_overlapping_pairs(planted)
    assert_state_matches_fresh_scan(planted)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.sampled_from([GENERIC, RIGHT, DECIMAL]),
    batch=BATCH_STEPS,
    steps=STEPS,
)
def test_kept_report_matches_a_fresh_validation(alpha, batch, steps):
    """A patch that from_tiles has validated keeps its report through
    add_tile and pop_tile, and the kept report is the one that validating
    the same tiles afresh gives."""
    accepted = [(pick, which, op, 0) for pick, which, op, _keep in batch]
    patch = Patch.from_tiles(alpha, _tile_list(alpha, accepted))
    for pick, which, op, _call in steps:
        if op == 0:
            for _ in range(min(pick + 1, len(patch))):
                patch.pop_tile()
        else:
            make = {2: _turned_candidate, 3: _slid_candidate, 4: _stuck_candidate}
            try:
                patch.add_tile(make.get(op, _next_candidate)(patch, pick, which))
            except ShieldError:
                pass
        kept = patch._report
        assert kept is not None
        assert kept == Patch.from_tiles(alpha, patch.tiles).validate()


@pytest.mark.parametrize(
    "alpha", [GENERIC, RIGHT, DECIMAL], ids=["generic", "right", "110deg"]
)
def test_pops_keep_the_boundary_of_an_overused_edge(alpha):
    # three tiles on the edge from 0 to 1: the edge is a boundary edge
    # exactly while it has one tile
    tiles = [
        Placement("T", ORIGIN, Direction.of(0, 0)),
        Placement("T", unit_vector(Direction.of(0, 0)), Direction.of(3, 0)),
        Placement("S", ORIGIN, Direction.of(0, 0)),
    ]
    with pytest.raises(OverlapError):
        Patch.from_tiles(alpha, tiles)
    patch = _planted(alpha, tiles)
    assert [v.kind for v in patch.validate().violations][0] == "edge_overuse"
    while len(patch):
        assert_state_matches_fresh_scan(patch)
        patch.pop_tile()
        # a pop keeps no report of a fault that may be gone
        assert patch.validate() == _planted(alpha, patch.tiles).validate()
    assert not patch.boundary_edges()
