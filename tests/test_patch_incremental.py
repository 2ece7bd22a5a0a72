"""Differential tests: the incremental state of a Patch against fresh scans.

Random add_tile / pop_tile sequences of flush candidates are run at
generic alpha, at pi/2 and at 110 degrees.  After every step the boundary
set, the edge midpoint index and every cached gap list must equal what a
scan from scratch gives, and every add_tile verdict must equal the one of
a brute force reference that checks all tiles, edges and vertices.
has_tile must find every placed tile from each of its anchors and no
popped one, a duplicate must be refused, and the search frontier of a
disk must be empty exactly when no boundary edge meets the disk.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldtiles import _puregeom
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import atlas_words, canonical_word
from shieldtiles.errors import (
    AtlasViolation,
    EdgeMismatchError,
    OverlapError,
    ShieldError,
)
from shieldtiles.patch import GEOM_TOL, Patch
from shieldtiles.patterns import _disk_frontier, _flush_candidates
from shieldtiles.symbolic import Direction, ExactPoint

ORIGIN = ExactPoint.origin()
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
        _puregeom.point_segment_dist(px, py, ax, ay, bx, by) < GEOM_TOL
        and math.hypot(px - ax, py - ay) > GEOM_TOL
        and math.hypot(px - bx, py - by) > GEOM_TOL
    )


def _circular_overlap(s1, e1, s2, e2):
    return max(
        min(e1, e2 + k) - max(s1, s2 + k) for k in (-TWO_PI, 0.0, TWO_PI)
    )


def reference_verdict(patch, pl):
    """The error class add_tile must raise for pl, or None if it must
    accept it.  The checks run in add_tile's order, each one against
    every tile, edge and vertex of the patch."""
    old = [_corners(patch, t) for t in patch.tiles]
    new = _corners(patch, pl)
    points = [(ORIGIN, patch.vertex_xy(0))] + [c[0] for cs in old for c in cs]
    if any(t.canonical() == pl.canonical() for t in patch.tiles):
        return OverlapError
    n = len(new)
    edges = [(cs[i][0], cs[(i + 1) % len(cs)][0]) for cs in old for i in range(len(cs))]
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
    for c in new:
        for cs in old:
            for o in cs:
                if _same_vertex(patch, c[0], o[0]) and (
                    _circular_overlap(c[1], c[2], o[1], o[2]) > GEOM_TOL
                ):
                    return OverlapError
    flat = tuple(v for c in new for v in c[0][1])
    for cs in old:
        poly = tuple(v for c in cs for v in c[0][1])
        if _puregeom.convex_overlap(flat, poly, GEOM_TOL):
            return OverlapError
    atlas = atlas_words(patch.alpha)
    for c in new:
        if not any(_same_vertex(patch, c[0], p) for p in points):
            continue  # a new vertex holds this one corner only
        star = [c] + [o for cs in old for o in cs if _same_vertex(patch, c[0], o[0])]
        total = sum(e - s for _p, s, e, _lab in star)
        if total > TWO_PI + 1e-7:
            return OverlapError
        if abs(total - TWO_PI) < 1e-7:
            word = "".join(lab for _p, _s, _e, lab in sorted(star, key=lambda x: x[1]))
            if canonical_word(word) not in atlas:
                return AtlasViolation
    return None


# -- fresh scans of the incremental state ----------------------------------


def assert_state_matches_fresh_scan(patch):
    single = {ek for ek, ts in patch._edges.items() if len(ts) == 1}
    assert set(patch.boundary_edges()) == single
    assert len(patch.boundary_edges()) == len(single)

    indexed = 0
    for cell, segs in patch._mid.items():
        for mx, my, ax, ay, bx, by in segs:
            assert cell == (math.floor(mx), math.floor(my))
            assert (mx, my) == ((ax + bx) / 2, (ay + by) / 2)
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


def assert_has_tile_answers(patch, popped):
    for t in patch.tiles:
        assert all(patch.has_tile(r) for r in t.anchor_reps())
    if popped is not None:
        assert not any(patch.has_tile(r) for r in popped.anchor_reps())


def assert_frontier_empty_iff_disk_closed(patch):
    cx, cy = patch.vertex_xy(0)
    single = [ek for ek, ts in patch._edges.items() if len(ts) == 1]
    # edges of the tiles at the center lie at distances sqrt(3)/2 and 1
    for r in (0.5, 0.85, math.sqrt(3) / 2, 0.99, 1.0, 2.0):
        closed = all(
            _puregeom.point_segment_dist(
                cx, cy, *patch.vertex_xy(u), *patch.vertex_xy(v)
            ) > r + GEOM_TOL
            for u, v in single
        )
        assert (not _disk_frontier(patch, (cx, cy), r)) == closed


def _close(ps, qs):
    return all(
        abs(px - qx) < GEOM_TOL and abs(py - qy) < GEOM_TOL
        for (px, py), (qx, qy) in zip(ps, qs)
    )


def _rebuilt(patch):
    fresh = Patch(patch.alpha)
    fresh.add_vertex(ORIGIN)
    for t in patch.tiles:
        fresh.add_tile(t)
    return fresh


def _next_candidate(patch, pick, which):
    """A flush candidate at the first gap of one of the three open vertices
    nearest the origin, as the completion search chooses them."""
    open_vids = sorted(
        (sum(c * c for c in patch.vertex_xy(v)), v)
        for v in patch.vertex_ids()
        if patch.gaps(v)
    )
    if not open_vids:
        return _flush_candidates(ORIGIN, Direction.of(0, 0))[which]
    vid = open_vids[pick % min(3, len(open_vids))][1]
    start = min(patch.gaps(vid), key=lambda g: g[0].value(patch.eval_rad))[0]
    return _flush_candidates(patch.vertex_point(vid), start)[which]


STEPS = st.lists(
    st.tuples(
        st.integers(0, 2),  # which of the nearest open vertices
        st.integers(0, 2),  # which flush candidate
        st.integers(0, 7),  # 0: pop the last tile, otherwise add one
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from([GENERIC, RIGHT, DECIMAL]), steps=STEPS)
def test_incremental_state_and_verdicts_match_brute_force(alpha, steps):
    patch = Patch(alpha)
    patch.add_vertex(ORIGIN)
    for pick, which, op in steps:
        popped = None
        if op == 0 and len(patch):
            popped = patch.tiles[-1]
            patch.pop_tile()
        else:
            cand = _next_candidate(patch, pick, which)
            want = reference_verdict(patch, cand)
            try:
                patch.add_tile(cand)
                got = None
            except ShieldError as exc:
                got = type(exc)
            assert got is want
        assert_state_matches_fresh_scan(patch)
        assert patch.validate().ok
        assert_has_tile_answers(patch, popped)
        assert_frontier_empty_iff_disk_closed(patch)
        if len(patch):
            twin = patch.tiles[pick % len(patch)].anchor_reps()[-1]
            with pytest.raises(OverlapError):
                patch.add_tile(twin)
    fresh = _rebuilt(patch)
    assert list(fresh.vertex_ids()) == list(patch.vertex_ids())
    for vid in patch.vertex_ids():
        assert fresh.gaps(vid) == patch.gaps(vid)
        assert fresh.star_blocks(vid) == patch.star_blocks(vid)
    assert set(fresh.boundary_edges()) == set(patch.boundary_edges())
