import math

import pytest

from shieldtiles import _puregeom

H = math.sqrt(3) / 2
UP = (0.0, 0.0, 1.0, 0.0, 0.5, H)  # unit triangle above the x axis
DOWN = (0.0, 0.0, 0.5, -H, 1.0, 0.0)  # its mirror image below
SQUARE = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)


def _shifted(poly, dx, dy):
    return tuple(c + (dy if i % 2 else dx) for i, c in enumerate(poly))


def test_pure_point_segment_dist():
    psd = _puregeom.point_segment_dist
    # foot of the perpendicular inside the segment
    assert psd(0.5, 2.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)
    assert psd(0.25, -0.5, 0.0, 0.0, 1.0, 0.0) == pytest.approx(0.5)
    # beyond either end: distance to the nearer endpoint (3-4-5 triangles)
    assert psd(-3.0, 4.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(5.0)
    assert psd(4.0, -4.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(5.0)
    # on the segment, and a degenerate segment
    assert psd(0.3, 0.0, 0.0, 0.0, 1.0, 0.0) == 0.0
    assert psd(3.0, 4.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(5.0)
    # slanted segment from (0, 0) to (1, 1): (1, 0) is 1/sqrt(2) away
    assert psd(1.0, 0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(math.sqrt(0.5))


def test_pure_convex_overlap_shared_edge_within_tolerance():
    tol = 1e-6
    assert not _puregeom.convex_overlap(UP, DOWN, tol)
    assert not _puregeom.convex_overlap(DOWN, UP, tol)
    # pushed together by a tenth of the tolerance: still only contact
    assert not _puregeom.convex_overlap(UP, _shifted(DOWN, 0.0, tol / 10), tol)
    # pushed together by ten times the tolerance: the interiors meet
    assert _puregeom.convex_overlap(UP, _shifted(DOWN, 0.0, 10 * tol), tol)
    # squares side by side touch; shifted by half a side they overlap
    assert not _puregeom.convex_overlap(SQUARE, _shifted(SQUARE, 1.0, 0.0), tol)
    assert _puregeom.convex_overlap(SQUARE, _shifted(SQUARE, 0.5, 0.5), tol)
    # corner contact only, and far apart
    assert not _puregeom.convex_overlap(SQUARE, _shifted(SQUARE, 1.0, 1.0), tol)
    assert not _puregeom.convex_overlap(SQUARE, _shifted(SQUARE, 5.0, 0.0), tol)
    # a polygon overlaps itself and anything it contains
    assert _puregeom.convex_overlap(UP, UP, tol)
    small = (0.4, 0.2, 0.6, 0.2, 0.5, 0.4)
    assert _puregeom.convex_overlap(UP, small, tol)
    assert _puregeom.convex_overlap(small, UP, tol)


def test_pure_poly_point_dist():
    ppd = _puregeom.poly_point_dist
    # inside and on the boundary: 0
    assert ppd(SQUARE, 0.5, 0.5) == 0.0
    assert ppd(SQUARE, 1.0, 0.5) == 0.0
    assert ppd(SQUARE, 0.0, 0.0) == 0.0
    # facing an edge, and facing a corner
    assert ppd(SQUARE, 3.0, 0.5) == pytest.approx(2.0)
    assert ppd(SQUARE, 0.5, -0.25) == pytest.approx(0.25)
    assert ppd(SQUARE, 4.0, 5.0) == pytest.approx(5.0)
    # the triangle's apex is sqrt(3)/2 above the midpoint of its base
    assert ppd(UP, 0.5, -1.0) == pytest.approx(1.0)
    assert ppd(UP, 0.5, H + 2.0) == pytest.approx(2.0)
    assert ppd(UP, 0.5, H / 3) == 0.0

