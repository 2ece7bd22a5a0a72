import math
import os
import random
import subprocess
import sys

import pytest

from shieldtiles import _puregeom

H = math.sqrt(3) / 2
UP = (0.0, 0.0, 1.0, 0.0, 0.5, H)  # unit triangle above the x axis
DOWN = (0.0, 0.0, 0.5, -H, 1.0, 0.0)  # its mirror image below
SQUARE = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)


def _fastgeom():
    return pytest.importorskip(
        "shieldtiles._fastgeom", reason="compiled kernel not built"
    )


def _random_convex(rng, n):
    cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
    rot = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0.4, 1.5)
    return tuple(
        c
        for i in range(n)
        for c in (
            cx + r * math.cos(rot + 2 * math.pi * i / n),
            cy + r * math.sin(rot + 2 * math.pi * i / n),
        )
    )


def test_kernel_parity_on_random_inputs():
    fastgeom = _fastgeom()
    rng = random.Random(20240817)
    tol = 1e-6
    for _ in range(3000):
        a = _random_convex(rng, rng.choice((3, 4, 6)))
        b = _random_convex(rng, rng.choice((3, 4, 6)))
        px, py = rng.uniform(-4, 4), rng.uniform(-4, 4)
        assert fastgeom.convex_overlap(a, b, tol) == _puregeom.convex_overlap(
            a, b, tol
        )
        assert fastgeom.poly_point_dist(a, px, py) == pytest.approx(
            _puregeom.poly_point_dist(a, px, py), abs=1e-12
        )
        assert fastgeom.point_in_convex(a, px, py, tol) == (
            _puregeom.point_in_convex(a, px, py, tol)
        )
        assert fastgeom.point_segment_dist(
            px, py, a[0], a[1], a[2], a[3]
        ) == pytest.approx(
            _puregeom.point_segment_dist(px, py, a[0], a[1], a[2], a[3]),
            abs=1e-12,
        )


def _shifted(poly, dx, dy):
    return tuple(c + (dy if i % 2 else dx) for i, c in enumerate(poly))


def test_touching_tiles_do_not_overlap():
    fastgeom = _fastgeom()
    for mod in (fastgeom, _puregeom):
        assert not mod.convex_overlap(UP, DOWN, 1e-6)
        # pushed into each other by more than the tolerance: real overlap
        assert mod.convex_overlap(UP, _shifted(DOWN, 0.0, 0.001), 1e-6)


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


def test_selector_env_override():
    _fastgeom()
    code = "from shieldtiles.geomkernel import IMPL; print(IMPL)"
    env = dict(os.environ, SHIELDTILES_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"
    env.pop("SHIELDTILES_PURE")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "compiled"
