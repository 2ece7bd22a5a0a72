"""Pure-Python numeric geometry predicates.

Hot kernels of patch building and enumeration: convex-polygon overlap
(separating axes), point/segment distance and polygon/point distance.
Polygons are flat coordinate tuples (x0, y0, x1, y1, ...), convex, CCW.
"""

from __future__ import annotations

import math


def convex_overlap(p1, p2, tol: float) -> bool:
    """True iff the interiors of two convex CCW polygons intersect.

    Separating-axis test over both polygons' edge normals; contact along
    edges or vertices within tol does not count as overlap.
    """
    for poly_a, poly_b in ((p1, p2), (p2, p1)):
        n = len(poly_a) // 2
        for i in range(n):
            ax = poly_a[2 * i]
            ay = poly_a[2 * i + 1]
            bx = poly_a[(2 * i + 2) % (2 * n)]
            by = poly_a[(2 * i + 3) % (2 * n)]
            # outward normal of CCW edge
            nx = by - ay
            ny = ax - bx
            # max projection of poly_a onto the axis is at this edge
            ref = nx * ax + ny * ay
            m = len(poly_b) // 2
            mn = math.inf
            for j in range(m):
                d = nx * poly_b[2 * j] + ny * poly_b[2 * j + 1]
                if d < mn:
                    mn = d
            if mn >= ref - tol * math.hypot(nx, ny):
                return False
    return True


def point_segment_dist(px, py, ax, ay, bx, by) -> float:
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    c1 = vx * wx + vy * wy
    if c1 <= 0.0:
        return math.hypot(wx, wy)
    c2 = vx * vx + vy * vy
    if c2 <= c1:
        return math.hypot(px - bx, py - by)
    t = c1 / c2
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def poly_point_dist(poly, px, py) -> float:
    """Distance from a point to a convex CCW polygon (0 if inside)."""
    n = len(poly) // 2
    inside = True
    best = math.inf
    for i in range(n):
        ax = poly[2 * i]
        ay = poly[2 * i + 1]
        bx = poly[(2 * i + 2) % (2 * n)]
        by = poly[(2 * i + 3) % (2 * n)]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross < 0.0:
            inside = False
        d = point_segment_dist(px, py, ax, ay, bx, by)
        if d < best:
            best = d
    return 0.0 if inside else best

