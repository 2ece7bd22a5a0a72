# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of the pure-Python geometry predicates.

Same contracts as the pure module: convex polygons as flat coordinate
tuples (x0, y0, x1, y1, ...), convex, CCW.
"""

from libc.math cimport hypot, INFINITY

IMPL = "compiled"

DEF MAXV = 16  # tiles have at most 6 corners; leave head room


cdef int _load(object poly, double* xs, double* ys) except -1:
    cdef int n = len(poly) // 2
    if n > MAXV:
        raise ValueError("polygon has too many vertices")
    cdef int i
    for i in range(n):
        xs[i] = poly[2 * i]
        ys[i] = poly[2 * i + 1]
    return n


cdef bint _separated(double* axs, double* ays, int na,
                     double* bxs, double* bys, int nb, double tol):
    cdef int i, j
    cdef double ax, ay, bx, by, nx, ny, ref, mn, d
    for i in range(na):
        ax = axs[i]
        ay = ays[i]
        bx = axs[(i + 1) % na]
        by = ays[(i + 1) % na]
        nx = by - ay
        ny = ax - bx
        ref = nx * ax + ny * ay
        mn = INFINITY
        for j in range(nb):
            d = nx * bxs[j] + ny * bys[j]
            if d < mn:
                mn = d
        if mn >= ref - tol * hypot(nx, ny):
            return True
    return False


def convex_overlap(p1, p2, double tol):
    """True iff the interiors of two convex CCW polygons intersect."""
    cdef double axs[MAXV]
    cdef double ays[MAXV]
    cdef double bxs[MAXV]
    cdef double bys[MAXV]
    cdef int na = _load(p1, axs, ays)
    cdef int nb = _load(p2, bxs, bys)
    if _separated(axs, ays, na, bxs, bys, nb, tol):
        return False
    if _separated(bxs, bys, nb, axs, ays, na, tol):
        return False
    return True


cdef double _pt_seg(double px, double py, double ax, double ay,
                    double bx, double by):
    cdef double vx = bx - ax
    cdef double vy = by - ay
    cdef double wx = px - ax
    cdef double wy = py - ay
    cdef double c1 = vx * wx + vy * wy
    cdef double c2, t
    if c1 <= 0.0:
        return hypot(wx, wy)
    c2 = vx * vx + vy * vy
    if c2 <= c1:
        return hypot(px - bx, py - by)
    t = c1 / c2
    return hypot(px - (ax + t * vx), py - (ay + t * vy))


def point_segment_dist(double px, double py, double ax, double ay,
                       double bx, double by):
    return _pt_seg(px, py, ax, ay, bx, by)


def poly_point_dist(poly, double px, double py):
    """Distance from a point to a convex CCW polygon (0 if inside)."""
    cdef double xs[MAXV]
    cdef double ys[MAXV]
    cdef int n = _load(poly, xs, ys)
    cdef int i
    cdef bint inside = True
    cdef double best = INFINITY
    cdef double ax, ay, bx, by, cross, d
    for i in range(n):
        ax = xs[i]
        ay = ys[i]
        bx = xs[(i + 1) % n]
        by = ys[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross < 0.0:
            inside = False
        d = _pt_seg(px, py, ax, ay, bx, by)
        if d < best:
            best = d
    return 0.0 if inside else best


def point_in_convex(poly, double px, double py, double tol):
    """True iff the point lies in the closed polygon, fattened by tol."""
    cdef double xs[MAXV]
    cdef double ys[MAXV]
    cdef int n = _load(poly, xs, ys)
    cdef int i
    cdef double ax, ay, bx, by, cross
    for i in range(n):
        ax = xs[i]
        ay = ys[i]
        bx = xs[(i + 1) % n]
        by = ys[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross < -tol * hypot(bx - ax, by - ay):
            return False
    return True
