"""Numeric geometry kernel.

The package calls the predicates of `_puregeom` through this module as
gk.<fn>, so there is one place to look them up.
"""

from __future__ import annotations

from ._puregeom import convex_overlap, point_segment_dist, poly_point_dist

IMPL = "pure"

__all__ = ["IMPL", "convex_overlap", "point_segment_dist", "poly_point_dist"]
