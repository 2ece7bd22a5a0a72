"""Exact angle and position arithmetic.

Angles live in the integer lattice a*pi/3 + b*alpha.  Positions are sparse
integer combinations sum_b (u_b + v_b*w) * e^(i*b*alpha) with w = e^(i*pi/3),
reduced to the {1, w} basis via w^2 = w - 1.  For generic alpha the powers
e^(i*b*alpha) are independent, so equality of coefficient maps is exact
geometric equality.  For rational and decimal alpha, a patch takes two
points within GEOM_TOL (1e-6) for one vertex, numeric keys round
coordinates to 6 decimals, and angles at a decimal alpha compare within
TOL (1e-9).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

from .alpha import TOL, AlphaSpec

PI3 = math.pi / 3.0
TWO_PI = 2.0 * math.pi

# w^a in the {1, w} basis, a = 0..5.
OMEGA_POW = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# w = e^(i*pi/3) as a float
OMEGA = cmath.exp(1j * PI3)


def _eis_mul(u1: int, v1: int, u2: int, v2: int) -> tuple[int, int]:
    # (u1 + v1 w)(u2 + v2 w) with w^2 = w - 1
    return (u1 * u2 - v1 * v2, u1 * v2 + v1 * u2 + v1 * v2)


@dataclass(frozen=True, order=True)
class SymbolicAngle:
    """An angle a*pi/3 + b*alpha with integer coefficients."""

    a: int
    b: int

    def __add__(self, other: "SymbolicAngle") -> "SymbolicAngle":
        return SymbolicAngle(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "SymbolicAngle") -> "SymbolicAngle":
        return SymbolicAngle(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "SymbolicAngle":
        return SymbolicAngle(-self.a, -self.b)

    def __mul__(self, n: int) -> "SymbolicAngle":
        return SymbolicAngle(self.a * n, self.b * n)

    __rmul__ = __mul__

    def value(self, alpha_rad: float) -> float:
        return self.a * PI3 + self.b * alpha_rad


ANGLE_A = SymbolicAngle(0, 1)  # alpha, the sharp shield corner
ANGLE_B = SymbolicAngle(4, -1)  # beta = 4pi/3 - alpha
ANGLE_T = SymbolicAngle(1, 0)  # pi/3, the triangle corner
FULL_TURN = SymbolicAngle(6, 0)
HALF_TURN = SymbolicAngle(3, 0)


@dataclass(frozen=True, order=True)
class Direction:
    """An edge direction a*pi/3 + b*alpha, with a normalized into [0, 6)."""

    a: int
    b: int

    @staticmethod
    def of(a: int, b: int) -> "Direction":
        return Direction(a % 6, b)

    def plus(self, ang: SymbolicAngle) -> "Direction":
        return Direction.of(self.a + ang.a, self.b + ang.b)

    def minus(self, other: "Direction") -> SymbolicAngle:
        return SymbolicAngle(self.a - other.a, self.b - other.b)

    def value(self, alpha_rad: float) -> float:
        return (self.a * PI3 + self.b * alpha_rad) % TWO_PI


@dataclass(frozen=True)
class ExactPoint:
    """Sparse exact point: coeffs is a sorted tuple of (b, u, v) triples."""

    coeffs: tuple[tuple[int, int, int], ...] = ()

    @staticmethod
    def from_dict(d: dict[int, tuple[int, int]]) -> "ExactPoint":
        items = tuple(
            sorted((b, u, v) for b, (u, v) in d.items() if (u, v) != (0, 0))
        )
        return ExactPoint(items)

    def _combine(self, other: "ExactPoint", sign: int) -> "ExactPoint":
        # merge the two sorted coefficient tuples, dropping zero sums
        xs, ys = self.coeffs, other.coeffs
        out = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            bx, ux, vx = xs[i]
            by, uy, vy = ys[j]
            if bx < by:
                out.append(xs[i])
                i += 1
            elif by < bx:
                out.append((by, sign * uy, sign * vy))
                j += 1
            else:
                u, v = ux + sign * uy, vx + sign * vy
                if u or v:
                    out.append((bx, u, v))
                i += 1
                j += 1
        out.extend(xs[i:])
        out.extend((b, sign * u, sign * v) for b, u, v in ys[j:])
        return ExactPoint(tuple(out))

    def __add__(self, other: "ExactPoint") -> "ExactPoint":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactPoint") -> "ExactPoint":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactPoint":
        return ExactPoint(tuple((b, -u, -v) for b, u, v in self.coeffs))

    def scaled(self, n: int) -> "ExactPoint":
        if n == 0:
            return ExactPoint()
        return ExactPoint(tuple((b, n * u, n * v) for b, u, v in self.coeffs))

    def step(self, d: Direction) -> "ExactPoint":
        """This point plus the unit vector w^a * e^(i*b*alpha)."""
        return self + unit_vector(d)

    def rotated(self, ang: SymbolicAngle) -> "ExactPoint":
        """Rotation about the origin by a*pi/3 + b*alpha."""
        # every b shifts by the same amount and w^a is a unit, so the
        # triples stay sorted and nonzero
        wu, wv = OMEGA_POW[ang.a % 6]
        return ExactPoint(tuple(
            (b + ang.b, *_eis_mul(u, v, wu, wv)) for b, u, v in self.coeffs
        ))

    def conj(self) -> "ExactPoint":
        """Reflection across the real axis."""
        # b -> -b reverses the order; (u + v, -v) is nonzero with (u, v)
        return ExactPoint(tuple(
            (-b, u + v, -v) for b, u, v in reversed(self.coeffs)
        ))

    def eval(self, alpha_rad: float) -> complex:
        z = 0j
        for b, u, v in self.coeffs:
            z += (u + v * OMEGA) * cmath.exp(1j * b * alpha_rad)
        return z

    def xy(self, alpha_rad: float) -> tuple[float, float]:
        z = self.eval(alpha_rad)
        return (z.real, z.imag)


def unit_vector(d: Direction) -> ExactPoint:
    u, v = OMEGA_POW[d.a % 6]
    return ExactPoint.from_dict({d.b: (u, v)})


def lattice_points(v1: ExactPoint, v2: ExactPoint, reach: float, rad: float):
    """Integer combinations (i, j, i*v1 + j*v2) with |i*v1 + j*v2| <= reach,
    i then j ascending."""
    x1, y1 = v1.xy(rad)
    x2, y2 = v2.xy(rad)
    pitch = min(math.hypot(x1, y1), math.hypot(x2, y2))
    m = int(reach / pitch * 2.0) + 2
    out = []
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            x = i * x1 + j * x2
            y = i * y1 + j * y2
            if math.hypot(x, y) <= reach + 1e-9:
                out.append((i, j, v1.scaled(i) + v2.scaled(j)))
    return out


def angle_sum(angles: Iterable[SymbolicAngle]) -> SymbolicAngle:
    a = b = 0
    for x in angles:
        a += x.a
        b += x.b
    return SymbolicAngle(a, b)


def same_angle(x: SymbolicAngle, y: SymbolicAngle, alpha: AlphaSpec) -> bool:
    """True iff x = y under the given alpha: exact for generic and rational
    alpha, within TOL for decimal alpha."""
    if alpha.kind == "generic":
        return x == y
    d = x - y
    if alpha.kind == "rational":
        # in units of pi/(3t) for alpha = s*pi/t
        return d.a * alpha.frac.denominator + 3 * alpha.frac.numerator * d.b == 0
    return abs(d.value(alpha.radians())) < TOL


def full_turn_check(angles: Iterable[SymbolicAngle], alpha: AlphaSpec) -> bool:
    """True iff the angles sum to exactly 2*pi under the given alpha."""
    return same_angle(angle_sum(angles), FULL_TURN, alpha)
