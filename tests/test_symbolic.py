import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.symbolic import (
    ANGLE_A,
    ANGLE_B,
    ANGLE_T,
    FULL_TURN,
    Direction,
    ExactPoint,
    SymbolicAngle,
    full_turn_check,
    unit_vector,
)

ALPHA = math.radians(99.0)

angles = st.builds(
    SymbolicAngle,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-4, max_value=4),
)
points = st.builds(
    lambda items: ExactPoint.from_dict(dict(items)),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.tuples(
                st.integers(min_value=-4, max_value=4),
                st.integers(min_value=-4, max_value=4),
            ),
        ),
        max_size=4,
    ),
)
directions = st.builds(
    Direction.of,
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-3, max_value=3),
)


def _normalized(p: ExactPoint) -> ExactPoint:
    """p rebuilt from its coefficient map: sorted, with no zero entries."""
    return ExactPoint.from_dict({b: (u, v) for b, u, v in p.coeffs})


def test_corner_angle_constants():
    # the three tile corner angles: alpha, beta = 4pi/3 - alpha, pi/3
    assert ANGLE_A.value(ALPHA) == pytest.approx(ALPHA)
    assert ANGLE_B.value(ALPHA) == pytest.approx(4 * math.pi / 3 - ALPHA)
    assert ANGLE_T.value(ALPHA) == pytest.approx(math.pi / 3)
    assert (3 * (ANGLE_A + ANGLE_B)).value(ALPHA) == pytest.approx(
        2 * (FULL_TURN.value(ALPHA))
    )


@given(angles, angles)
def test_angle_arithmetic(x, y):
    assert (x + y).value(ALPHA) == pytest.approx(x.value(ALPHA) + y.value(ALPHA))
    assert (x - y).value(ALPHA) == pytest.approx(x.value(ALPHA) - y.value(ALPHA))
    assert (-x).value(ALPHA) == pytest.approx(-x.value(ALPHA))
    assert (3 * x).value(ALPHA) == pytest.approx(3 * x.value(ALPHA))


@given(directions, angles)
def test_direction_plus_minus(d, ang):
    e = d.plus(ang)
    diff = e.minus(d)
    # minus recovers the angle up to full turns of pi/3 wrap
    assert (diff - ang).b == 0
    assert (diff - ang).a % 6 == 0


@given(points, directions)
def test_step_matches_unit_vector(p, d):
    q = p.step(d)
    assert q == p + unit_vector(d)
    x0, y0 = p.xy(ALPHA)
    x1, y1 = q.xy(ALPHA)
    t = d.value(ALPHA)
    assert x1 - x0 == pytest.approx(math.cos(t))
    assert y1 - y0 == pytest.approx(math.sin(t))


@given(points, angles)
def test_rotation_matches_numeric(p, ang):
    q = p.rotated(ang)
    x, y = p.xy(ALPHA)
    t = ang.value(ALPHA)
    rx = x * math.cos(t) - y * math.sin(t)
    ry = x * math.sin(t) + y * math.cos(t)
    qx, qy = q.xy(ALPHA)
    assert qx == pytest.approx(rx, abs=1e-9)
    assert qy == pytest.approx(ry, abs=1e-9)
    # vertex identity and keys compare coefficient tuples: q must be in the
    # canonical form (sorted, no zero entries)
    assert q == _normalized(q)


@given(points)
def test_conjugation_involution(p):
    assert p.conj().conj() == p
    assert p.conj() == _normalized(p.conj())
    x, y = p.xy(ALPHA)
    cx, cy = p.conj().xy(ALPHA)
    assert cx == pytest.approx(x, abs=1e-9)
    assert cy == pytest.approx(-y, abs=1e-9)


@given(points)
def test_full_turn_rotation_is_identity(p):
    assert p.rotated(FULL_TURN) == p


@given(points, points)
def test_point_group_laws(p, q):
    assert p + q == q + p
    assert (p + q) - q == p
    assert p - p == ExactPoint()


def _combined_by_map(p: ExactPoint, q: ExactPoint, sign: int) -> ExactPoint:
    # the reference: add q's coefficient map, times sign, into p's
    d = {b: (u, v) for b, u, v in p.coeffs}
    for b, u, v in q.coeffs:
        cu, cv = d.get(b, (0, 0))
        d[b] = (cu + sign * u, cv + sign * v)
    return ExactPoint.from_dict(d)


@given(points, points)
def test_sum_and_difference_match_the_coefficient_map_sum(p, q):
    assert (p + q).coeffs == _combined_by_map(p, q, 1).coeffs
    assert (p - q).coeffs == _combined_by_map(p, q, -1).coeffs
    # equal b with opposite coefficients cancel
    assert (p + (-p)).coeffs == ()


def test_full_turn_check_generic_and_rational():
    hexa = [ANGLE_T] * 6
    bowtie = [ANGLE_A, ANGLE_T, ANGLE_B, ANGLE_T]
    assert full_turn_check(hexa, GENERIC)
    assert full_turn_check(bowtie, GENERIC)
    assert not full_turn_check([ANGLE_A] * 4, GENERIC)
    right = make_alpha("rational", 1, 2)
    assert full_turn_check([ANGLE_A] * 4, right)  # 4 right angles
    assert full_turn_check([ANGLE_B, ANGLE_B, ANGLE_T], right)
    fifth = make_alpha("rational", 2, 5)
    assert full_turn_check([ANGLE_A] * 5, fifth)
