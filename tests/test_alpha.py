import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shieldtiles.alpha import (
    GENERIC,
    REFERENCE_ALPHA,
    make_alpha,
    parse_alpha,
)
from shieldtiles.errors import AmbiguousDecimal, NoNumericValue, OutOfRange
from shieldtiles.patterns import admitted_labels
from shieldtiles.symbolic import SymbolicAngle

SPECIAL_DEGREES = (72.0, 75.0, 80.0, 90.0, 100.0)  # exact rational values


def test_generic_is_singleton_and_symbolic():
    assert make_alpha("generic") is GENERIC
    assert GENERIC.rad is None
    with pytest.raises(NoNumericValue):
        GENERIC.radians()
    assert GENERIC.eval_radians() == REFERENCE_ALPHA


def test_rational_flags():
    right = make_alpha("rational", 1, 2)
    assert right.right_shield and not right.exceptional
    assert right.radians() == pytest.approx(math.pi / 2)
    for s, t in ((2, 5), (5, 12), (4, 9), (5, 9)):
        a = make_alpha("rational", s, t)
        assert a.exceptional and not a.right_shield
        assert a.radians() == pytest.approx(math.pi * s / t)
    assert not make_alpha("rational", 12, 25).exceptional


@pytest.mark.parametrize("s,t", [(1, 3), (2, 3), (1, 4), (5, 6)])
def test_rational_out_of_range(s, t):
    with pytest.raises(OutOfRange):
        make_alpha("rational", s, t)


@pytest.mark.parametrize("deg", [59.9, 60.0, 120.0, 130.0])
def test_decimal_out_of_range(deg):
    with pytest.raises(OutOfRange):
        make_alpha("decimal", deg)


@pytest.mark.parametrize("deg", SPECIAL_DEGREES)
def test_decimal_near_special_is_ambiguous(deg):
    with pytest.raises(AmbiguousDecimal):
        make_alpha("decimal", deg)


def test_decimal_just_off_special_is_accepted():
    a = make_alpha("decimal", 90.001)
    assert a.kind == "decimal" and not a.right_shield


def test_parse_alpha_forms():
    assert parse_alpha("generic") is GENERIC
    assert parse_alpha("1/2").right_shield
    assert parse_alpha("99.34").radians() == pytest.approx(
        math.radians(99.34)
    )


@given(
    st.floats(min_value=60.01, max_value=119.99).filter(
        lambda d: all(abs(d - sp) > 1e-6 for sp in SPECIAL_DEGREES)
    )
)
def test_decimal_roundtrip(deg):
    a = make_alpha("decimal", deg)
    assert a.radians() == pytest.approx(math.radians(deg))
    assert math.pi / 3 < a.radians() < 2 * math.pi / 3


def test_exceptional_fractions_come_from_the_atlas():
    from fractions import Fraction

    from shieldtiles.atlas import exceptional_alphas

    specs = exceptional_alphas()
    assert sorted(spec.frac for spec in specs) == [
        Fraction(2, 5), Fraction(5, 12), Fraction(4, 9), Fraction(5, 9),
    ]
    assert all(spec.exceptional for spec in specs)


def test_equal_specs_hash_equal_and_share_a_cache_entry():
    a, b = make_alpha("rational", 1, 2), make_alpha("rational", 1, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_alpha("rational", 5, 12) != make_alpha("decimal", 75.0001)
    gap = SymbolicAngle(6, -2)  # two right angles
    admitted_labels(gap, a)
    before = admitted_labels.cache_info()
    assert admitted_labels(gap, b) == admitted_labels(gap, a)
    after = admitted_labels.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 2
    # a loaded spec takes its hash again
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a) and {a: 1}[c] == 1
