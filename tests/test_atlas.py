import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import (
    LABEL_ANGLES,
    P_MAX,
    Q_MAX,
    R_MAX,
    VertexConfig,
    atlas_words,
    canonical_word,
    configs_from_counts,
    exceptional_alphas,
    gap_feasible,
    solve_vertex_equation,
)
from shieldtiles.patterns import (
    ExtendableWitness,
    ProvenImpossible,
    is_config_extendable,
    star_completable,
)
from shieldtiles.symbolic import SymbolicAngle, full_turn_check

RIGHT = make_alpha("rational", 1, 2)


def test_generic_atlas_words():
    assert atlas_words(GENERIC) == {"TTTTTT", "ATBT", "ABTT"}


def test_right_shield_atlas_words():
    assert atlas_words(RIGHT) == {
        "TTTTTT",
        "ATBT",
        "ABTT",
        "AAAA",
        "BBT",
        "AATTT",
        "ATATT",
    }


@pytest.mark.parametrize(
    "alpha",
    [GENERIC, RIGHT, make_alpha("decimal", 99.34), make_alpha("rational", 2, 5)],
)
def test_counts_against_triple_loop_oracle(alpha):
    # independent exhaustive scan of the vertex angle equation
    counts = solve_vertex_equation(alpha)
    for c in counts:
        assert full_turn_check(c.angles(), alpha)
    seen = {(c.p, c.q, c.r) for c in counts}
    for p, q, r in product(range(P_MAX + 1), range(Q_MAX + 1), range(R_MAX + 1)):
        angles = (
            [LABEL_ANGLES["A"]] * p
            + [LABEL_ANGLES["B"]] * q
            + [LABEL_ANGLES["T"]] * r
        )
        assert full_turn_check(angles, alpha) == ((p, q, r) in seen)


def test_exceptional_set_and_witnesses():
    table = exceptional_alphas()
    by_frac = {a.frac: (c.p, c.q, c.r) for a, c in table.items()}
    assert by_frac == {
        Fraction(2, 5): (5, 0, 0),
        Fraction(5, 12): (4, 0, 1),
        Fraction(4, 9): (3, 0, 2),
        Fraction(5, 9): (3, 0, 1),
    }


def test_exceptional_scan_with_right_shield():
    extra = set(exceptional_alphas(include_right=True)) - set(
        exceptional_alphas()
    )
    assert {a.frac for a in extra} == {Fraction(1, 2)}


def test_right_shield_extra_triples():
    base = {(c.p, c.q, c.r) for c in solve_vertex_equation(GENERIC)}
    right = {(c.p, c.q, c.r) for c in solve_vertex_equation(RIGHT)}
    assert right - base == {(4, 0, 0), (2, 0, 3), (0, 2, 1)}


words = st.text(alphabet="ABT", min_size=1, max_size=8)


@given(words)
def test_canonical_word_invariance(w):
    c = canonical_word(w)
    for i in range(len(w)):
        assert canonical_word(w[i:] + w[:i]) == c
    assert canonical_word(w[::-1]) == c


def test_configs_from_counts_as_necklaces():
    # (p,q,r) = (1,1,2): necklaces of {A,B,T,T} under rotation+reflection
    cfgs = configs_from_counts(next(
        c for c in solve_vertex_equation(GENERIC) if (c.p, c.q, c.r) == (1, 1, 2)
    ))
    assert {c.word for c in cfgs} == {"ATBT", "ABTT"}


@pytest.mark.parametrize(
    "alpha",
    [GENERIC, RIGHT, make_alpha("decimal", 110), make_alpha("rational", 5, 12)],
)
def test_gap_feasible_matches_bruteforce(alpha):
    # oracle: all angle sums achievable with p<=P_MAX etc. corner copies
    achievable = set()
    for p, q, r in product(range(P_MAX + 1), range(Q_MAX + 1), range(R_MAX + 1)):
        ang = (
            p * LABEL_ANGLES["A"] + q * LABEL_ANGLES["B"] + r * LABEL_ANGLES["T"]
        )
        achievable.add(ang.value(alpha.eval_radians()))
    for a in range(0, 7):
        for b in range(-2, 3):
            gap = SymbolicAngle(a, b)
            val = gap.value(alpha.eval_radians())
            if not 0.0 < val <= 2 * math.pi + 1e-9:
                continue
            expect = any(abs(val - x) < 1e-9 for x in achievable)
            assert gap_feasible(gap, alpha) == expect, (a, b)


def test_star_completable_basics():
    # a lone triangle corner extends to every atlas word containing T
    assert star_completable(
        [("word", "T"), ("gap", SymbolicAngle(5, 0))], GENERIC
    )
    # two sharp shield corners flush together never appear at generic alpha
    assert not star_completable(
        [("word", "AA"), ("gap", SymbolicAngle(6, 0) - 2 * LABEL_ANGLES["A"])],
        GENERIC,
    )
    # but they do for the right shield (four right angles)
    assert star_completable(
        [("word", "AA"), ("gap", SymbolicAngle(6, 0) - 2 * LABEL_ANGLES["A"])],
        RIGHT,
    )


def test_bowtie_is_extendable():
    res = is_config_extendable(VertexConfig("ATBT"), GENERIC, depth=1)
    assert isinstance(res, ExtendableWitness)
    assert res.patch.validate().ok


def test_exceptional_config_impossible():
    alpha = make_alpha("rational", 2, 5)
    res = is_config_extendable(VertexConfig("AAAAA"), alpha, depth=3)
    assert isinstance(res, ProvenImpossible)
