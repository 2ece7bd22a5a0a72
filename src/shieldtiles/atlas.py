"""Vertex configuration atlas.

At a tiling vertex, p sharp shield corners (A), q wide shield corners (B)
and r triangle corners (T) must satisfy p*alpha + q*beta + r*pi/3 = 2*pi.
Since alpha > pi/3 forces p <= 5, beta > 2*pi/3 forces q <= 2 and r <= 6,
the search space is a small box and the atlas is computed by exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .alpha import AlphaSpec, make_alpha
from .symbolic import (
    ANGLE_A,
    ANGLE_B,
    ANGLE_T,
    SymbolicAngle,
    full_turn_check,
    same_angle,
)

LABEL_ANGLES = {"A": ANGLE_A, "B": ANGLE_B, "T": ANGLE_T}

P_MAX, Q_MAX, R_MAX = 5, 2, 6


@dataclass(frozen=True, order=True)
class VertexCounts:
    """Corner multiplicities at a full vertex."""

    p: int  # A corners
    q: int  # B corners
    r: int  # T corners

    def angles(self) -> list[SymbolicAngle]:
        return [ANGLE_A] * self.p + [ANGLE_B] * self.q + [ANGLE_T] * self.r

    def word_multiset(self) -> str:
        return "A" * self.p + "B" * self.q + "T" * self.r


def canonical_word(word: str) -> str:
    """Least representative of a cyclic word under rotation and reflection."""
    n = len(word)
    if n == 0:
        return word
    best = None
    for w in (word, word[::-1]):
        for i in range(n):
            cand = w[i:] + w[:i]
            if best is None or cand < best:
                best = cand
    return best


@dataclass(frozen=True, order=True)
class VertexConfig:
    """A cyclic corner word around a vertex, stored in canonical form."""

    word: str

    def __post_init__(self):
        object.__setattr__(self, "word", canonical_word(self.word))

    def counts(self) -> VertexCounts:
        return VertexCounts(
            self.word.count("A"), self.word.count("B"), self.word.count("T")
        )

    def __str__(self) -> str:
        return " ".join(self.word)


def solve_vertex_equation(alpha: AlphaSpec) -> set[VertexCounts]:
    """All (p, q, r) with p*alpha + q*beta + r*pi/3 = 2*pi for this alpha."""
    out = set()
    for p in range(P_MAX + 1):
        for q in range(Q_MAX + 1):
            for r in range(R_MAX + 1):
                if p + q + r == 0:
                    continue
                c = VertexCounts(p, q, r)
                if full_turn_check(c.angles(), alpha):
                    out.add(c)
    return out


def configs_from_counts(c: VertexCounts) -> set[VertexConfig]:
    """All distinct cyclic arrangements of the corner multiset."""
    return {VertexConfig("".join(p)) for p in permutations(c.word_multiset())}


@lru_cache(maxsize=None)
def atlas_configs(alpha: AlphaSpec) -> frozenset[VertexConfig]:
    """Every cyclic arrangement of every solution of the vertex equation."""
    configs = set()
    for c in solve_vertex_equation(alpha):
        configs |= configs_from_counts(c)
    return frozenset(configs)


def atlas_words(alpha: AlphaSpec) -> frozenset[str]:
    return frozenset(c.word for c in atlas_configs(alpha))


def exceptional_alphas(include_right: bool = False) -> dict[AlphaSpec, VertexCounts]:
    """Alphas admitting extra configurations, each with one witness triple.

    Scans p != q within the bounds, solving alpha = pi*(6-4q-r)/(3(p-q)) and
    keeping values strictly inside (pi/3, 2pi/3).  alpha = pi/2 is excluded
    unless include_right is set.
    """
    found: dict[AlphaSpec, VertexCounts] = {}
    for p in range(P_MAX + 1):
        for q in range(Q_MAX + 1):
            if p == q:
                continue
            for r in range(R_MAX + 1):
                frac = Fraction(6 - 4 * q - r, 3 * (p - q))
                if not Fraction(1, 3) < frac < Fraction(2, 3):
                    continue
                if frac == Fraction(1, 2) and not include_right:
                    continue
                spec = make_alpha("rational", frac.numerator, frac.denominator)
                if spec not in found:
                    found[spec] = VertexCounts(p, q, r)
    return found


# ---------------------------------------------------------------------------
# Gap feasibility: can an angular gap be filled by non-negative corner counts?
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gap_feasible(gap: SymbolicAngle, alpha: AlphaSpec) -> bool:
    """True iff gap = p*alpha + q*beta + r*pi/3 has a non-negative solution.

    This is the mechanical version of the completion argument: a frontier
    gap that no corner combination can fill exactly kills the branch.  A gap
    is less than a full turn, so the counts of a solution lie in the atlas
    box p <= P_MAX, q <= Q_MAX, r <= R_MAX.
    """
    return any(
        same_angle(gap, p * ANGLE_A + q * ANGLE_B + r * ANGLE_T, alpha)
        for p in range(P_MAX + 1)
        for q in range(Q_MAX + 1)
        for r in range(R_MAX + 1)
    )
