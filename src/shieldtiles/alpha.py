"""The shield angle parameter.

A shield is a unit-edge hexagon whose angles alternate between alpha and
beta = 4*pi/3 - alpha, with alpha restricted to the open interval
(pi/3, 2*pi/3).  Alpha can be kept generic (purely symbolic), pinned to an
exact rational multiple of pi, or given as a decimal in degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import AmbiguousDecimal, NoNumericValue, OutOfRange

TOL = 1e-9


@lru_cache(maxsize=None)
def _exceptional_fractions() -> tuple[Fraction, ...]:
    """alpha/pi values at which extra vertex configurations exist (right
    shield excluded; it gets its own flag), as the atlas finds them."""
    from .atlas import exceptional_alphas  # atlas imports this module

    return tuple(sorted(spec.frac for spec in exceptional_alphas()))


#: numeric alpha used to draw or order generic patches; any value in the
#: open interval works, 99 degrees keeps generic output visually distinct
#: from the disk-packing value 99.34.
REFERENCE_ALPHA = math.radians(99.0)


@dataclass(frozen=True)
class AlphaSpec:
    """Normalized shield angle: generic, s*pi/t, or a decimal in radians."""

    kind: str  # "generic" | "rational" | "decimal"
    frac: Fraction | None = None  # alpha/pi, for the rational kind
    rad: float | None = None  # numeric value, rational and decimal kinds
    # the hash of the compared fields, computed once: the search's cached
    # helpers look a spec up at every node, and Fraction hashes slowly
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.frac, self.rad)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, so that the hash is taken again in the loading process
        return AlphaSpec, (self.kind, self.frac, self.rad)

    @property
    def right_shield(self) -> bool:
        return self.kind == "rational" and self.frac == Fraction(1, 2)

    @property
    def exceptional(self) -> bool:
        return self.kind == "rational" and self.frac in _exceptional_fractions()

    def radians(self) -> float:
        if self.rad is None:
            raise NoNumericValue("generic alpha has no numeric value")
        return self.rad

    def eval_radians(self) -> float:
        """Numeric value for ordering/drawing; reference value if generic."""
        return self.rad if self.rad is not None else REFERENCE_ALPHA

    def __str__(self) -> str:
        if self.kind == "generic":
            return "generic"
        if self.kind == "rational":
            return f"{self.frac.numerator}pi/{self.frac.denominator}"
        return f"{math.degrees(self.rad):.6g}deg"


GENERIC = AlphaSpec("generic")


def make_alpha(kind: str, *params) -> AlphaSpec:
    """Build a normalized AlphaSpec.

    make_alpha("generic"); make_alpha("rational", s, t) for alpha = s*pi/t;
    make_alpha("decimal", degrees).
    """
    if kind == "generic":
        return GENERIC
    if kind == "rational":
        s, t = params
        if t == 0:
            raise OutOfRange(f"alpha = {s}*pi/0 has a zero denominator")
        frac = Fraction(s, t)
        if not Fraction(1, 3) < frac < Fraction(2, 3):
            raise OutOfRange(f"alpha = {frac}*pi outside (pi/3, 2pi/3)")
        return AlphaSpec("rational", frac=frac, rad=float(frac) * math.pi)
    if kind == "decimal":
        (deg,) = params
        rad = math.radians(float(deg))
        if not math.pi / 3 + TOL < rad < 2 * math.pi / 3 - TOL:
            raise OutOfRange(f"alpha = {deg} degrees outside (60, 120)")
        specials = [math.pi / 2] + [float(f) * math.pi for f in _exceptional_fractions()]
        for sp in specials:
            if abs(rad - sp) < TOL:
                raise AmbiguousDecimal(
                    f"alpha = {deg} degrees is within 1e-9 rad of an exact "
                    "special value; use the rational form instead"
                )
        return AlphaSpec("decimal", rad=rad)
    raise ValueError(f"unknown alpha kind {kind!r}")


def parse_alpha(text: str) -> AlphaSpec:
    """Parse a CLI angle spec: 'generic', 's/t' (times pi), or degrees."""
    text = text.strip()
    if text == "generic":
        return GENERIC
    if "/" in text:
        s, t = text.split("/")
        return make_alpha("rational", int(s), int(t))
    return make_alpha("decimal", float(text))
