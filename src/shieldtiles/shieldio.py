"""SHIELD/1 patch text format.

    shield-patch 1
    alpha generic | alpha rational <s> <t> | alpha degrees <decimal>
    tile <T|S> exact b1:u1,v1;b2:u2,v2;... <heading_a> <heading_b>
    tile <T|S> num <x> <y> <heading_a> <heading_b>

Lines starting with `#` are comments.  Writers emit the exact anchor form
whenever the patch is exact; readers accept both forms.
"""

from __future__ import annotations

import math
from typing import Iterable, TextIO

from .alpha import AlphaSpec, make_alpha
from .errors import ShieldError
from .patch import Patch
from .placement import FloatPoint, Placement
from .symbolic import Direction, ExactPoint

MAGIC = "shield-patch 1"


class FormatError(ShieldError):
    """Malformed SHIELD/1 input."""


def _anchor_text(anchor) -> str:
    if isinstance(anchor, ExactPoint):
        if not anchor.coeffs:
            return "exact 0:0,0"
        return "exact " + ";".join(
            f"{b}:{u},{v}" for b, u, v in anchor.coeffs
        )
    return f"num {anchor.x:.12g} {anchor.y:.12g}"


def _alpha_text(alpha: AlphaSpec) -> str:
    if alpha.kind == "generic":
        return "alpha generic"
    if alpha.kind == "rational":
        return f"alpha rational {alpha.frac.numerator} {alpha.frac.denominator}"
    return f"alpha degrees {math.degrees(alpha.rad):.12g}"


def write_patch(patch: Patch, out: TextIO) -> None:
    out.write(MAGIC + "\n")
    out.write(_alpha_text(patch.alpha) + "\n")
    for t in patch.tiles:
        out.write(
            f"tile {t.kind} {_anchor_text(t.anchor)} "
            f"{t.heading.a} {t.heading.b}\n"
        )


def dumps(patch: Patch) -> str:
    import io

    buf = io.StringIO()
    write_patch(patch, buf)
    return buf.getvalue()


def _parse_alpha_line(parts: list[str]) -> AlphaSpec:
    if parts[:2] == ["alpha", "generic"] and len(parts) == 2:
        return make_alpha("generic")
    args = None
    try:
        if parts[:2] == ["alpha", "rational"] and len(parts) == 4:
            args = ("rational", int(parts[2]), int(parts[3]))
        elif parts[:2] == ["alpha", "degrees"] and len(parts) == 3:
            args = ("decimal", float(parts[2]))
    except ValueError:
        pass
    if args is None:
        raise FormatError(f"bad alpha line: {' '.join(parts)}")
    return make_alpha(*args)


def _parse_exact(text: str) -> ExactPoint:
    d: dict[int, tuple[int, int]] = {}
    for item in text.split(";"):
        b_txt, uv = item.split(":")
        u_txt, v_txt = uv.split(",")
        b = int(b_txt)
        u0, v0 = d.get(b, (0, 0))
        d[b] = (u0 + int(u_txt), v0 + int(v_txt))
    return ExactPoint.from_dict(d)


def _parse_tile(parts: list[str]) -> Placement:
    if len(parts) < 3:
        raise FormatError(f"bad tile line: {' '.join(parts)}")
    kind = parts[1]
    if kind not in ("T", "S"):
        raise FormatError(f"unknown tile kind {kind!r}")
    # a malformed number raises ValueError, from int, float or unpacking
    try:
        if parts[2] == "exact" and len(parts) == 6:
            anchor = _parse_exact(parts[3])
            ha, hb = parts[4], parts[5]
        elif parts[2] == "num" and len(parts) == 7:
            anchor = FloatPoint(float(parts[3]), float(parts[4]))
            if not (math.isfinite(anchor.x) and math.isfinite(anchor.y)):
                raise ValueError("anchor not finite")
            ha, hb = parts[5], parts[6]
        else:
            raise ValueError("no anchor")
        return Placement(kind, anchor, Direction.of(int(ha), int(hb)))
    except ValueError:
        raise FormatError(f"bad tile line: {' '.join(parts)}") from None


def read_patch(src: TextIO | Iterable[str]) -> Patch:
    lines = [
        ln.strip()
        for ln in src
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0] != MAGIC:
        raise FormatError(f"missing header {MAGIC!r}")
    if len(lines) < 2:
        raise FormatError("missing alpha line")
    alpha = _parse_alpha_line(lines[1].split())
    tiles = []
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] != "tile":
            raise FormatError(f"unexpected line: {ln}")
        tiles.append(_parse_tile(parts))
    if alpha.kind == "generic" and not all(t.is_exact for t in tiles):
        raise FormatError("num anchors need a numeric alpha, not alpha generic")
    # validated once, whole; raises what add_tile would, tile by tile
    try:
        return Patch.from_tiles(alpha, tiles)
    except OverflowError as exc:
        # coordinates too large for floats, from finite numbers
        raise FormatError(f"coordinates out of range: {exc}") from None


def loads(text: str) -> Patch:
    return read_patch(text.splitlines())


def load_file(path) -> Patch:
    with open(path, "r", encoding="utf-8") as f:
        return read_patch(f)


def save_file(patch: Patch, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_patch(patch, f)
