"""Decide which tiling family a finite window is consistent with.

The decision follows the structure of the plane classification: no hex
vertex means stacked shield lines (read off the orientation word); with
hex vertices, the order k is read from the fault lines that join them,
each a chain of 2k fault vertices.
A window can under-determine parameters, reported via `complete=False`,
or contradict both families, reported as Inconclusive.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .atlas import VertexConfig
from .errors import NotValidated
from .patch import Patch

HEX_WORD = "TTTTTT"
BOWTIE_WORD = "ATBT"
FAULT_WORD = "ABTT"


def vertex_census(patch: Patch) -> dict[VertexConfig, list[int]]:
    """Interior vertices grouped by their configuration."""
    if not patch.validate().ok:
        raise NotValidated(str(patch.validate()))
    # the words are canonical already: one VertexConfig per distinct word
    out: dict[str, list[int]] = defaultdict(list)
    for vid, word in _interior_words(patch).items():
        out[word].append(vid)
    return {VertexConfig(word): vids for word, vids in out.items()}


def _interior_words(patch: Patch) -> dict[int, str]:
    """The corner word of each vertex with a closed star, by vertex id."""
    words = ((vid, patch.interior_word(vid)) for vid in patch.vertex_ids())
    return {vid: word for vid, word in words if word is not None}


# ---------------------------------------------------------------------------
# Fault lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Terminus:
    kind: str  # "HexVertex" | "PatchBoundary"
    vertex: int | None = None


@dataclass(frozen=True)
class FaultLine:
    vertices: tuple[int, ...]
    termini: tuple[Terminus, Terminus]


def fault_lines(patch: Patch) -> list[FaultLine]:
    """All maximal fault chains, each reported once."""
    return [
        _fault_line(patch, verts, termini)
        for verts, termini in _fault_chains(patch, _interior_words(patch))
    ]


def _fault_chains(patch: Patch, words: dict[int, str]):
    """(vertices, termini) of each maximal fault chain, given the interior
    words.

    A fault vertex has one shield-shield and one triangle-triangle edge,
    and its chain leaves it along both.  One pass over the edges that two
    tiles share maps each vertex to the far end of each such edge; the
    chain through a fault vertex then follows the two kinds in turn, and
    each chain is walked once, from its vertex of least id.
    """
    # tile kind -> vertex -> far end of its edge between two tiles of that kind
    spine: dict[str, dict[int, int]] = {"S": {}, "T": {}}
    for (u, w), (s, t) in patch.shared_edges():
        kind = patch.tiles[s].kind
        if patch.tiles[t].kind == kind:
            spine[kind][u] = w
            spine[kind][w] = u

    def walk(v: int, kind: str):
        chain = []
        while True:
            nxt = spine[kind].get(v)
            if nxt is None:
                return chain, Terminus("PatchBoundary")
            word = words.get(nxt)
            if word == HEX_WORD:
                return chain, Terminus("HexVertex", nxt)
            if word != FAULT_WORD:
                return chain, Terminus("PatchBoundary")
            chain.append(nxt)
            v = nxt
            kind = "T" if kind == "S" else "S"

    seen: set[int] = set()
    for v, word in words.items():
        if word != FAULT_WORD or v in seen:
            continue
        fwd, t_fwd = walk(v, "S")
        bwd, t_bwd = walk(v, "T")
        verts = bwd[::-1] + [v] + fwd
        seen.update(verts)
        yield verts, (t_bwd, t_fwd)


def _fault_line(patch: Patch, verts: list[int], termini) -> FaultLine:
    """The chain oriented deterministically: lower endpoint coordinates
    first."""
    first = patch.vertex_xy(verts[0])
    last = patch.vertex_xy(verts[-1])
    if (round(first[0], 6), round(first[1], 6)) > (round(last[0], 6), round(last[1], 6)):
        verts.reverse()
        termini = (termini[1], termini[0])
    return FaultLine(tuple(verts), termini)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    family: str  # "Line" | "Triangle" | "Inconclusive"
    word: str | None = None  # Line: canonical orientation word
    order: object = None  # Triangle: k or math.inf
    complete: bool = False
    reason: str | None = None

    def __str__(self) -> str:
        if self.family == "Line":
            return f"Line(word={self.word}, complete={self.complete})"
        if self.family == "Triangle":
            o = "inf" if self.order == math.inf else self.order
            return f"Triangle(order={o}, complete={self.complete})"
        return f"Inconclusive({self.reason})"


def canonical_orientation_word(word: str) -> str:
    """Line tilings are unchanged by reversing the stack or flipping every
    line, so the word is reported as the least of the four images."""
    flip = word.translate(str.maketrans("+-", "-+"))
    return min(word, word[::-1], flip, flip[::-1])


def _classify_lines(patch: Patch) -> Classification:
    """Stacked shield lines, read off the tip pairs of the shields.

    Number the corner i of a shield ((heading.a + i) % 6, heading.b): the
    number does not depend on the A corner that anchors the tile.  Two
    shields of a line meet tip to tip, with no common edge, where the A
    corner numbered k of one and the B corner numbered k + 3 of the other
    share a vertex.  Such pairs on one diagonal (k % 3, b) join shields of
    one shape into straight chains.  A shield has one A and one B corner
    on a diagonal, so a chain starts at each shield whose B corner there
    is in no pair.  A uniform window is three-fold ambiguous, and on a
    window that lacks shields a crossing diagonal may read a word too; the
    diagonal whose bands read the shortest word decides, then the one with
    the fewest chains, then the least word, so that the verdict does not
    turn with the window.
    """
    shields = [tid for tid, t in enumerate(patch.tiles) if t.kind == "S"]
    if not shields:
        return Classification("Inconclusive", reason="no shields in window")
    b_tips = {}  # (vertex, k, b) -> the shield whose B corner there is (k, b)
    a_tips = []
    for tid in shields:
        h = patch.tiles[tid].heading
        for i, v in enumerate(patch.tile_vertices(tid)):
            tip = (v, (h.a + i) % 6, h.b)
            if i % 2:
                b_tips[tip] = tid
            else:
                a_tips.append((tip, tid, i))
    # diagonal -> (axis, the shields whose B tip there is paired); the
    # axis runs from the B tip to the A tip of one shield, along its chain
    diagonals: dict[tuple[int, int], tuple] = {}
    for (v, k, b), tid, i in a_tips:
        partner = b_tips.get((v, (k + 3) % 6, b))
        if partner is not None:
            axis = (patch.tile_vertices(tid)[(i + 3) % 6], v)
            diagonals.setdefault((k % 3, b), (axis, set()))[1].add(partner)
    verdicts = []
    for axis, paired in diagonals.values():
        heads = [s for s in shields if s not in paired]
        verdict = _read_word(patch, heads, axis)
        if verdict is not None:
            verdicts.append((len(verdict.word), len(heads), verdict.word, verdict))
    if not verdicts:
        return Classification(
            "Inconclusive", reason="shields admit no parallel stripe decomposition"
        )
    return min(verdicts, key=lambda c: c[:3])[3]


def _read_word(patch: Patch, heads: list[int], axis) -> Classification | None:
    """Orientation word of the chains that start at heads, stacked across
    the axis (u, v) from one tip vertex to the other, one letter per band
    of chains; None when a band holds chains of both signs."""
    # the A-anchors of a shield have headings (a, b), (a + 2, b) and
    # (a + 4, b), so the parity read below does not depend on the anchor;
    # the shields of a chain share it by construction
    ref = patch.tiles[heads[0]].heading
    (ux, uy), (vx, vy) = (patch.vertex_xy(v) for v in axis)
    nx, ny = uy - vy, vx - ux
    norm = math.hypot(nx, ny)
    bands = []
    for s in heads:
        h = patch.tiles[s].heading
        da, db = h.a - ref.a, h.b - ref.b
        if db % 2 != 0:
            return None
        sign = "+" if (da + 3 * (db // 2)) % 2 == 0 else "-"
        # the projection of the shield's centre across the axis
        pts = (patch.vertex_xy(v) for v in patch.tile_vertices(s))
        bands.append((sum(x * nx + y * ny for x, y in pts) / (6 * norm), sign))
    bands.sort()
    # chains less than 0.5 apart are one band: the pieces of a line that
    # lacks a shield, read as one stripe if they agree in sign
    letters = [bands[0][1]]
    for (p1, _), (p2, sign) in zip(bands, bands[1:]):
        if p2 - p1 >= 0.5:
            letters.append(sign)
        elif sign != letters[-1]:
            return None  # two signs in the same band
    word = canonical_orientation_word("".join(letters))
    if len(set(word)) == 1:
        # a uniform window cannot pin the stacking; report one letter
        return Classification("Line", word=word[0], complete=False)
    return Classification("Line", word=word, complete=True)


def _classify_triangles(patch: Patch, census) -> Classification:
    """Order 0 without shields.  Otherwise the fault lines that join two
    hex vertices, all of one length 2k, give order k; with no such line,
    a lone hex is the limit tiling."""
    if not any(t.kind == "S" for t in patch.tiles):
        return Classification("Triangle", order=0, complete=True)
    # the census holds every interior word: the walk reads them from it
    words = {v: cfg.word for cfg, vs in census.items() for v in vs}
    lengths = {
        len(verts)
        for verts, termini in _fault_chains(patch, words)
        if all(t.kind == "HexVertex" for t in termini)
    }
    if len(lengths) == 1 and min(lengths) % 2 == 0:
        return Classification("Triangle", order=min(lengths) // 2, complete=True)
    if not lengths and len(census[VertexConfig(HEX_WORD)]) == 1:
        return Classification("Triangle", order=math.inf, complete=False)
    return Classification(
        "Inconclusive",
        reason="fault lines between hex vertices give no single order"
        if lengths else "no fault line joins two hex vertices",
    )


def classify(patch: Patch) -> Classification:
    """Family verdict for a finite window."""
    if patch.alpha.right_shield:
        return Classification(
            "Inconclusive", reason="right shield out of classification scope"
        )
    census = vertex_census(patch)
    words = {cfg.word for cfg in census}
    if not words:
        return Classification(
            "Inconclusive", reason="window has no interior vertex"
        )
    stray = words - {HEX_WORD, BOWTIE_WORD, FAULT_WORD}
    if stray:
        return Classification(
            "Inconclusive", reason=f"unexpected interior configurations {sorted(stray)}"
        )
    if HEX_WORD in words:
        return _classify_triangles(patch, census)
    return _classify_lines(patch)
