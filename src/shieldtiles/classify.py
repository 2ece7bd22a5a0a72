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
    direction: tuple[float, float]  # unit vector along the mean chain axis
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
    ax, ay = patch.vertex_xy(verts[0])
    bx, by = patch.vertex_xy(verts[-1])
    if len(verts) > 1:
        norm = math.hypot(bx - ax, by - ay)
        direction = ((bx - ax) / norm, (by - ay) / norm)
    else:
        direction = (1.0, 0.0)
    return FaultLine(tuple(verts), direction, termini)


def trace_fault_line(patch: Patch, v: int) -> FaultLine:
    """Maximal chain of fault vertices through v (shield-shield and
    triangle-triangle edges alternate along the chain)."""
    if patch.interior_word(v) != FAULT_WORD:
        raise ValueError(f"vertex {v} is not an interior fault vertex")
    return next(fl for fl in fault_lines(patch) if v in fl.vertices)


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


def _shield_centroids(patch: Patch):
    rad = patch.eval_rad
    out = []
    for i, t in enumerate(patch.tiles):
        if t.kind != "S":
            continue
        pts = t.corner_xy(rad)
        out.append((i, (sum(x for x, _ in pts) / 6.0, sum(y for _, y in pts) / 6.0)))
    return out


def _tip_adjacency(patch: Patch, cents):
    """Shield pairs sharing a vertex but no edge (tip-to-tip junctions),
    grouped by the undirected direction of the center-to-center segment."""
    vert_tiles: dict[int, list[int]] = defaultdict(list)
    for tid, t in enumerate(patch.tiles):
        if t.kind != "S":
            continue
        for v in patch.tile_vertices(tid):
            vert_tiles[v].append(tid)
    edge_pairs = {frozenset(ts) for _ek, ts in patch.shared_edges()}
    by_axis: dict[float, list[tuple[int, int]]] = defaultdict(list)
    for tids in vert_tiles.values():
        for i in range(len(tids)):
            for j in range(i + 1, len(tids)):
                a, b = tids[i], tids[j]
                if frozenset((a, b)) in edge_pairs:
                    continue  # edge-sharing shields face a fault seam
                (ax, ay), (bx, by) = cents[a], cents[b]
                axis = round(math.atan2(by - ay, bx - ax) % math.pi, 6)
                by_axis[axis].append((a, b))
    # merge antipodal rounding artifacts near pi
    keys = sorted(by_axis)
    if len(keys) > 1 and keys[-1] - keys[0] > math.pi - 1e-5:
        by_axis[keys[0]].extend(by_axis.pop(keys[-1]))
    return by_axis


def _chains_along(cents, pairs):
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    chains = []
    for s in cents:
        if s in seen:
            continue
        stack, members = [s], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            members.append(u)
            stack.extend(adj[u])
        if any(len(adj[m]) > 2 for m in members):
            return None
        chains.append(members)
    return chains


def _classify_lines(patch: Patch) -> Classification:
    cents = dict(_shield_centroids(patch))
    if not cents:
        return Classification("Inconclusive", reason="no shields in window")
    by_axis = _tip_adjacency(patch, cents)
    # the line direction of a uniform window is three-fold ambiguous; try
    # each junction axis and keep the stripe decomposition with the fewest
    # lines (maximal chaining)
    candidates = []
    axes = sorted(by_axis) or [0.0]
    for axis in axes:
        chains = _chains_along(cents, by_axis.get(axis, []))
        if chains is None:
            continue
        verdict = _read_word(patch, cents, chains, axis)
        if verdict is not None:
            candidates.append((len(chains), axis, verdict))
    if not candidates:
        return Classification(
            "Inconclusive", reason="shields admit no parallel stripe decomposition"
        )
    candidates.sort(key=lambda c: (c[0], c[1]))
    return candidates[0][2]


def _read_word(patch: Patch, cents, chains, axis):
    """Orientation word of a stripe decomposition, or None if invalid."""
    signs = {}
    # the A-anchors of a shield have headings (a, b), (a + 2, b) and
    # (a + 4, b), so the parity read below does not depend on the anchor
    ref = patch.tiles[chains[0][0]].heading
    for idx, members in enumerate(chains):
        sgs = set()
        for m in members:
            h = patch.tiles[m].heading
            da, db = h.a - ref.a, h.b - ref.b
            if db % 2 != 0:
                return None
            sgs.add("+" if (da + 3 * (db // 2)) % 2 == 0 else "-")
        if len(sgs) != 1:
            return None  # mixed orientations within one chain
        signs[idx] = sgs.pop()
    nx, ny = -math.sin(axis), math.cos(axis)
    projs = []
    for idx, members in enumerate(chains):
        vals = [cents[m][0] * nx + cents[m][1] * ny for m in members]
        if max(vals) - min(vals) > 0.25:
            return None  # chain not perpendicular to the normal
        projs.append((sum(vals) / len(vals), idx))
    projs.sort()
    for (p1, _), (p2, _) in zip(projs, projs[1:]):
        if p2 - p1 < 0.5:
            return None  # two stripes in the same band
    word = canonical_orientation_word(
        "".join(signs[idx] for _p, idx in projs)
    )
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
