"""Fault lines against the tracer they replace, and line signs read from
windows with numeric anchors.

The _reference_* functions are the fault-line tracer as it was before
the one-pass spine map: every step of a walk scans every edge of the
patch, every trace rebuilds the set of fault vertices, and fault_lines
traces from every fault vertex and drops the repeats.  Both must report
the same chains, in the same order, with the same orientation and termini.
"""

import math

import pytest

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.classify import (
    FAULT_WORD,
    HEX_WORD,
    FaultLine,
    Terminus,
    classify,
    fault_lines,
)
from shieldtiles.generators import gen_line_tiling, gen_triangle_tiling
from shieldtiles.patch import Patch
from shieldtiles.shieldio import loads
from shieldtiles.symbolic import SymbolicAngle


def _reference_spine_steps(patch, v):
    ss = tt = None
    for (u, w), ts in patch.shared_edges():
        if v not in (u, w):
            continue
        kinds = sorted(patch.tiles[t].kind for t in ts)
        other = w if u == v else u
        if kinds == ["S", "S"]:
            ss = other
        elif kinds == ["T", "T"]:
            tt = other
    return ss, tt


def _reference_walk(patch, faults, start, via):
    chain = []
    v, use = start, via
    while True:
        ss, tt = _reference_spine_steps(patch, v)
        nxt = ss if use == "SS" else tt
        if nxt is None:
            return chain, Terminus("PatchBoundary")
        if patch.interior_word(nxt) == HEX_WORD:
            return chain, Terminus("HexVertex", nxt)
        if nxt not in faults:
            return chain, Terminus("PatchBoundary")
        chain.append(nxt)
        v = nxt
        use = "TT" if use == "SS" else "SS"


def _reference_trace(patch, v):
    if patch.interior_word(v) != FAULT_WORD:
        raise ValueError(f"vertex {v} is not an interior fault vertex")
    faults = {
        w for w in patch.vertex_ids() if patch.interior_word(w) == FAULT_WORD
    }
    fwd, t_fwd = _reference_walk(patch, faults, v, "SS")
    bwd, t_bwd = _reference_walk(patch, faults, v, "TT")
    verts = list(reversed(bwd)) + [v] + fwd
    termini = (t_bwd, t_fwd)
    first = patch.vertex_xy(verts[0])
    last = patch.vertex_xy(verts[-1])
    if (round(first[0], 6), round(first[1], 6)) > (round(last[0], 6), round(last[1], 6)):
        verts.reverse()
        termini = (termini[1], termini[0])
    return FaultLine(tuple(verts), termini)


def _reference_fault_lines(patch):
    seen = set()
    out = []
    for v in patch.vertex_ids():
        if patch.interior_word(v) != FAULT_WORD:
            continue
        fl = _reference_trace(patch, v)
        if fl.vertices in seen:
            continue
        seen.add(fl.vertices)
        out.append(fl)
    return out


ALPHAS = {
    "generic": GENERIC,
    "110.3deg": make_alpha("decimal", 110.3),
    "5pi/12": make_alpha("rational", 5, 12),
}
# the uniform word "+" has no fault vertex at all
WINDOWS = {
    **{f"line{w}": (lambda a, w=w: gen_line_tiling(w, 3, a))
       for w in ("+", "+-", "++-", "+-+-+", "-+--+")},
    **{f"order{k}": (lambda a, k=k, e=e: gen_triangle_tiling(k, e, a))
       for k, e in ((0, 2), (1, 2), (2, 3), (3, 4), (math.inf, 3))},
}


@pytest.mark.parametrize("alpha", ALPHAS.values(), ids=ALPHAS.keys())
@pytest.mark.parametrize("window", WINDOWS.values(), ids=WINDOWS.keys())
def test_fault_lines_match_the_reference_tracer(window, alpha):
    patch = window(alpha)
    lines = fault_lines(patch)
    assert lines == _reference_fault_lines(patch)
    for fl in lines:
        for v in (fl.vertices[0], fl.vertices[len(fl.vertices) // 2]):
            assert _reference_trace(patch, v) == fl


def test_the_fixtures_reach_every_terminus_kind():
    kinds = {
        t.kind
        for window in WINDOWS.values()
        for fl in fault_lines(window(GENERIC))
        for t in fl.termini
    }
    assert kinds == {"HexVertex", "PatchBoundary"}


def test_fault_lines_read_each_interior_word_once(monkeypatch):
    patch = gen_triangle_tiling(1, 5, GENERIC)
    calls = []
    word = Patch.interior_word

    def counted(self, vid):
        calls.append(vid)
        return word(self, vid)

    monkeypatch.setattr(Patch, "interior_word", counted)
    lines = fault_lines(patch)
    assert lines
    assert len(calls) <= len(patch.vertex_ids())


def test_classify_reads_each_interior_word_once(monkeypatch):
    # the census and the fault-line walk share one read of the words
    patch = gen_triangle_tiling(2, 4, GENERIC)
    calls = []
    word = Patch.interior_word

    def counted(self, vid):
        calls.append(vid)
        return word(self, vid)

    monkeypatch.setattr(Patch, "interior_word", counted)
    assert classify(patch).order == 2
    assert sorted(calls) == list(patch.vertex_ids())


def _num_anchored(patch: Patch) -> Patch:
    """The same tiles read back from SHIELD/1 text in the `num` form."""
    lines = ["shield-patch 1", f"alpha degrees {math.degrees(patch.alpha.rad)!r}"]
    for t in patch.tiles:
        x, y = t.anchor.xy(patch.eval_rad)
        lines.append(
            f"tile {t.kind} num {x:.12g} {y:.12g} {t.heading.a} {t.heading.b}"
        )
    return loads("\n".join(lines))


@pytest.mark.parametrize("word", ["+-", "++-"])
def test_num_anchored_line_window_gets_the_exact_verdict(word):
    exact = gen_line_tiling(word, 3, make_alpha("decimal", 110.0))
    # turned by 4*pi/3 - alpha, the shields are headed off 0 and pi
    turn = SymbolicAngle(4, -1)
    turned = Patch.from_tiles(exact.alpha, [t.rotated(turn) for t in exact.tiles])
    assert {t.heading.b for t in turned.tiles if t.kind == "S"} == {-1}
    for window in (exact, turned):
        num = _num_anchored(window)
        assert num.alpha == exact.alpha and len(num) == len(exact)
        assert not any(t.is_exact for t in num.tiles)
        verdict = classify(num)
        assert verdict == classify(exact)
        assert verdict.family == "Line" and verdict.complete


@pytest.mark.parametrize("order", [1, 2])
def test_num_anchored_triangle_window_gets_the_exact_verdict(order):
    exact = gen_triangle_tiling(order, 2 * order + 1, make_alpha("decimal", 110.0))
    num = _num_anchored(exact)
    assert len(num) == len(exact)
    assert not any(t.is_exact for t in num.tiles)
    verdict = classify(num)
    assert verdict == classify(exact)
    assert (verdict.family, verdict.order, verdict.complete) == ("Triangle", order, True)
