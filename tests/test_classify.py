import itertools
import math

import pytest

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import VertexConfig
from shieldtiles.classify import (
    FAULT_WORD,
    HEX_WORD,
    canonical_orientation_word,
    classify,
    fault_lines,
    vertex_census,
)
from shieldtiles.generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    _hex_seeds,
    gen_triangle_tiling,
    hex_lattice_vector,
)
from shieldtiles.patch import Patch
from shieldtiles.symbolic import ExactPoint, SymbolicAngle

SWEEP_ALPHAS = (
    GENERIC,
    make_alpha("rational", 5, 12),
    make_alpha("rational", 2, 5),
    make_alpha("decimal", 99.34),
    make_alpha("decimal", 110.0),
)


@pytest.mark.parametrize("word,expect", [
    ("+", "+"),
    ("+-", "+-"),
    ("++-", "++-"),
    ("+-+-", "+-+-"),
    ("--+", "++-"),  # global flip maps the word to its mirror
])
def test_line_roundtrip(word, expect):
    verdict = classify(gen_line_tiling(word, 3, GENERIC))
    assert verdict.family == "Line"
    assert verdict.word == canonical_orientation_word(expect)
    assert verdict.complete == (len(set(expect)) > 1)


@pytest.mark.parametrize("alpha", [
    make_alpha("rational", 5, 12),
    make_alpha("decimal", 99.34),
    make_alpha("decimal", 110.0),
])
def test_line_roundtrip_numeric_alphas(alpha):
    verdict = classify(gen_line_tiling("++-", 3, alpha))
    assert verdict.family == "Line"
    assert verdict.word == canonical_orientation_word("++-")


@pytest.mark.parametrize("order", [0, 1, 2])
def test_triangle_roundtrip(order):
    patch = gen_triangle_tiling(order, 4 + 3 * order, GENERIC)
    verdict = classify(patch)
    assert verdict.family == "Triangle"
    assert verdict.order == order
    assert verdict.complete


def test_triangle_roundtrip_infinite():
    verdict = classify(gen_triangle_tiling(math.inf, 5, GENERIC))
    assert verdict.family == "Triangle"
    assert verdict.order == math.inf
    assert not verdict.complete  # one hex cannot pin the order to infinity


def _hex_count(patch) -> int:
    return len(vertex_census(patch).get(VertexConfig(HEX_WORD), []))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, math.inf])
@pytest.mark.parametrize("alpha", SWEEP_ALPHAS, ids=str)
def test_triangle_order_sweep(alpha, order):
    # from the least extent with two hex vertices on, the window gives the
    # generator's order; below it, one hex reads as the limit tiling
    two_hexes = None
    for extent in range(1, 9):
        patch = gen_triangle_tiling(order, extent, alpha)
        verdict = classify(patch)
        if _hex_count(patch) >= 2:
            two_hexes = two_hexes or extent
            assert verdict.family == "Triangle", (extent, verdict)
            assert (verdict.order, verdict.complete) == (order, True), extent
        else:
            assert two_hexes is None, extent
            assert (verdict.order, verdict.complete) == (math.inf, False), extent
    assert (two_hexes is None) == (order == math.inf)


def _hex_stars(alpha, order) -> Patch:
    """The hex star and its ring of six shields at the origin and at one
    order-k hex lattice vector from it."""
    centers = [ExactPoint(), hex_lattice_vector(order)]
    return Patch.from_tiles(alpha, _hex_seeds(centers, order))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("alpha", [GENERIC, make_alpha("decimal", 110.0)], ids=str)
def test_hex_stars_apart_pin_no_order(alpha, order):
    # two hex stars at the order-k spacing that share no tile: no fault
    # line joins the hexes, so their distance alone decides nothing
    patch = _hex_stars(alpha, order)
    assert len(patch) == 24 and _hex_count(patch) == 2
    verdict = classify(patch)
    assert verdict.family == "Inconclusive"
    assert verdict.reason == "no fault line joins two hex vertices"


@pytest.mark.parametrize("alpha", [GENERIC, make_alpha("decimal", 110.0)], ids=str)
def test_hex_stars_that_meet_are_order_1(alpha):
    # at order 1 the two rings share two shields and a fault line of two
    # fault vertices runs from hex to hex
    patch = _hex_stars(alpha, 1)
    assert len(patch) == 22
    joined = [
        fl for fl in fault_lines(patch)
        if all(t.kind == "HexVertex" for t in fl.termini)
    ]
    assert [len(fl.vertices) for fl in joined] == [2]
    assert str(classify(patch)) == "Triangle(order=1, complete=True)"


def test_right_shield_window_is_out_of_scope():
    patch = gen_dodecagon_tiling(DodecagonChoice.constant(0), 4)
    verdict = classify(patch)
    assert verdict.family == "Inconclusive"


def test_classification_str_forms():
    line = classify(gen_line_tiling("+-", 3, GENERIC))
    assert str(line) == "Line(word=+-, complete=True)"
    tri = classify(gen_triangle_tiling(1, 7, GENERIC))
    assert str(tri) == "Triangle(order=1, complete=True)"


def test_fault_lines_in_mixed_line_tiling():
    patch = gen_line_tiling("+-+", 4, GENERIC)
    lines = fault_lines(patch)
    assert len(lines) >= 2  # one seam per sign change, windowed
    for fl in lines:
        assert len(fl.vertices) >= 2
        for t in fl.termini:
            assert t.kind == "PatchBoundary"
        # chain vertices are all fault vertices
        census = vertex_census(patch)
        faults = {
            v for cfg, vs in census.items() if cfg.word == "ABTT" for v in vs
        }
        assert set(fl.vertices) <= faults


def test_fault_lines_end_at_the_hex():
    patch = gen_triangle_tiling(math.inf, 5, GENERIC)
    lines = fault_lines(patch)
    assert len(lines) == 6
    hex_ends = [
        fl for fl in lines if any(t.kind == "HexVertex" for t in fl.termini)
    ]
    assert len(hex_ends) == 6


def test_fault_lines_cover_each_fault_vertex_once():
    patch = gen_line_tiling("+-", 3, GENERIC)
    on_lines = [v for fl in fault_lines(patch) for v in fl.vertices]
    faults = [
        v for v in patch.vertex_ids() if patch.interior_word(v) == FAULT_WORD
    ]
    assert faults and sorted(on_lines) == faults


def _turned(patch: Patch, a: int, b: int, mirror: bool) -> Patch:
    """The window turned by a*pi/3 + b*alpha, mirrored first if asked."""
    tiles = [t.reflected() for t in patch.tiles] if mirror else patch.tiles
    turn = SymbolicAngle(a, b)
    return Patch.from_tiles(patch.alpha, [t.rotated(turn) for t in tiles])


TURNS = list(itertools.product(range(6), (-1, 0, 1), (False, True)))


@pytest.mark.parametrize("word", ["+", "++-"])
@pytest.mark.parametrize("alpha", [
    GENERIC, make_alpha("rational", 5, 12), make_alpha("decimal", 110.0),
], ids=str)
def test_turned_line_window_keeps_its_verdict(alpha, word):
    # the tip pairs of a shield are numbered from its heading, so turning
    # or mirroring the window moves no shield to another line
    patch = gen_line_tiling(word, 2, alpha)
    verdict = classify(patch)
    assert verdict.family == "Line"
    assert verdict.word == word
    for a, b, mirror in TURNS:
        assert classify(_turned(patch, a, b, mirror)) == verdict, (a, b, mirror)


def test_thinned_line_window_verdict_does_not_turn():
    # four shields gone from the two lower lines: two crossing diagonals
    # tie on the fewest chains and read different words, and the least
    # word is taken whatever the turn and the order of the tiles
    patch = gen_line_tiling("--+", 2, make_alpha("decimal", 107.3))
    assert [t.kind for t in patch.tiles[:15]] == ["S"] * 15
    kept = [t for i, t in enumerate(patch.tiles) if i not in (0, 2, 3, 7)]
    verdicts = {
        classify(_turned(Patch.from_tiles(patch.alpha, tiles), a, b, mirror))
        for tiles in (kept, kept[::-1])
        for a, b, mirror in TURNS
    }
    assert len(verdicts) == 1


@pytest.mark.parametrize("word, alpha, gone", [
    # shields 0 and 2 of the bottom line and 3 and 7 of the middle one
    ("--+", make_alpha("decimal", 107.3), (0, 2, 3, 7)),
    # a crossing diagonal has as many chains as the lines' diagonal and
    # reads the lesser word, ++-++-+--, with nine stripes
    ("++--", GENERIC, (0, 3, 7, 13, 16, 18)),
], ids=["three-lines", "four-lines"])
def test_line_broken_by_missing_shields_reads_as_one_stripe(word, alpha, gone):
    # each line that lacks a shield is two chains in one band, read as one
    # stripe, so the window reads its lines and no crossing diagonal
    patch = gen_line_tiling(word, 2, alpha)
    kept = [t for i, t in enumerate(patch.tiles) if i not in gone]
    verdict = classify(Patch.from_tiles(alpha, kept))
    want = canonical_orientation_word(word)
    assert (verdict.family, verdict.word, verdict.complete) == ("Line", want, True)


def test_uniform_window_word_is_incomplete():
    verdict = classify(gen_line_tiling("++", 3, GENERIC))
    assert verdict.family == "Line"
    assert verdict.word == "+"
    assert not verdict.complete


def test_canonical_orientation_word():
    assert canonical_orientation_word("-") == "+"
    assert canonical_orientation_word("-+") == "+-"
    assert canonical_orientation_word("--+") == "++-"
