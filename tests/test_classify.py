import math

import pytest

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import VertexConfig
from shieldtiles.classify import (
    HEX_WORD,
    canonical_orientation_word,
    classify,
    fault_lines,
    trace_fault_line,
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
from shieldtiles.symbolic import ExactPoint

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


def _hex_stars(alpha, centers) -> Patch:
    """The hex star and its ring of six shields at each center."""
    return Patch.from_tiles(alpha, _hex_seeds(centers))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("alpha", [GENERIC, make_alpha("decimal", 110.0)], ids=str)
def test_hex_stars_apart_pin_no_order(alpha, order):
    # two hex stars at the order-k spacing that share no tile: no fault
    # line joins the hexes, so their distance alone decides nothing
    patch = _hex_stars(alpha, [ExactPoint(), hex_lattice_vector(order)])
    assert len(patch) == 24 and _hex_count(patch) == 2
    verdict = classify(patch)
    assert verdict.family == "Inconclusive"
    assert verdict.reason == "no fault line joins two hex vertices"


@pytest.mark.parametrize("alpha", [GENERIC, make_alpha("decimal", 110.0)], ids=str)
def test_hex_stars_that_meet_are_order_1(alpha):
    # at order 1 the two rings share two shields and a fault line of two
    # fault vertices runs from hex to hex
    patch = _hex_stars(alpha, [ExactPoint(), hex_lattice_vector(1)])
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


def test_trace_matches_fault_lines():
    patch = gen_line_tiling("+-", 3, GENERIC)
    lines = fault_lines(patch)
    for fl in lines:
        again = trace_fault_line(patch, fl.vertices[0])
        assert set(again.vertices) == set(fl.vertices)


def test_uniform_window_word_is_incomplete():
    verdict = classify(gen_line_tiling("++", 3, GENERIC))
    assert verdict.family == "Line"
    assert verdict.word == "+"
    assert not verdict.complete


def test_canonical_orientation_word():
    assert canonical_orientation_word("-") == "+"
    assert canonical_orientation_word("-+") == "+-"
    assert canonical_orientation_word("--+") == "++-"
