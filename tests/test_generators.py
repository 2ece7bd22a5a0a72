import hashlib
import math
from collections import Counter

import pytest

from shieldtiles import generators, patterns
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.classify import vertex_census
from shieldtiles.generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    gen_triangle_tiling,
    hex_lattice_vector,
)
from shieldtiles.patch import Patch

ALPHAS = [GENERIC, make_alpha("rational", 5, 12), make_alpha("decimal", 99.34)]


def census_words(patch):
    return {cfg.word for cfg in vertex_census(patch)}


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("word", ["+", "+-", "++-", "+-+-"])
def test_line_tilings_validate(alpha, word):
    patch = gen_line_tiling(word, 3, alpha)
    assert patch.validate().ok
    words = census_words(patch)
    assert words <= {"ATBT", "ABTT"}
    # fault vertices appear exactly when adjacent lines disagree
    has_fault = any(a != b for a, b in zip(word, word[1:]))
    assert ("ABTT" in words) == has_fault


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_triangle_tilings_validate(alpha, order):
    extent = 4 + 3 * order
    patch = gen_triangle_tiling(order, extent, alpha)
    assert patch.validate().ok
    words = census_words(patch)
    assert "TTTTTT" in words
    assert words <= {"TTTTTT", "ATBT", "ABTT"}


def test_infinite_order_window():
    patch = gen_triangle_tiling(math.inf, 5, GENERIC)
    assert patch.validate().ok
    census = vertex_census(patch)
    hexes = [v for cfg, vs in census.items() if cfg.word == "TTTTTT" for v in vs]
    assert len(hexes) == 1


def test_hex_lattice_spacing_grows_with_order():
    alpha = 99.0 * math.pi / 180.0
    lens = []
    for k in range(5):
        x, y = hex_lattice_vector(k).xy(alpha)
        lens.append(math.hypot(x, y))
    assert all(b > a for a, b in zip(lens, lens[1:]))


@pytest.mark.parametrize("filling", [0, 1, 2])
def test_dodecagon_tilings_validate(filling):
    patch = gen_dodecagon_tiling(DodecagonChoice.constant(filling), 4)
    assert patch.validate().ok
    words = census_words(patch)
    assert words <= {"AAAA", "BBT", "ABTT", "ATATT", "ATBT", "AATTT", "TTTTTT"}
    assert "AAAA" in words or "BBT" in words  # right-shield signatures


@pytest.mark.parametrize("filling, digest", [
    (0, "33e3c428f98e8387bf8c96c797274d7762c25b66302da5ec2156ffe4851db1a1"),
    (1, "8305da825f2ad893cdbe34d7de2ddee27dfe895722482432290e01091be3a335"),
    (2, "3f425b13cdf778edc6f024f40c018e244080b436c05457db614fc92e24db80af"),
])
def test_dodecagon_window_placements_pinned(filling, digest):
    # the ordered placements, so a cell placed elsewhere or in another
    # order shows
    patch = gen_dodecagon_tiling(DodecagonChoice.constant(filling), 4)
    text = repr([(t.kind, t.anchor.coeffs, t.heading.a, t.heading.b)
                 for t in patch.tiles])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_line_word_is_bottom_to_top():
    # mixed word produces at least one fault seam between adjacent lines
    patch = gen_line_tiling("+-", 3, GENERIC)
    census = vertex_census(patch)
    faults = [v for cfg, vs in census.items() if cfg.word == "ABTT" for v in vs]
    assert faults


def test_triangle_windows_search_prune_and_backtrack(monkeypatch):
    # the benchmark's traced run expects its triangle windows to reach these
    # calls, through these bindings; a search that no longer backtracks or
    # prunes fails here first
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in [
        (generators, "fill_disk"),
        (Patch, "pop_tile"),
        (Patch, "star_blocks"),
        (patterns, "gap_feasible"),
        (patterns, "star_completable"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for order in range(5):
        gen_triangle_tiling(order, 8, GENERIC)
    assert set(calls) == {
        "fill_disk", "pop_tile", "star_blocks", "gap_feasible", "star_completable"
    }
