import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from shieldtiles import generators, patterns
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.classify import classify, vertex_census
from shieldtiles.generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    gen_triangle_tiling,
    hex_lattice_vector,
)
from shieldtiles.errors import ShieldError
from shieldtiles.patch import Patch
from shieldtiles.placement import Placement
from shieldtiles.symbolic import ANGLE_T, same_angle

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


@pytest.mark.parametrize("index", [-1, 3, True, 1.0, "1"], ids=repr)
def test_dodecagon_choice_refuses_other_filling_indices(index):
    # only the ints 0, 1 and 2 name a filling: -1 or True would pick one by
    # list indexing, and 3 would fail deep inside the generator
    with pytest.raises(ShieldError, match=r"dodecagon cell \(-?\d+, -?\d+\) has"):
        gen_dodecagon_tiling(DodecagonChoice.constant(index), 4)
    mixed = DodecagonChoice(assignment={(0, 0): index}, default=0)
    with pytest.raises(ShieldError, match=r"dodecagon cell \(0, 0\) has filling"):
        gen_dodecagon_tiling(mixed, 4)


# the AATTT witness window of acceptance criterion 7
WITNESS = DodecagonChoice(assignment={(0, 1): 1}, default=0)


def _geometry_digest(patch) -> str:
    """sha256 of the sorted (kind, sorted corners rounded to 9 decimals)."""
    rad = patch.eval_rad
    tiles = sorted(
        (t.kind, sorted((round(x, 9) + 0.0, round(y, 9) + 0.0)
                        for x, y in t.corner_xy(rad)))
        for t in patch.tiles
    )
    return hashlib.sha256(repr(tiles).encode()).hexdigest()


@pytest.mark.parametrize("choice, digest", [
    (DodecagonChoice.constant(0),
     "96a95e9a34059bbfe0fcdde193e2c1a78aaa496be565549e1ef712dbf9f0f30d"),
    (DodecagonChoice.constant(1),
     "26c3a1993dd780ccca13b2763b49c0f52a6ebbae7a8996e0434c244090e0af8b"),
    (DodecagonChoice.constant(2),
     "45f1821cf0b59932700e460fa10d647b83e789bc182b6dabf48044e562e071c1"),
    (WITNESS,
     "7376f667382ef85d73393dc3ae4dd1fbee3d5e939c88b54097f6d215ba463f5c"),
], ids=["0", "1", "2", "witness"])
def test_dodecagon_window_geometry_pinned(choice, digest):
    # the tiles as point sets, whatever their anchors or placement order
    patch = gen_dodecagon_tiling(choice, 4)
    assert _geometry_digest(patch) == digest


@pytest.mark.parametrize("filling, digest", [
    (0, "10cb34f759389f77f4e2bed0ae40cd196ebd620b7d3730c45e59d1976b3a5300"),
    (1, "598f621cb90e377f88757d3647a856cf469e000a4f1d222536cec64c467b9fba"),
    (2, "874493eb8cd5c2138410fb60ed929ff50b08283c815a70ec563e51320714c74b"),
])
def test_dodecagon_window_placements_pinned(filling, digest):
    # the ordered placements, so a cell or a hole triangle placed elsewhere
    # or in another order shows; pinned when the hole triangles came from
    # PACKING_HOLES (the geometry is pinned above, and was the same when
    # they came from a scan of the gaps)
    patch = gen_dodecagon_tiling(DodecagonChoice.constant(filling), 4)
    text = repr([(t.kind, t.anchor.coeffs, t.heading.a, t.heading.b)
                 for t in patch.tiles])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The triangle windows of the benchmark's windows workload at seeds 1-5:
# GENERIC and each seed's decimal alpha, orders 0-4, extent 8.  Pinned, per
# alpha, over the orders, when the search still filled the nearest open
# vertex first; the gap order moves the tiles' placement order, not the
# tiles.
@pytest.mark.parametrize("alpha, digest", [
    (GENERIC, "35cce6df23f53daea176f90240525e4fa8b9696fe36d5e94498f82a938d687dc"),
    (make_alpha("decimal", 106.34),
     "02b084dbaef926a42b44bbb8ea44e946cb0a7b12665ef643deb8d8711a935bbf"),
    (make_alpha("decimal", 114.56),
     "6f5682921827cb3e90d7facbaacbc29e4188060ebcba6d451956d6018cee4157"),
    (make_alpha("decimal", 107.38),
     "0376f4bd2a50b8a234464da7898526af40cb71b15403425422256916c757775d"),
    (make_alpha("decimal", 107.36),
     "24ac3dfccbb4ee23c8055e5d775225926269845e98754be77edb125280b8a9c9"),
    (make_alpha("decimal", 111.23),
     "255dc11afa5ab434d73fcc1e27531c30511bcd393a65534d76bd37a497b5a438"),
], ids=str)
def test_triangle_window_tiles_and_classification_pinned(alpha, digest):
    digests = []
    for order in range(5):
        patch = gen_triangle_tiling(order, 8, alpha)
        verdict = classify(patch)
        assert (verdict.family, verdict.order, verdict.complete) == (
            "Triangle", order, True
        )
        digests.append(_geometry_digest(patch))
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == digest


def test_grid_window_places_each_triangle_once_in_order():
    # each grid triangle is proposed only at its first corner; the ordered
    # placements were pinned when every corner proposed it and repeats were
    # dropped by corner set
    patch = gen_triangle_tiling(0, 4, GENERIC)
    text = repr([(t.kind, t.anchor.coeffs, t.heading.a, t.heading.b)
                 for t in patch.tiles])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e0cc19ea9428efee1dc74ae6e2f43a08c138e3fc47da79b0ebe6281b46c6b933"
    )
    corner_sets = {frozenset(t.corner_points()) for t in patch.tiles}
    assert len(corner_sets) == len(patch) == 290


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


# -- the forced triangles against a closure of the gaps ----------------------


def _reference_closure(patch):
    """Place the forced triangle wherever an angular gap is exactly pi/3,
    vertex by vertex, until a round places none: the generators built
    their windows this way before they listed the triangles themselves."""
    while True:
        progress = False
        for vid in list(patch.vertex_ids()):
            for d, sym, _gn in patch.gaps(vid):
                if same_angle(sym, ANGLE_T, patch.alpha):
                    try:
                        patch.add_tile(Placement("T", patch.vertex_point(vid), d))
                        progress = True
                    except ShieldError:
                        pass
        if not progress:
            return patch


def _exact_tiles(tiles):
    return Counter((t.kind, frozenset(t.corner_points())) for t in tiles)


def _rounded_tiles(tiles, rad):
    # at pi/2 one point has several exact spellings (e^(2i*alpha) = -1), so
    # the tiles are compared by their corners rounded as vertices are keyed
    return Counter(
        (t.kind, frozenset((round(x, 6) + 0.0, round(y, 6) + 0.0)
                           for x, y in t.corner_xy(rad)))
        for t in tiles
    )


WORDS = ["".join(w) for n in range(1, 5) for w in itertools.product("+-", repeat=n)]


@pytest.mark.parametrize("alpha", [
    GENERIC, make_alpha("decimal", 107.3), make_alpha("rational", 5, 12),
], ids=str)
def test_line_window_triangles_are_the_forced_ones(alpha):
    # every word of 1-4 letters at extents 1-4: the listed junction and
    # seam triangles are exactly those that closing the gaps of the shields
    # places, and the closure places no more than 4*extent per line and two
    # per pair of lines
    for word, extent in itertools.product(WORDS, range(1, 5)):
        window = gen_line_tiling(word, extent, alpha)
        shields = [t for t in window.tiles if t.kind == "S"]
        assert len(shields) == len(word) * (2 * extent + 1)
        closed = _reference_closure(Patch.from_tiles(alpha, shields))
        assert _exact_tiles(window.tiles) == _exact_tiles(closed.tiles), (word, extent)
        lines = len(word)
        assert len(window) - len(shields) == 4 * extent * lines + 2 * (lines - 1)


def _seeded_choice(seed):
    rng = random.Random(seed)
    return DodecagonChoice(assignment={
        (i, j): rng.randrange(3) for i in range(-8, 9) for j in range(-8, 9)
    })


@pytest.mark.parametrize("choice", [
    *(DodecagonChoice.constant(k) for k in range(3)),
    *(_seeded_choice(seed) for seed in range(5)),
], ids=[*(f"constant{k}" for k in range(3)), *(f"seed{s}" for s in range(5))])
def test_dodecagon_window_triangles_are_the_forced_ones(choice):
    # a hole is filled when two of its cells are in the window, which is
    # what closing the gaps of the cells places, at extents 1-6
    fillings = patterns.dodecagon_fillings()
    for extent, holes in zip(range(1, 7), (4, 6, 10, 18, 22, 26)):
        cells = [
            t.translated(base)
            for i, j, base in patterns.packing_cells(extent + patterns.DODECA_CIRCUM)
            for t in fillings[choice.index_for((i, j))].tiles
        ]
        window = gen_dodecagon_tiling(choice, extent)
        assert window.tiles[:len(cells)] == cells
        closed = _reference_closure(Patch.from_tiles(patterns.RIGHT, cells))
        rad = window.eval_rad
        assert _rounded_tiles(window.tiles, rad) == _rounded_tiles(closed.tiles, rad)
        assert len(window) - len(cells) == holes
