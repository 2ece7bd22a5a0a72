import math
import random

import pytest

from shieldtiles import patch as patch_module
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.errors import (
    AtlasViolation,
    EdgeMismatchError,
    IncompleteCoverage,
    OverlapError,
)
from shieldtiles.patch import Patch, PatternBall
from shieldtiles.placement import FloatPoint, Placement, placement_with_corner
from shieldtiles.patterns import fill_disk
from shieldtiles.symbolic import (
    Direction,
    ExactPoint,
    SymbolicAngle,
)

ORIGIN = ExactPoint()
ALPHA_NUM = make_alpha("decimal", 99.34)


def refuse(patch, pl, error, match=None):
    """Check that add_tile refuses pl with error and leaves the patch as
    Patch.from_tiles builds its tiles: the same vertex ids and points,
    boundary edges and gaps, and the report that the patch had."""
    report = patch.validate()
    with pytest.raises(error, match=match):
        patch.add_tile(pl)
    fresh = Patch.from_tiles(patch.alpha, patch.tiles)
    assert list(patch.vertex_ids()) == list(fresh.vertex_ids())
    for vid in fresh.vertex_ids():
        assert patch.vertex_xy(vid) == fresh.vertex_xy(vid)
        assert patch.gaps(vid) == fresh.gaps(vid)
    assert patch.boundary_edges() == fresh.boundary_edges()
    assert patch.validate() is report and report == fresh.validate()


def hex_star(alpha=GENERIC) -> Patch:
    patch = Patch(alpha)
    for i in range(6):
        patch.add_tile(Placement("T", ORIGIN, Direction.of(i, 0)))
    return patch


def bowtie_star(alpha=GENERIC, word="ATBT") -> Patch:
    """The corners of `word` around the origin, counterclockwise from
    direction 0; the default is the bowtie."""
    patch = Patch(alpha)
    d = Direction.of(0, 0)
    for label in word:
        if label == "T":
            patch.add_tile(Placement("T", ORIGIN, d))
        elif label == "A":
            patch.add_tile(Placement("S", ORIGIN, d))
        else:
            patch.add_tile(placement_with_corner("S", 1, ORIGIN, d))
        d = d.plus({"A": SymbolicAngle(0, 1),
                    "B": SymbolicAngle(4, -1),
                    "T": SymbolicAngle(1, 0)}[label])
    return patch


@pytest.mark.parametrize("alpha", [GENERIC, ALPHA_NUM])
def test_hex_star_valid(alpha):
    patch = hex_star(alpha)
    assert patch.validate().ok
    vid = patch.vertex_at(ORIGIN)
    assert patch.interior_word(vid) == "TTTTTT"


def test_bowtie_star_valid():
    patch = bowtie_star()
    assert patch.validate().ok
    vid = patch.vertex_at(ORIGIN)
    assert patch.interior_word(vid) == "ATBT"


def test_shield_corner_angles_sum():
    pl = Placement("S", ORIGIN, Direction.of(0, 0))
    total = sum(
        ang.value(ALPHA_NUM.radians()) for _l, _d, ang in pl.corner_dirs()
    )
    assert total == pytest.approx(4 * math.pi)  # hexagon interior angles


def test_duplicate_tile_rejected():
    for alpha in (GENERIC, ALPHA_NUM):
        patch = hex_star(alpha)
        refuse(patch, Placement("T", ORIGIN, Direction.of(0, 0)), OverlapError)
        # a duplicate of a tile of an open patch, with no closed star
        patch.pop_tile()
        refuse(patch, Placement("T", ORIGIN, Direction.of(0, 0)), OverlapError)
        assert len(patch) == 5


def test_overlapping_tile_rejected():
    patch = Patch(GENERIC)
    patch.add_tile(Placement("S", ORIGIN, Direction.of(0, 0)))
    refuse(patch, Placement("S", ORIGIN, Direction.of(1, 0)), OverlapError)


def test_overlap_without_shared_corner_rejected():
    # a triangle hanging from the point e^(i*alpha) pokes a corner into
    # the interior of the triangle at the origin: no shared vertex, no
    # corner on an edge, so only the polygon overlap test can see it
    patch = Patch(GENERIC)
    patch.add_tile(Placement("T", ORIGIN, Direction.of(0, 0)))
    poke = Placement("T", ExactPoint.from_dict({1: (1, 0)}), Direction.of(5, 0))
    x, y = poke.corner_xy(patch.eval_rad)[1]
    assert 0 < y < math.sqrt(3) * min(x, 1 - x)  # strictly inside
    refuse(patch, poke, OverlapError, "tiles 0 and 1 overlap in their interiors")
    assert len(patch) == 1


def test_pop_tile_restores_state():
    patch = hex_star()
    before_gaps = {
        vid: len(patch.gaps(vid)) for vid in patch.vertex_ids()
    }
    extra = Placement("S", ExactPoint().step(Direction.of(0, 0)),
                      Direction.of(5, 0))
    patch.add_tile(extra)
    patch.pop_tile()
    after_gaps = {vid: len(patch.gaps(vid)) for vid in patch.vertex_ids()}
    assert before_gaps == {v: after_gaps[v] for v in before_gaps}
    # the tile can be re-added cleanly after the undo
    patch.add_tile(extra)
    assert patch.validate().ok


def test_pop_tile_on_fresh_patch_has_nothing_to_undo():
    patch = Patch(GENERIC)
    with pytest.raises(IndexError):
        patch.pop_tile()


def test_pop_tile_unwinds_every_add_in_order():
    patch = hex_star()
    assert len(patch) == 6
    while len(patch):
        patch.pop_tile()
    assert patch.tiles == []
    assert not patch.boundary_edges()
    # vertices created by the tiles are gone; the stack is empty again
    assert len(patch.vertex_ids()) == 0
    with pytest.raises(IndexError):
        patch.pop_tile()


def test_frozen_patch_refuses_pop_tile():
    patch = hex_star()
    patch.freeze()
    with pytest.raises(ValueError, match="patch is frozen"):
        patch.pop_tile()
    assert len(patch) == 6
    assert patch.validate().ok


def test_extract_ball_requires_coverage():
    patch = hex_star()
    vid = patch.vertex_at(ORIGIN)
    with pytest.raises(IncompleteCoverage):
        patch.extract_ball(vid, 2.0)
    ball = patch.extract_ball(vid, 0.1)
    assert len(ball.tiles) == 6


def _transformed(ball: PatternBall, ang, reflect, shift):
    tiles = ball.tiles
    center = ball.center
    if reflect:
        tiles = tuple(t.reflected() for t in tiles)
        center = center.conj()
    tiles = tuple(t.rotated(ang).translated(shift) for t in tiles)
    center = center.rotated(ang) + shift
    rad = ball.alpha.eval_radians()
    return PatternBall(
        alpha=ball.alpha,
        center=center,
        center_xy=center.xy(rad),
        radius=ball.radius,
        tiles=tiles,
    )


# the keys of every alpha other than generic are numeric
KEY_ALPHAS = [
    make_alpha("rational", 1, 2),
    make_alpha("rational", 5, 12),
    make_alpha("decimal", 110),
]


def _grown_ball(alpha, n=1.0) -> PatternBall:
    """A radius-n ball around an ABTT star, one completion of its disk.

    ABTT is chiral, so no rotation maps the ball onto its mirror image."""
    patch = bowtie_star(alpha, "ABTT")
    vid = patch.vertex_at(ORIGIN)
    assert fill_disk(patch, vid, n)
    return patch.extract_ball(vid, n)


def _check_isometry_invariance(alpha):
    patch = hex_star(alpha)
    ball = patch.extract_ball(patch.vertex_at(ORIGIN), 0.1)
    bow = bowtie_star(alpha)
    ball2 = bow.extract_ball(bow.vertex_at(ORIGIN), 0.1)
    ball3 = _grown_ball(alpha)
    rng = random.Random(7)
    for b in (ball, ball2, ball3):
        key = b.key()
        for _ in range(20):
            ang = SymbolicAngle(rng.randrange(-6, 7), rng.randrange(-2, 3))
            shift = ExactPoint.from_dict(
                {rng.randrange(-2, 3): (rng.randrange(-3, 4),
                                        rng.randrange(-3, 4))}
            )
            t = _transformed(b, ang, rng.random() < 0.5, shift)
            assert t.key() == key
    assert len({ball.key(), ball2.key(), ball3.key()}) == 3


def test_ball_key_isometry_invariance():
    _check_isometry_invariance(GENERIC)


@pytest.mark.parametrize("alpha", KEY_ALPHAS)
def test_ball_key_isometry_invariance_numeric(alpha):
    _check_isometry_invariance(alpha)


def _check_translation_key_separates_rotations(alpha):
    patch = bowtie_star(alpha)
    vid = patch.vertex_at(ORIGIN)
    ball = patch.extract_ball(vid, 0.1)
    rot = _transformed(ball, SymbolicAngle(1, 0), False, ExactPoint())
    assert rot.key() == ball.key()
    assert rot.translation_key() != ball.translation_key()
    shifted = _transformed(
        ball, SymbolicAngle(0, 0), False,
        ExactPoint.from_dict({0: (2, 1)}),
    )
    assert shifted.translation_key() == ball.translation_key()


def test_translation_key_separates_rotations():
    _check_translation_key_separates_rotations(GENERIC)


@pytest.mark.parametrize("alpha", KEY_ALPHAS)
def test_translation_key_separates_rotations_numeric(alpha):
    _check_translation_key_separates_rotations(alpha)


def test_float_anchored_ball_keys_like_its_exact_twin():
    alpha = make_alpha("decimal", 110)
    rad = alpha.eval_radians()
    ball = _grown_ball(alpha)
    # re-anchor every tile at its last anchor corner (a triangle's third,
    # a shield's fifth), given by coordinates only
    tiles = []
    for t in ball.tiles:
        i = 2 if t.kind == "T" else 4
        x, y = t.corner_xy(rad)[i]
        tiles.append(Placement(t.kind, FloatPoint(x, y), t.corner_dirs()[i][1]))
    tiles = tuple(tiles)
    twin = PatternBall(alpha=alpha, center=None, center_xy=ball.center_xy,
                       radius=ball.radius, tiles=tiles)
    assert twin.key() == ball.key()
    assert twin.translation_key() == ball.translation_key()
    assert twin.orbit_translation_keys() == ball.orbit_translation_keys()


def _double_rounded_codes(pts, d, rad):
    """The numeric frame codes as first written: round(v, 6), then :.6f."""
    t = d.value(rad)
    c, s = math.cos(t), math.sin(t)
    return [
        f"{round(x * c + y * s, 6) + 0.0:.6f}:{round(y * c - x * s, 6) + 0.0:.6f}"
        for x, y in pts
    ]


def test_numeric_frame_codes_round_once_as_they_rounded_twice():
    # :.6f alone rounds the exact binary value as round(v, 6) does; only a
    # coordinate that rounds to -0 must be written unsigned
    rng = random.Random(18)
    values = (
        [rng.uniform(-6, 6) for _ in range(4000)]
        + [rng.uniform(-2e-6, 2e-6) for _ in range(2000)]  # near 0
        + [rng.randint(-60_000_000, 60_000_000) / 1e7 for _ in range(4000)]
        + [k / 128 for k in range(-800, 801)]  # exact ties at 6 decimals
        + [0.0, -0.0, 5e-7, -5e-7, 4.9999999e-7, -4.9999999e-7]
    )
    pts = list(zip(values, reversed(values)))
    rad = ALPHA_NUM.eval_radians()
    directions = [Direction(0, 0)] + [
        Direction.of(a, b) for a in range(6) for b in (-1, 1)
    ]
    for d in directions:
        got = patch_module._frame_codes(pts, d, rad)
        assert got == _double_rounded_codes(pts, d, rad)
    codes = patch_module._frame_codes(pts, Direction(0, 0), rad)
    assert "0.000000:0.000000" in codes
    assert not any(c.startswith("-0.000000") or ":-0.000000" in c for c in codes)


def test_validate_reports_open_gap_vertices():
    patch = Patch(GENERIC)
    patch.add_tile(Placement("T", ORIGIN, Direction.of(0, 0)))
    report = patch.validate()
    assert report.ok  # a lone tile is a valid partial patch
    assert patch.gaps(patch.vertex_at(ORIGIN))


def test_validate_reports_corner_inside_an_edge(monkeypatch):
    # the corner (1/2, 0) of the lower triangle lies inside the base edge
    # of the upper one; add_tile refuses it, so it is planted with the
    # edge test switched off, and validate must find it again.  A patch
    # that validate() has found valid keeps its report through add_tile,
    # so the tiles are planted in a new patch
    patch = Patch(ALPHA_NUM)
    patch.add_tile(Placement("T", FloatPoint(0.0, 0.0), Direction.of(0, 0)))
    lower = Placement("T", FloatPoint(0.5, 0.0), Direction.of(4, 0))
    refuse(patch, lower, EdgeMismatchError, "vertex 3 lies inside an edge")
    assert patch.validate().ok
    planted = Patch(ALPHA_NUM)
    with monkeypatch.context() as m:
        m.setattr(patch_module, "_strictly_inside", lambda *args: False)
        for t in [*patch.tiles, lower]:
            planted.add_tile(t)
    report = planted.validate()
    assert [v.kind for v in report.violations] == ["t_junction"]
    assert "vertex 3 lies inside an edge" in str(report)


@pytest.mark.parametrize("upper_first", [True, False])
def test_corner_near_the_end_of_an_edge_rejected(upper_first):
    # the lower triangle's top corner (x + 0.99, 0) lies inside the base
    # edge of the upper triangle, 0.49 from its midpoint; in either order of
    # placement the second tile must be refused.  At x = 0.3 the corner and
    # the edge midpoint lie in different unit cells
    for x in (0.0, 0.3):
        upper = Placement("T", FloatPoint(x, 0.0), Direction.of(0, 0))
        lower = Placement("T", FloatPoint(x + 0.99, 0.0), Direction.of(4, 0))
        first, second = (upper, lower) if upper_first else (lower, upper)
        patch = Patch(ALPHA_NUM)
        patch.add_tile(first)
        refuse(patch, second, EdgeMismatchError, "lies inside an edge")
        assert len(patch) == 1


def test_tip_to_tip_overlap_rejected():
    # an upside-down triangle whose lower tip pokes 0.01 into the upper tip
    # of the triangle below: the two bounding discs overlap by only 0.01
    patch = Patch(ALPHA_NUM)
    patch.add_tile(Placement("T", FloatPoint(0.0, 0.0), Direction.of(0, 0)))
    tip = math.sqrt(3) / 2
    poke = Placement("T", FloatPoint(0.5, tip - 0.01), Direction.of(1, 0))
    refuse(patch, poke, OverlapError, "overlap in their interiors")
    assert len(patch) == 1


@pytest.mark.parametrize(
    "alpha, first, second",
    [
        (
            make_alpha("decimal", 65),
            ({0: (-3, -3), 1: (-2, 2)}, (0, 0)),
            ({0: (-3, -1), 1: (-2, 4)}, (5, 0)),
        ),
        (
            GENERIC,
            ({0: (-3, -3), 1: (-3, 2)}, (0, 0)),
            ({0: (0, -4), 1: (-1, 4)}, (2, -1)),
        ),
    ],
)
def test_overlapping_shields_in_distant_grid_cells_rejected(alpha, first, second):
    # two overlapping shields whose corner means lie 2.0 to 2.3 apart, in
    # cells of the tile grid that a 2-unit cell would not make neighbours.
    # from_tiles replays the pair through add_tile only when the batch
    # validate() has found the overlap
    a, b = (
        Placement("S", ExactPoint.from_dict(coeffs), Direction.of(*heading))
        for coeffs, heading in (first, second)
    )
    patch = Patch(alpha)
    patch.add_tile(a)
    refuse(patch, b, OverlapError, "tiles 0 and 1 overlap in their interiors")
    assert len(patch) == 1
    with pytest.raises(OverlapError, match="tiles 0 and 1 overlap in their interiors"):
        Patch.from_tiles(alpha, [a, b])


def test_star_closing_within_tolerance_but_off_the_atlas_rejected():
    # one microdegree above the right shield, four sharp corners close a
    # full turn to within 7e-8 rad, which add_tile counts as closed, while
    # the atlas (exact to 1e-9) has no AAAA word at this alpha
    patch = Patch(make_alpha("decimal", 90 + 1e-6))
    for k in range(3):
        patch.add_tile(Placement("S", ORIGIN, Direction.of(0, k)))
    refuse(patch, Placement("S", ORIGIN, Direction.of(0, 3)), AtlasViolation, "AAAA")
    assert len(patch) == 3


def test_star_word_is_built_only_for_its_readers(monkeypatch):
    # a closed star is judged by the vertex equation; its canonical word is
    # built only for interior_word and the atlas message
    built = []
    word_of = patch_module.canonical_word
    monkeypatch.setattr(
        patch_module, "canonical_word", lambda w: built.append(w) or word_of(w)
    )
    patch = hex_star()
    assert built == []
    assert patch.interior_word(patch.vertex_at(ORIGIN)) == "TTTTTT"
    assert len(built) == 1
    patch = Patch(make_alpha("decimal", 90 + 1e-6))
    for k in range(3):
        patch.add_tile(Placement("S", ORIGIN, Direction.of(0, k)))
    assert len(built) == 1
    last = Placement("S", ORIGIN, Direction.of(0, 3))
    with pytest.raises(AtlasViolation) as exc:
        patch.add_tile(last)
    assert str(exc.value) == "vertex 0 star AAAA not in atlas"
    # planted past the equation, validate reports it in the same words
    with monkeypatch.context() as m:
        m.setattr(patch_module, "full_turn_check", lambda *args: True)
        patch.add_tile(last)
    assert str(patch.validate()) == "atlas: vertex 0 star AAAA not in atlas"
    assert len(built) == 3


def test_kept_geometry_follows_alpha():
    # a placement keeps its float geometry for the last alpha asked only,
    # and gives the values that a fresh computation gives, float for float
    anchor = ExactPoint.from_dict({0: (1, 2), 1: (0, -1)})
    pl = Placement("S", anchor, Direction.of(2, 1))
    for rad in (math.radians(99), math.pi / 2, math.radians(99), ALPHA_NUM.rad):
        xys = Placement(pl.kind, pl.anchor, pl.heading).corner_xy(rad)
        n = len(xys)
        cx = sum(x for x, _ in xys) / n
        cy = sum(y for _, y in xys) / n
        disc = (cx, cy, max(math.hypot(x - cx, y - cy) for x, y in xys))
        for _ in range(2):  # computed, then kept
            assert pl.geometry(rad) == (
                xys, tuple(c for xy in xys for c in xy), disc
            )
