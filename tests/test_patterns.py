import hashlib
import math
from collections import Counter
from itertools import product

import pytest

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import LABEL_ANGLES, atlas_configs, atlas_words
from shieldtiles.errors import AtlasViolation, BudgetExceeded
from shieldtiles.generators import DodecagonChoice, gen_dodecagon_tiling
from shieldtiles import patch as patch_module
from shieldtiles import patterns
from shieldtiles.patch import Patch, _closes, _star_word
from shieldtiles.placement import Placement
from shieldtiles.patterns import (
    DODECA_CIRCUM,
    ORIGIN,
    NodeBudget,
    _Search,
    complete_ball,
    count_patterns,
    dodecagon_cells_inside,
    dodecagon_fillings,
    entropy_bound,
    fill_disk,
    gap_feasible,
    star_completable,
)
from shieldtiles.symbolic import (
    FULL_TURN,
    Direction,
    ExactPoint,
    SymbolicAngle,
    angle_sum,
    same_angle,
)

RIGHT = make_alpha("rational", 1, 2)
DECIMAL = make_alpha("decimal", 110.3)
DODECA_DIAMETER = 1.0 / math.sin(math.pi / 12.0)  # unit-edge circumdiameter


def test_first_ring_generic_count():
    res = count_patterns(0.1, GENERIC, keep=True)
    assert res.complete
    assert res.count == 3  # one per atlas configuration
    assert res.translation_count >= res.count


def test_first_ring_right_shield_count():
    res = count_patterns(0.1, RIGHT, keep=False)
    assert res.complete
    # all seven right-shield vertex configurations occur in valid patches,
    # including AATTT, which a dodecagon packing shows where two adjacent
    # dodecagons put a shield's right angle at the same end of their edge
    assert res.count == 7


def test_complete_ball_generic_one_ring():
    balls = complete_ball(GENERIC, 1.0)
    assert len(balls) == 7
    keys = {b.key() for b in balls}
    assert len(keys) == 7


def _keys_digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


# sha256 of the sorted canonical keys.  The balls were first pinned by
# listing every completion of the radius n + margin disk.  When the tile
# code changed to kind plus sorted corner codes, the earlier keys (anchored
# tile serializations) and the new ones split every radius-n completion into
# the same classes (generic n = 1, 2; pi/2 n = 0.6, 1.0, 1.5 with margin 0;
# 5pi/12 n = 0.6; 110.3 degrees n = 1, 2), with the same translation
# counts, and the pinned key sets map onto each other.
@pytest.mark.parametrize("n, alpha, count, digest", [
    (1.0, GENERIC, 7,
     "279adc7cc64aa62701719ac48144d1d9c3eac349b602cdf9592d3782cec979f8"),
    (0.6, RIGHT, 7,
     "d3a8949aa1fe0406f48b859b4c170982dc092ddf129e2a09c9417906cde3debf"),
])
def test_pattern_keys_pinned(n, alpha, count, digest):
    res = count_patterns(n, alpha)
    assert res.complete
    assert res.count == count
    assert _keys_digest(res.patterns) == digest


# pinned when each ball still coded its frames once for its key and again
# for its orbit; pi/2 at n = 1 is pinned in test_right_shield_two_rings
@pytest.mark.parametrize("n, alpha, counts, digest", [
    (2.0, GENERIC, (19, 389),
     "44a74ba0b4c887e374eaba8942b89c12993e11eb0336bdb73d4a618d50986aec"),
    (1.0, DECIMAL, (7, 101),
     "e8865c9d71b513a33f5720701522791cb5e28fd14ae9ec39e2e54006b9edeeff"),
], ids=["generic-n2", "110.3deg-n1"])
def test_pattern_counts_and_keys_pinned(n, alpha, counts, digest):
    res = count_patterns(n, alpha)
    assert res.complete
    assert (res.count, res.translation_count) == counts
    assert _keys_digest(res.patterns) == digest


@pytest.mark.parametrize("n, alpha", [(1.0, GENERIC), (0.6, RIGHT), (1.0, DECIMAL)])
def test_key_is_least_orbit_translation_key(n, alpha):
    # count_patterns takes each ball's key from the orbit it computes
    balls = complete_ball(alpha, n)
    for b in balls:
        assert b.key() == min(b.orbit_translation_keys())
    assert count_patterns(n, alpha).patterns == {b.key() for b in balls}


@pytest.mark.parametrize("n, alpha", [(1.0, GENERIC), (0.6, RIGHT), (1.0, DECIMAL)])
def test_each_ball_codes_its_frames_once(monkeypatch, n, alpha):
    # complete_ball keys every ball it extracts, coding each of its frames
    # once; count_patterns then reads the orbits without coding again
    extracted, keyed = [], []
    coded = Counter()
    extract, candidates, codes = (
        Patch.extract_ball, patch_module._key_candidates, patch_module._frame_codes
    )

    def counted_extract(self, vid, radius):
        extracted.append(extract(self, vid, radius))
        return extracted[-1]

    def counted_candidates(ball, rotations):
        out = candidates(ball, rotations)
        keyed.append((ball, len(out)))
        return out

    def counted_codes(*args):
        coded["frames"] += 1
        return codes(*args)

    monkeypatch.setattr(Patch, "extract_ball", counted_extract)
    monkeypatch.setattr(patch_module, "_key_candidates", counted_candidates)
    monkeypatch.setattr(patch_module, "_frame_codes", counted_codes)
    complete_ball(alpha, n)
    assert len(keyed) == len(extracted) > 0
    assert all(b is e for (b, _), e in zip(keyed, extracted))
    frames = sum(k for _b, k in keyed)
    assert coded["frames"] == frames
    coded.clear()
    count_patterns(n, alpha)
    assert coded["frames"] == frames


@pytest.fixture(scope="module")
def right_two_rings():
    return count_patterns(1.0, RIGHT)


def test_right_shield_two_rings(right_two_rings):
    res = right_two_rings
    assert res.complete
    assert (res.count, res.translation_count) == (52, 1028)
    # a key that the margin search refuted is not searched again; the
    # search fills the gap with the fewest admitted tiles first, and dead
    # branches backjump (the chronological search took 1739 nodes)
    assert res.nodes == 1725
    assert _keys_digest(res.patterns) == (
        "ce53dc26df87918e98ebdb45e5a22b00e0e944140f32bab971a6495bac736930"
    )


def test_margin_discards_balls_that_cannot_grow(right_two_rings):
    # without a margin every ball that closes the disk counts; with the
    # default margin only those that extend out to n + margin: 58 against
    # 52, so a margin search that accepted every ball would show here
    closed = {b.key() for b in complete_ball(RIGHT, 1.0, margin=0)}
    assert len(closed) == 58
    assert right_two_rings.patterns < closed


def test_node_budget_is_exact():
    full = count_patterns(0.6, RIGHT)
    assert full.complete and full.nodes > 0
    again = count_patterns(0.6, RIGHT, budget=full.nodes)
    assert again.complete
    assert (again.count, again.nodes) == (full.count, full.nodes)
    short = count_patterns(0.6, RIGHT, budget=full.nodes - 1)
    assert not short.complete
    assert short.nodes == full.nodes - 1
    # a partial count holds witnessed balls only
    assert short.patterns <= full.patterns


@pytest.mark.parametrize("n, margin", [
    (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, -0.5), (1.0, math.nan),
], ids=["n-negative", "n-nan", "n-inf", "margin-negative", "margin-nan"])
def test_radii_that_make_no_sense_are_refused_before_any_search(
    monkeypatch, n, margin
):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(patterns, "fill_disk", no_search)
    name = "radius n" if margin == 1.0 else "margin"
    with pytest.raises(ValueError, match=name):
        complete_ball(GENERIC, n, margin=margin)
    if margin == 1.0:
        with pytest.raises(ValueError, match=name):
            count_patterns(n, GENERIC)


def test_node_budget_is_shared_by_all_searches_of_one_call():
    nodes = NodeBudget(10_000)
    balls = complete_ball(GENERIC, 1.0, budget=nodes)
    used = nodes.used
    assert len(balls) == 7 and 0 < used < 10_000
    for limit in (1, used // 3, used - 1):
        with pytest.raises(BudgetExceeded) as exc:
            complete_ball(GENERIC, 1.0, budget=limit)
        assert {b.key() for b in exc.value.partial} <= {b.key() for b in balls}
    again = complete_ball(GENERIC, 1.0, budget=used)
    assert {b.key() for b in again} == {b.key() for b in balls}


# Reference: the partial-star matcher that pruning used before the per-gap
# rule.  It tries every rotation and reflection of every atlas word, letting
# each gap absorb letters whose angles sum to it.
def _matcher_completable(blocks, alpha) -> bool:
    if not any(kind == "word" for kind, _ in blocks):
        return True
    start = next(i for i, b in enumerate(blocks) if b[0] == "word")
    cyc = blocks[start:] + blocks[:start]
    for cfg in atlas_configs(alpha):
        w, rev = cfg.word, cfg.word[::-1]
        variants = {w[i:] + w[:i] for i in range(len(w))}
        variants |= {rev[i:] + rev[:i] for i in range(len(w))}
        if any(_match_tail(cyc, 0, v, 0, alpha) for v in variants):
            return True
    return False


def _match_tail(cyc, ci, w, pos, alpha) -> bool:
    if ci == len(cyc):
        return pos == len(w)
    kind, payload = cyc[ci]
    if kind == "word":
        end = pos + len(payload)
        return w[pos:end] == payload and _match_tail(cyc, ci + 1, w, end, alpha)
    return any(
        same_angle(payload, angle_sum(LABEL_ANGLES[c] for c in w[pos:pos + k]),
                   alpha)
        and _match_tail(cyc, ci + 1, w, pos + k, alpha)
        for k in range(len(w) - pos + 1)
    )


def test_star_completable_agrees_with_the_partial_star_matcher(monkeypatch):
    # the matcher was asked only about stars with a gap: compare on every
    # such star at a vertex the searches touch
    outcomes = Counter()
    prune = _Search._prune

    def checked(self, cand, vids):
        p = self.patch
        for v in set(vids):
            if not p.gaps(v):
                continue
            blocks = p.star_blocks(v)
            got = star_completable(blocks, p.alpha)
            assert got == _matcher_completable(blocks, p.alpha), blocks
            outcomes[got] += 1
        return prune(self, cand, vids)

    monkeypatch.setattr(_Search, "_prune", checked)
    for n, alpha in [
        (1.0, GENERIC),
        (0.6, RIGHT),
        (1.0, make_alpha("rational", 5, 12)),
        (1.0, DECIMAL),
    ]:
        assert count_patterns(n, alpha, keep=False).complete
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("alpha", [
    GENERIC, RIGHT, make_alpha("rational", 5, 12), DECIMAL,
])
def test_star_completable_agrees_with_the_matcher_on_two_gap_stars(alpha):
    # the searches above meet no star with two open gaps: here every short
    # corner word is cut into two runs, and the rest of the turn into two gaps
    outcomes = Counter()
    rad = alpha.eval_radians()
    for word in [w for k in (2, 3) for w in product("ABT", repeat=k)]:
        rest = FULL_TURN - angle_sum(LABEL_ANGLES[c] for c in word)
        for cut, a, b in product(range(1, len(word)), range(7), range(-2, 3)):
            g = SymbolicAngle(a, b)
            h = rest - g
            if min(g.value(rad), h.value(rad)) < 1e-6:
                continue
            blocks = [("word", "".join(word[:cut])), ("gap", g),
                      ("word", "".join(word[cut:])), ("gap", h)]
            got = star_completable(blocks, alpha)
            assert got == _matcher_completable(blocks, alpha), blocks
            outcomes[gap_feasible(g, alpha), got] += 1
    # a feasible first gap does not make the star completable
    assert outcomes[True, True] and outcomes[True, False]


@pytest.mark.parametrize("n, alpha, nodes", [(0.6, RIGHT, 96), (1.0, GENERIC, 303)])
def test_search_nodes_pinned(n, alpha, nodes):
    # each center star is searched once up to isometry, and its own tiles
    # spend no nodes; a center star searched twice shows here
    assert count_patterns(n, alpha, keep=False).nodes == nodes


class _NearestFirst(patterns._DiskFrontier):
    """The frontier without fail-first: every gap ranks as admitting no
    label, so every call takes the nearest must-close vertex and its gap of
    least start direction."""

    def _labels(self, gap):
        return 0


@pytest.mark.parametrize("n", [1.0, 1.5])
@pytest.mark.parametrize("alpha", [
    GENERIC, RIGHT, DECIMAL, make_alpha("decimal", 75.3),
], ids=str)
def test_fail_first_finds_the_nearest_first_balls(monkeypatch, alpha, n):
    # the gap order changes the search tree, not the balls
    fail_first = count_patterns(n, alpha)
    monkeypatch.setattr(patterns, "_DiskFrontier", _NearestFirst)
    nearest_first = count_patterns(n, alpha)
    assert fail_first.complete and nearest_first.complete
    assert (fail_first.count, fail_first.translation_count) == (
        nearest_first.count, nearest_first.translation_count
    )
    assert fail_first.patterns == nearest_first.patterns
    # and on each of these inputs fail-first takes fewer nodes
    assert fail_first.nodes < nearest_first.nodes


def test_dodecagon_fillings_exactly_three():
    fillings = dodecagon_fillings()
    assert len(fillings) == 3
    for p in fillings:
        assert p.validate().ok
        kinds = sorted(t.kind for t in p.tiles)
        assert kinds == ["S"] * 4 + ["T"] * 4


def _shape(tiles) -> frozenset:
    """Tiles as (kind, sorted corners rounded to 9 decimals)."""
    rad = RIGHT.eval_radians()
    return frozenset(
        (t.kind, tuple(sorted((round(x, 9) + 0.0, round(y, 9) + 0.0)
                              for x, y in t.corner_xy(rad))))
        for t in tiles
    )


@pytest.mark.parametrize("j", range(3))
def test_no_other_dodecagon_filling(j):
    """Every filling of the dodecagon, searched inside a collar: the
    packing window of filling j at extent 6 without the 8 tiles of cell
    (0, 0).  The collar refuses no filling.  A rim vertex of the cell
    holds a triangle of the collar and two 150-degree corners, one from
    each dodecagon, each filled by B or A + T; every such count solves
    the vertex equation at pi/2.

    The disk is centred at the cell's corner at the origin, a vertex of the
    collar, and reaches across the cell: the search adds no bare vertex,
    which would refuse a tile edge through it.  Outside the cell the disk
    meets only closed collar vertices.
    """
    window = gen_dodecagon_tiling(DodecagonChoice.constant(j), 6)
    cell = set(dodecagon_fillings()[j].tiles)
    patch = Patch(RIGHT)
    for t in window.tiles:
        if t not in cell:
            patch.add_tile(t)
    assert len(window) - len(patch) == 8
    collar, vertices = len(patch), len(patch.vertex_ids())
    corner = patch.add_vertex(ORIGIN)
    assert len(patch.vertex_ids()) == vertices  # no vertex was made
    found = []
    fill_disk(patch, corner, 2 * DODECA_CIRCUM + 1e-3,
              on_solution=lambda p: found.append(_shape(p.tiles[collar:])))
    assert len(found) == 3
    assert set(found) == {_shape(p.tiles) for p in dodecagon_fillings()}


def test_dodecagon_fillings_are_searched_once_and_frozen():
    # built once; every call returns the same patches
    fillings = dodecagon_fillings()
    assert isinstance(fillings, tuple) and dodecagon_fillings() is fillings
    for p in fillings:
        with pytest.raises(ValueError, match="frozen"):
            p.pop_tile()


def test_frozen_filling_refuses_a_new_vertex():
    # the fillings are shared: a vertex added to one would outlive the call
    filling = dodecagon_fillings()[0]
    assert len(filling.vertex_ids()) == 17
    with pytest.raises(ValueError, match="frozen"):
        filling.add_vertex(ExactPoint.from_dict({0: (9, 0)}))
    assert len(filling.vertex_ids()) == 17


def test_dodecagon_fillings_are_rotations_of_one_shape():
    # distinct as fillings of a fixed dodecagon, but pairwise isometric
    from shieldtiles.patch import PatternBall
    from shieldtiles.patterns import dodecagon_center_xy

    cxy = dodecagon_center_xy()
    balls = [
        PatternBall(alpha=RIGHT, center=None, center_xy=cxy, radius=0.0,
                    tiles=tuple(p.tiles))
        for p in dodecagon_fillings()
    ]
    assert len({b.translation_key() for b in balls}) == 3
    assert len({b.key() for b in balls}) == 1


def test_dodecagon_filling_indices_are_stable():
    # packing windows and `generate dodecagon --filling` name fillings by
    # index: the four triangles of filling k lie in the directions
    # 90*j - 30*k degrees from the dodecagon center
    from shieldtiles.patterns import dodecagon_center_xy

    cx, cy = dodecagon_center_xy()
    rad = RIGHT.eval_radians()
    for k, p in enumerate(dodecagon_fillings()):
        turns = set()
        for t in p.tiles:
            if t.kind == "T":
                pts = t.corner_xy(rad)
                mx = sum(x for x, _ in pts) / 3 - cx
                my = sum(y for _, y in pts) / 3 - cy
                turns.add(round(math.degrees(math.atan2(my, mx)) + 30 * k) % 90)
        assert turns == {0}


def test_entropy_zero_below_diameter():
    for n in (0.5, 1.0, 2.0, 3.0, 3.8):
        assert dodecagon_cells_inside(n) == 0
        assert entropy_bound(n) == 0.0
    assert DODECA_DIAMETER < 3.9
    assert dodecagon_cells_inside(3.9) > 0


def test_entropy_positive_past_threshold():
    for n in range(4, 30):
        assert entropy_bound(n) > 0.0


def test_cells_nondecreasing_and_quadratic():
    prev = 0
    for n in range(1, 40):
        d = dodecagon_cells_inside(n)
        assert d >= prev
        prev = d
    for n in range(4, 20):
        assert dodecagon_cells_inside(2 * n) >= 3 * dodecagon_cells_inside(n)


def test_cells_inside_pinned():
    # a packing lattice turned or shifted the wrong way moves these
    assert [dodecagon_cells_inside(n) for n in range(31)] == [
        0, 0, 0, 0, 2, 3, 4, 6, 10, 12, 16, 22, 27, 30, 40, 44, 50, 58, 67,
        74, 84, 98, 104, 114, 128, 139, 148, 166, 178, 190, 210,
    ]


def test_star_verdict_agrees_with_the_atlas_words(monkeypatch):
    # reference: a closed star is legal iff its canonical word is an atlas
    # word; the patch decides by the vertex equation instead
    judge = Patch._star_verdict
    seen = Counter()

    def checked(self, ivs):
        fault = judge(self, ivs)
        if _closes(ivs):
            word = _star_word(ivs)
            legal = word in atlas_words(self.alpha)
            assert (fault is None) == legal, (str(self.alpha), word, fault)
            seen[legal] += 1
        return fault

    monkeypatch.setattr(Patch, "_star_verdict", checked)
    for n, alpha in (
        (1.0, GENERIC),
        (0.6, RIGHT),
        (1.0, make_alpha("rational", 5, 12)),
        (1.0, DECIMAL),
    ):
        assert count_patterns(n, alpha, keep=False).complete
    # four sharp corners a microdegree above pi/2 close a turn within the
    # patch's tolerance, and neither the atlas nor the equation admits them
    patch = Patch(make_alpha("decimal", 90 + 1e-6))
    for k in range(3):
        patch.add_tile(Placement("S", ExactPoint(), Direction.of(0, k)))
    with pytest.raises(AtlasViolation):
        patch.add_tile(Placement("S", ExactPoint(), Direction.of(0, 3)))
    assert seen[True] and seen[False]


def test_right_shield_counts_dominate_generic():
    for n in (0.1, 0.6):
        g = count_patterns(n, GENERIC, keep=False)
        r = count_patterns(n, RIGHT, keep=False)
        assert g.complete and r.complete
        assert r.count >= g.count


@pytest.mark.parametrize("alpha", [GENERIC, RIGHT], ids=str)
def test_each_flush_candidate_is_built_once_per_count(alpha, monkeypatch):
    # the searches of one count share a table of flush candidates: each
    # (vertex point, start direction) pair gets its three tiles built once
    built = Counter()
    real = patterns.placement_with_corner

    def counted(kind, corner, point, d_out):
        built[kind, corner, point, d_out] += 1
        return real(kind, corner, point, d_out)

    monkeypatch.setattr(patterns, "placement_with_corner", counted)
    assert count_patterns(1.0, alpha).complete
    pairs = {(point, d) for _kind, _corner, point, d in built}
    assert len(pairs) > 50
    assert sum(built.values()) == 3 * len(pairs)
    assert set(built.values()) == {1}
