"""The nine acceptance criteria, one test and one printed verdict line each.

Criteria 6 and 7 check their counts against exact evidence built by the
package itself: criterion 6 against the rotation orbit of one dodecagon
filling, criterion 7 against a dodecagon-packing window that contains the
AATTT vertex.

Criterion 7 still fails, on one conjunct only: it asks `entropy_bound(n)`,
that is log(3)*D(n)/n^2, to be nondecreasing. D(n) is a step function (D(4)
= 2, D(5) = 3), so the ratio dips between its jumps (0.1373 at n = 4, 0.1318
at n = 5). `entropy_bound` promises only P_n >= 3^D(n); the true monotone
statements, D(n) nondecreasing and D(2n) >= 3*D(n), are checked by the last
conjunct and by tests/test_patterns.py. The failing conjunct is kept as it
was written, and its printed line carries the measured values.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import (
    atlas_words,
    configs_from_counts,
    exceptional_alphas,
    solve_vertex_equation,
)
from shieldtiles.classify import (
    canonical_orientation_word,
    classify,
    fault_lines,
    vertex_census,
)
from shieldtiles.diskroot import disk_radius_root, real_roots_unit_interval
from shieldtiles.errors import IncompleteCoverage
from shieldtiles.generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_line_tiling,
    gen_triangle_tiling,
    hex_lattice_vector,
)
from shieldtiles.patch import PatternBall
from shieldtiles.patterns import (
    Unknown,
    complete_ball,
    count_patterns,
    dodecagon_cells_inside,
    dodecagon_center_xy,
    dodecagon_fillings,
    entropy_bound,
    is_config_extendable,
)
from shieldtiles.symbolic import ExactPoint, SymbolicAngle

RIGHT = make_alpha("rational", 1, 2)
DEG30 = SymbolicAngle(-1, 1)  # -pi/3 + alpha: 30 degrees at alpha = pi/2

LINE_WORDS_4 = [
    "+", "++", "+-", "+++", "++-", "+-+",
    "++++", "+++-", "++--", "++-+", "+-+-", "+--+",
]
ROUND_TRIP_ALPHAS = (
    make_alpha("rational", 5, 12),  # 75 degrees, exact form required
    make_alpha("decimal", 99.34),
    make_alpha("decimal", 110.0),
)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _tri_extent(order, alpha):
    vx, vy = hex_lattice_vector(order).xy(alpha.eval_radians())
    return max(5, int(math.hypot(vx, vy)) + 3)


@lru_cache(maxsize=None)
def _family_fixtures():
    out = []
    for alpha in ROUND_TRIP_ALPHAS:
        for w in LINE_WORDS_4:
            out.append((f"line[{w}]@{alpha}", gen_line_tiling(w, 3, alpha)))
        for k in range(5):
            out.append((
                f"triangle[{k}]@{alpha}",
                gen_triangle_tiling(k, _tri_extent(k, alpha), alpha),
            ))
        out.append((
            f"triangle[inf]@{alpha}",
            gen_triangle_tiling(math.inf, 5, alpha),
        ))
    return tuple(out)


def test_criterion_1_generic_atlas(capsys):
    t0 = time.perf_counter()
    words = atlas_words(GENERIC)
    dt = time.perf_counter() - t0
    ok = words == {"TTTTTT", "ATBT", "ABTT"} and dt < 1.0
    _verdict(capsys, 1, ok, f"atlas(generic) = {sorted(words)} in {dt:.3f}s")


def test_criterion_2_exceptional_scan(capsys):
    t0 = time.perf_counter()
    table = exceptional_alphas()
    by_frac = {a.frac: (c.p, c.q, c.r) for a, c in table.items()}
    expect = {
        Fraction(2, 5): (5, 0, 0),
        Fraction(5, 12): (4, 0, 1),
        Fraction(4, 9): (3, 0, 2),
        Fraction(5, 9): (3, 0, 1),
    }
    base = {(c.p, c.q, c.r) for c in solve_vertex_equation(GENERIC)}
    right = {(c.p, c.q, c.r) for c in solve_vertex_equation(RIGHT)}
    extra = right - base
    dt = time.perf_counter() - t0
    ok = (
        by_frac == expect
        and extra == {(4, 0, 0), (2, 0, 3), (0, 2, 1)}
        and dt < 1.0
    )
    _verdict(
        capsys, 2, ok,
        f"4 exceptional alphas with expected witnesses, right-shield "
        f"extras {sorted(extra)} in {dt:.3f}s",
    )


def test_criterion_3_exceptional_exclusion(capsys):
    results = []
    generic_words = atlas_words(GENERIC)
    for alpha in sorted(exceptional_alphas(), key=lambda a: a.radians()):
        extra = {
            cfg
            for c in solve_vertex_equation(alpha)
            for cfg in configs_from_counts(c)
            if cfg.word not in generic_words
        }
        for cfg in sorted(extra):
            res = is_config_extendable(cfg, alpha, depth=3)
            depth = 3
            while isinstance(res, Unknown) and depth < 6:
                depth += 1
                res = is_config_extendable(cfg, alpha, depth=depth)
            results.append((str(alpha), cfg.word, type(res).__name__))
    ok = bool(results) and all(r[2] == "ProvenImpossible" for r in results)
    _verdict(
        capsys, 3, ok,
        f"{len(results)} exceptional configurations all ProvenImpossible"
        if ok else f"unexpected results: {results}",
    )


def test_criterion_4_family_roundtrip(capsys):
    t0 = time.perf_counter()
    failures = []
    for name, patch in _family_fixtures():
        if not patch.validate().ok:
            failures.append(f"{name}: invalid")
            continue
        verdict = classify(patch)
        if name.startswith("line"):
            w = name[len("line["):name.index("]")]
            expect = "+" if len(set(w)) == 1 else canonical_orientation_word(w)
            if verdict.family != "Line" or verdict.word != expect:
                failures.append(f"{name}: {verdict}")
        else:
            k = name[len("triangle["):name.index("]")]
            expect = math.inf if k == "inf" else int(k)
            if verdict.family != "Triangle" or verdict.order != expect:
                failures.append(f"{name}: {verdict}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    _verdict(
        capsys, 4, ok,
        f"{len(_family_fixtures())} windows validate and round-trip "
        f"in {dt:.1f}s" if ok else f"failures: {failures[:5]} ({dt:.1f}s)",
    )


def test_criterion_5_desk_scale_classification(capsys):
    t0 = time.perf_counter()
    n = 1.0  # two rings of tiles around the center vertex
    enumerated = {b.key() for b in complete_ball(GENERIC, n)}

    harvested = set()
    for w in ("+", "++", "+-", "+++", "++-", "+-+"):
        patches = [gen_line_tiling(w, 4, GENERIC)]
        for p in patches:
            harvested |= _harvest_keys(p, n)
    for k in range(4):
        p = gen_triangle_tiling(k, _tri_extent(k, GENERIC), GENERIC)
        harvested |= _harvest_keys(p, n)
    dt = time.perf_counter() - t0
    ok = enumerated == harvested
    _verdict(
        capsys, 5, ok,
        f"radius-{n} generic balls: enumerator {len(enumerated)} == "
        f"generators {len(harvested)} (set equality) in {dt:.1f}s"
        if ok else
        f"enumerator-only {len(enumerated - harvested)}, "
        f"generators-only {len(harvested - enumerated)}",
    )


def _harvest_keys(patch, n):
    keys = set()
    for vid in patch.vertex_ids():
        try:
            keys.add(patch.extract_ball(vid, n).key())
        except IncompleteCoverage:
            continue
    return keys


def _filling_ball(tiles, center_xy):
    return PatternBall(alpha=RIGHT, center=None, center_xy=center_xy,
                       radius=0.0, tiles=tuple(tiles))


def _rotated_translation_key(filling, k, cxy):
    """Translation key of `filling` turned by k*30 degrees about its center.

    Rotating about the origin is that rotation followed by a translation,
    so the key is taken relative to the image of the center.
    """
    ang = DEG30 * k
    th = ang.value(RIGHT.eval_radians())
    c, s = math.cos(th), math.sin(th)
    center = (cxy[0] * c - cxy[1] * s, cxy[0] * s + cxy[1] * c)
    return _filling_ball(
        (t.rotated(ang) for t in filling.tiles), center
    ).translation_key()


def test_criterion_6_dodecagon_fillings(capsys):
    # A filling has 4 shields and 4 triangles, so no rotation of order 6 or
    # 12 fixes it: its symmetry group has order at most 8 of the
    # dodecagon's 24, and each isometry class gives at least 3 fillings of
    # the fixed dodecagon. Three fillings are therefore exactly one class,
    # the 30-degree rotation orbit of filling 0.
    t0 = time.perf_counter()
    fillings = dodecagon_fillings()
    cxy = dodecagon_center_xy()
    balls = [_filling_ball(p.tiles, cxy) for p in fillings]
    fixed_keys = [b.translation_key() for b in balls]
    n_fixed_frame = len(set(fixed_keys))
    n_isometry = len({b.key() for b in balls})
    orbit = [_rotated_translation_key(fillings[0], k, cxy) for k in range(12)]
    angles = [
        30 * orbit.index(key) if key in orbit else None for key in fixed_keys
    ]
    fixed_by_90 = orbit[3] == fixed_keys[0]
    dt = time.perf_counter() - t0
    ok = (
        len(fillings) == 3
        and all(p.validate().ok for p in fillings)
        and n_fixed_frame == 3
        and n_isometry == 1
        and set(orbit) == set(fixed_keys)
        and fixed_by_90
        and dt < 60.0
    )
    _verdict(
        capsys, 6, ok,
        f"{len(fillings)} fillings, {n_fixed_frame} distinct in the fixed "
        f"frame, {n_isometry} isometry class(es); filling i is filling 0 "
        f"turned by {angles} degrees, 90-degree image of filling 0 is "
        f"{'itself' if fixed_by_90 else 'another filling'} "
        f"({dt:.1f}s)",
    )


def test_criterion_7_pattern_counts(capsys):
    parts = []
    g = count_patterns(0.1, GENERIC, keep=False)
    parts.append((g.count == 3, f"P_0.1(generic)={g.count} (want 3)"))
    r = count_patterns(0.1, RIGHT, keep=False)
    # witness: dodecagon cell (0, 1) takes filling 1, every other cell
    # filling 0; AATTT forms where two neighbours both put a shield's right
    # angle at the same end of their shared edge
    witness = gen_dodecagon_tiling(
        DodecagonChoice(assignment={(0, 1): 1}, default=0), 4
    )
    census = vertex_census(witness) if witness.validate().ok else {}
    triangles = gen_triangle_tiling(0, 3, RIGHT)  # TTTTTT only
    words = {cfg.word for cfg in census} | {
        cfg.word for cfg in vertex_census(triangles)
    }
    n_aattt = sum(len(v) for cfg, v in census.items() if cfg.word == "AATTT")
    atlas = atlas_words(RIGHT)
    parts.append((
        r.count == 7 and words == atlas and n_aattt > 0,
        f"P_0.1(right)={r.count} (want 7 = all {len(atlas)} atlas words, "
        f"witnessed by a dodecagon window with cell (0,1) on filling 1, "
        f"others 0, extent 4, {len(witness)} tiles, {n_aattt} AATTT "
        f"vertex, plus triangle order 0: words {sorted(words)})",
    ))
    dominance = all(
        count_patterns(n, RIGHT, keep=False).count
        >= count_patterns(n, GENERIC, keep=False).count
        for n in (0.1, 0.6)
    )
    parts.append((dominance, "P_n(right) >= P_n(generic) for computed n"))
    positive = all(entropy_bound(n) > 0 for n in range(4, 30))
    parts.append((positive, "entropy_bound > 0 past first threshold"))
    vals = [entropy_bound(n) for n in range(4, 30)]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    parts.append((
        monotone,
        "entropy_bound nondecreasing (D(n) is a step function, so "
        "D(n)/n^2 dips between jumps; cell count itself is nondecreasing "
        "and D(2n) >= 3*D(n) holds)",
    ))
    quadratic = all(
        dodecagon_cells_inside(2 * n) >= 3 * dodecagon_cells_inside(n)
        for n in range(4, 16)
    )
    parts.append((quadratic, "D(2n) >= 3*D(n)"))
    ok = all(p for p, _ in parts)
    detail = "; ".join(
        f"{'ok' if p else 'FAIL'}: {msg}" for p, msg in parts
    )
    _verdict(capsys, 7, ok, detail)


def test_criterion_8_polynomial_root(capsys):
    t0 = time.perf_counter()
    roots = real_roots_unit_interval()  # independent sign-scan oracle
    r = disk_radius_root()
    dt = time.perf_counter() - t0
    ok = (
        len(roots) == 3
        and 0.5 < r.value < 0.6
        and math.floor(r.value * 100) == 54  # two leading digits of the known value
        and r.residual < 1e-10
        and dt < 1.0
    )
    _verdict(
        capsys, 8, ok,
        f"r = {r.value:.12f}, |P(r)| = {r.residual:.1e}, "
        f"{len(roots)} real roots in (0,1), {dt:.3f}s",
    )


def test_criterion_9_structural_invariants(capsys):
    fixtures = list(_family_fixtures()) + [
        (f"filling[{i}]", p) for i, p in enumerate(dodecagon_fillings())
    ]
    failures = []
    rng = random.Random(20240817)
    checked_balls = 0
    for name, patch in fixtures:
        if not patch.validate().ok:
            failures.append(f"{name}: invalid")
            continue
        # fault lines cannot cross
        lines = fault_lines(patch)
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if set(lines[i].vertices) & set(lines[j].vertices):
                    failures.append(f"{name}: fault lines {i},{j} intersect")
        # every hex is surrounded by shields
        for bad in _hex_surround_violations(patch):
            failures.append(f"{name}: hex vertex {bad} not shield-framed")
        # canonical key invariance under random isometries
        ball = _some_ball(patch)
        if ball is not None:
            checked_balls += 1
            key = ball.key()
            for _ in range(20):
                img = _random_isometry(ball, rng)
                if img.key() != key:
                    failures.append(f"{name}: key changed under isometry")
                    break
    ok = not failures and checked_balls >= len(_family_fixtures()) // 2
    _verdict(
        capsys, 9, ok,
        f"{len(fixtures)} fixtures: fault lines pairwise disjoint, hexes "
        f"shield-framed, {checked_balls} balls key-invariant under "
        f"20 random isometries each" if ok else f"failures: {failures[:5]}",
    )


def _hex_surround_violations(patch):
    if not any(t.kind == "S" for t in patch.tiles):
        return []  # the all-triangle tiling: no shields to frame anything
    census = vertex_census(patch)
    out = []
    for cfg, vids in census.items():
        if cfg.word != "TTTTTT":
            continue
        for v in vids:
            star_tiles = patch.tiles_at(v)
            for _ek, (a, b) in patch.shared_edges():
                if (a in star_tiles) == (b in star_tiles):
                    continue
                outside = b if a in star_tiles else a
                if patch.tiles[outside].kind != "S":
                    out.append(v)
    return out


def _some_ball(patch, n=1.0):
    for vid in patch.vertex_ids():
        try:
            return patch.extract_ball(vid, n)
        except IncompleteCoverage:
            continue
    return None


def _random_isometry(ball, rng):
    tiles = ball.tiles
    center = ball.center
    if rng.random() < 0.5:
        tiles = tuple(t.reflected() for t in tiles)
        center = center.conj()
    ang = SymbolicAngle(rng.randrange(-6, 7), rng.randrange(-2, 3))
    shift = ExactPoint.from_dict(
        {rng.randrange(-2, 3): (rng.randrange(-3, 4), rng.randrange(-3, 4))}
    )
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
