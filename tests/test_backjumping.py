"""Backjumping against chronological backtracking.

_Chronological is the completion search as it was before backjumping: a
dead branch returns to the latest choice only.  Routed through the same
callers, both searches must visit the same completions, each as often,
and backjumping may only skip nodes.
"""

from collections import Counter

import pytest

from shieldtiles import patterns
from shieldtiles.alpha import GENERIC, make_alpha
from shieldtiles.atlas import LABEL_ANGLES
from shieldtiles.classify import classify
from shieldtiles.errors import ShieldError
from shieldtiles.generators import (
    DodecagonChoice,
    gen_dodecagon_tiling,
    gen_triangle_tiling,
)
from shieldtiles.patch import GEOM_TOL, Patch
from shieldtiles.patterns import (
    DODECA_CIRCUM,
    ORIGIN,
    _flush_candidates,
    _Search,
    complete_ball,
    count_patterns,
    fill_disk,
)

RIGHT = make_alpha("rational", 1, 2)
DECIMAL = make_alpha("decimal", 110.3)


class _Chronological(_Search):
    """Reference: depth-first search with chronological backtracking, at
    the gaps the frontier chooses."""

    def run(self) -> bool:
        chosen = self.frontier()
        if chosen is None:
            if self.on_solution is not None:
                self.on_solution(self.patch)
            return self.on_solution is None
        _d, vid, (start_dir, _sym, _gn) = chosen
        point = self.patch.vertex_point(vid)
        for cand in _flush_candidates(point, start_dir):
            self.budget.spend()
            try:
                vids = self.patch.add_tile(cand)
            except ShieldError:
                continue
            if not self._prune(cand, vids):
                self.patch.pop_tile()
                continue
            self.frontier.touch(vids)
            if self.run():
                return True
            self.patch.pop_tile()
            self.frontier.touch(vids)
        return False


def _placements(patch: Patch) -> tuple:
    return tuple(sorted(
        (t.kind, t.anchor.coeffs, t.heading.a, t.heading.b) for t in patch.tiles
    ))


def _traced(job, search_cls, **overrides):
    """Run job with every search built as search_cls.

    Returns the job's answer, the completions passed to on_solution (as
    sorted placements, with multiplicity) and the nodes of all searches.
    """
    seen = Counter()
    budgets = {}

    def make(**kw):
        budgets[id(kw["budget"])] = kw["budget"]
        report = kw.get("on_solution")
        if report is not None:
            def record(p):
                seen[_placements(p)] += 1
                report(p)

            kw["on_solution"] = record
        return search_cls(**{**kw, **overrides})

    with pytest.MonkeyPatch.context() as m:
        m.setattr(patterns, "_Search", make)
        answer = job()
    return answer, seen, sum(b.used for b in budgets.values())


def _count(n, alpha):
    def job():
        res = count_patterns(n, alpha)
        assert res.complete
        return res.count, res.translation_count, frozenset(res.patterns)

    return job


def _collar_fillings():
    # the fillings of dodecagon cell (0, 0) inside the rest of a packing
    # window, searched from the cell's corner at the origin across the
    # cell, as test_patterns.test_no_other_dodecagon_filling does
    found = []
    for j in range(3):
        window = gen_dodecagon_tiling(DodecagonChoice.constant(j), 6)
        cell = set(patterns.dodecagon_fillings()[j].tiles)
        patch = Patch(RIGHT)
        for t in window.tiles:
            if t not in cell:
                patch.add_tile(t)
        fill_disk(patch, patch.vertex_at(ORIGIN), 2 * DODECA_CIRCUM + 1e-3,
                  on_solution=lambda p: found.append(_placements(p)))
    return sorted(found)


CASES = {
    "generic-n1": _count(1.0, GENERIC),
    "right-n0.6": _count(0.6, RIGHT),
    "right-n1.0": _count(1.0, RIGHT),
    "5pi/12-n1": _count(1.0, make_alpha("rational", 5, 12)),
    "110.3deg-n1": _count(1.0, DECIMAL),
    "dodecagon": _collar_fillings,
}


# cases with a dead branch below an unrelated choice, which backjumping
# skips.  Fail-first leaves none in the dodecagon collar (198 nodes either
# way), which nearest-first met.
SKIPS = {"right-n1.0"}


@pytest.fixture(scope="module")
def chronological():
    return {name: _traced(job, _Chronological) for name, job in CASES.items()}


@pytest.mark.parametrize("case", CASES)
def test_backjumping_visits_the_chronological_completions(chronological, case):
    answer, seen, nodes = _traced(CASES[case], _Search)
    ref_answer, ref_seen, ref_nodes = chronological[case]
    assert answer == ref_answer
    assert seen == ref_seen and seen
    assert nodes <= ref_nodes
    if case in SKIPS:
        assert nodes < ref_nodes


def test_no_jump_beyond_must_close(chronological):
    # with no vertex nearer than must_close the blame is every placed tile,
    # and the search makes exactly the chronological moves
    answer, seen, nodes = _traced(CASES["right-n1.0"], _Search, must_close=0.0)
    assert (answer, seen, nodes) == chronological["right-n1.0"]


@pytest.fixture(scope="module")
def dead_seeds():
    """Balls that close the radius-1 disk at pi/2 but do not extend to
    radius 2."""
    kept = {b.key() for b in complete_ball(RIGHT, 1.0)}
    dead = [b for b in complete_ball(RIGHT, 1.0, margin=0) if b.key() not in kept]
    assert dead
    return dead


@pytest.mark.parametrize("search_cls", [_Search, _Chronological])
def test_first_completion_from_a_dead_seed_restores_it(dead_seeds, search_cls):
    for ball in dead_seeds:
        patch = Patch(RIGHT)
        for t in ball.tiles:
            patch.add_tile(t)
        center = patch.vertex_at(ball.center)

        def state():
            return (list(patch.tiles), set(patch.boundary_edges()),
                    [patch.gaps(v) for v in patch.vertex_ids()])

        before = state()
        done, _seen, nodes = _traced(
            lambda: fill_disk(patch, center, 2.0), search_cls
        )
        assert done is False and nodes > 0
        assert state() == before
        assert patch.validate().ok


@pytest.mark.parametrize("alpha", [GENERIC, DECIMAL], ids=str)
@pytest.mark.parametrize("order", range(6))
def test_triangle_windows_up_to_order_five(alpha, order):
    patch = gen_triangle_tiling(order, 8, alpha)
    assert patch.validate().ok
    verdict = classify(patch)
    assert (verdict.family, verdict.order, verdict.complete) == (
        "Triangle", order, True
    )


def test_triangle_window_is_the_first_chronological_completion():
    # both searches stop at the same first completion, placed in the same
    # order
    def job():
        return gen_triangle_tiling(4, 8, DECIMAL).tiles

    ref, _seen, ref_nodes = _traced(job, _Chronological)
    got, _seen, nodes = _traced(job, _Search)
    assert got == ref
    assert nodes < ref_nodes


# add_tile and spend as the package defines them, out of reach of the
# counters below
_ADD_TILE = Patch.add_tile
_SPEND = patterns.NodeBudget.spend


def _state(patch: Patch):
    return (list(patch.tiles), set(patch.boundary_edges()),
            [patch.gaps(v) for v in patch.vertex_ids()])


class _OverfullChecked(_Search):
    """At each node, before the search runs it: every flush candidate whose
    corner is wider than the chosen gap by more than 2*GEOM_TOL is offered
    to add_tile, which must refuse it and leave the patch as it was.

    frames holds, for each node being searched, innermost last, its
    candidates' overfull flags and how many of them the node has spent a
    node on; reached counts the overfull candidates spent on."""

    frames: list = []
    reached = 0

    def run(self):
        flags = []
        chosen = self.frontier()
        if chosen is not None:
            _d2, vid, (start, _sym, gap_rad) = chosen
            p = self.patch
            for cand, lab in zip(
                _flush_candidates(p.vertex_point(vid), start), "TAB"
            ):
                over = LABEL_ANGLES[lab].value(p.eval_rad) > gap_rad + 2 * GEOM_TOL
                flags.append(over)
                if over:
                    before = _state(p)
                    with pytest.raises(ShieldError):
                        _ADD_TILE(p, cand)
                    assert _state(p) == before
        self.frames.append([flags, 0])
        try:
            return super().run()
        finally:
            self.frames.pop()


def _spend_counted(budget):
    # a node spends on its candidates in order, each before its add_tile
    frame = _OverfullChecked.frames[-1]
    _OverfullChecked.reached += frame[0][frame[1]]
    frame[1] += 1
    _SPEND(budget)


OVERFULL_CASES = {
    "generic-n1": (_count(1.0, GENERIC), 50),
    "right-n1.0": (_count(1.0, RIGHT), 288),
    "110.3deg-n1": (_count(1.0, DECIMAL), 50),
    "75.3deg-n1.5": (_count(1.5, make_alpha("decimal", 75.3)), 100),
}


@pytest.mark.parametrize("case", OVERFULL_CASES)
def test_early_refusals_are_add_tile_refusals(case):
    # add_tile refuses every overfull candidate, and the search skips
    # add_tile for exactly the overfull candidates it reaches: want of them
    job, want = OVERFULL_CASES[case]
    calls = Counter()

    def counted(self, pl):
        calls["add_tile"] += 1
        return _ADD_TILE(self, pl)

    _OverfullChecked.reached = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Patch, "add_tile", counted)
        m.setattr(patterns.NodeBudget, "spend", _spend_counted)
        _answer, _seen, nodes = _traced(job, _OverfullChecked)
    assert _OverfullChecked.reached == want
    assert calls["add_tile"] == nodes - want
