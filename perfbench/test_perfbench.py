"""Tests of the benchmark harness itself.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Small jobs of every kind, so a traced run reaches every wrapper quickly.
SMALL_JOBS = [
    {"name": "enum-small", "kind": "enum", "alpha": workloads.RIGHT, "n": 0.1},
    {"name": "triangle-small", "kind": "triangle", "alpha": ["decimal", 104.5],
     "order": 1, "extent": 2},
    {"name": "line-small", "kind": "line", "alpha": workloads.GENERIC,
     "word": "+-", "extent": 1},
    {"name": "dodecagon-small", "kind": "dodecagon", "alpha": workloads.RIGHT,
     "extent": 1, "cells": [[i, j, (i + j) % 3]
                            for i in range(-2, 3) for j in range(-2, 3)]},
]


def enum_job(name):
    return next(j for j in workloads.make_jobs("enum-generic", 1, None)
                if j["name"] == name)


def window_job(kind, seed=3):
    jobs = workloads.make_jobs("windows", seed, lambda deg: True)
    return next(j for j in jobs if j["kind"] == kind)


def window_answer(job, **classification):
    cls = dict(workloads.expected_classification(job), **classification)
    return {"tiles": 100, "valid": True, "classification": cls,
            "roundtrip_tiles": 100, "roundtrip_valid": True}


def test_gate_passes_reference_answers():
    job = enum_job("generic-n2")
    assert workloads.check(job, {"count": 19, "translations": 389, "complete": True}) == []
    for kind in ("triangle", "line", "dodecagon"):
        job = window_job(kind)
        assert workloads.check(job, window_answer(job)) == []


@pytest.mark.parametrize("answer", [
    {"count": 18, "translations": 389, "complete": True},
    {"count": 19, "translations": 390, "complete": True},
    {"count": 19, "translations": 389, "complete": False},
    {"error": "BudgetExceeded: node budget exhausted"},
])
def test_gate_flags_wrong_enum_answers(answer):
    assert workloads.check(enum_job("generic-n2"), answer)


def test_gate_flags_wrong_window_answers():
    tri = window_job("triangle")
    assert workloads.check(tri, window_answer(tri, order=tri["order"] + 1))
    assert workloads.check(tri, window_answer(tri, family="Line"))
    assert workloads.check(tri, dict(window_answer(tri), valid=False))
    assert workloads.check(tri, dict(window_answer(tri), roundtrip_tiles=99))
    assert workloads.check(tri, dict(window_answer(tri), roundtrip_valid=False))
    line = window_job("line")
    assert workloads.check(line, window_answer(line, word="+"))
    dodeca = window_job("dodecagon")
    assert workloads.check(dodeca, window_answer(dodeca, family="Triangle"))


def test_checked_runs_counts_a_tampered_result_as_failed():
    jobs = [enum_job("generic-n1")]
    good = {"count": 7, "translations": 101, "complete": True}
    result = {"runs": [{"job": "generic-n1", "s": 1.0, "answer": good},
                       {"job": "generic-n1", "s": 1.0, "answer": dict(good, count=6)}]}
    attempted, failures = run.checked_runs(jobs, [result])
    assert attempted == 2 and len(failures) == 1


def test_line_expectation_follows_stack_symmetries():
    line = dict(window_job("line"), word="-+-++")
    assert workloads.expected_classification(line)["word"] == "++-+-"
    uniform = dict(line, word="----")
    assert workloads.expected_classification(uniform) == {
        "family": "Line", "word": "+", "complete": False}


def test_window_inputs_come_from_the_seed():
    def draw(seed):
        return workloads.make_jobs("windows", seed, lambda deg: True)

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    for job in draw(5):
        if job["kind"] == "line":
            assert 3 <= len(job["word"]) <= 6


def test_rejected_decimal_alpha_is_redrawn():
    import random

    first = workloads.draw_decimal_alpha(random.Random(1), lambda deg: True)
    again = workloads.draw_decimal_alpha(random.Random(1), lambda deg: deg != first)
    assert again != first
    lo, hi = workloads.DECIMAL_RANGE
    assert lo <= again <= hi


def test_hash_seed_is_pinned_per_workload_and_seed():
    assert workloads.hash_seed("windows", 4) == workloads.hash_seed("windows", 4)
    assert workloads.hash_seed("windows", 4) != workloads.hash_seed("windows", 5)
    assert 0 <= workloads.hash_seed("enum-right", 1) < 2 ** 32


def test_guard_reports_a_wrapper_that_was_never_reached():
    calls = {name: 1 for name in spans.EXPECTED_CALLS["line"]}
    calls["classify.classify"] = 0
    summary = {"calls": calls, "counts": {}}
    assert spans.unreached(summary, {"line"}) == ["classify.classify"]


def test_every_wrapper_is_expected_on_some_job_kind():
    wrapped = {b[0] for b in spans.SPAN_BINDINGS} | set(spans.COUNT_BINDINGS)
    assert set().union(*spans.EXPECTED_CALLS.values()) == wrapped


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"calls": {}, "self_s": {}, "outcomes": {}, "counts": {},
               "completions": 0}
    produced = set(spans.layer_metrics(summary, {}, 0, 0))
    produced |= {"process.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    spec = {"mode": "once", "alphas": run.alphas_of(SMALL_JOBS), "jobs": SMALL_JOBS,
            "trace": True}
    results = []
    for i in range(2):
        runner = run.Runner("windows", 11)
        results.append(runner.child(dict(spec, trace_out=str(out / f"{i}.spans"))))
    return results


def test_traced_run_reaches_every_wrapper(traced_pair):
    kinds = {j["kind"] for j in SMALL_JOBS}
    assert spans.unreached(traced_pair[0]["trace"], kinds) == []
    reached = {n for n, c in traced_pair[0]["trace"]["calls"].items() if c}
    assert reached == {b[0] for b in spans.SPAN_BINDINGS}


def test_self_times_fit_in_traced_wall_time(traced_pair):
    for res in traced_pair:
        wall = sum(r["s"] for r in res["runs"])
        self_total = sum(res["trace"]["self_s"].values())
        assert 0 < self_total <= wall


def test_traced_call_counts_repeat_with_the_same_seed(traced_pair):
    a, b = (res["trace"] for res in traced_pair)
    assert a["calls"]["patch.add_tile"] > 0
    assert a["completions"] > 0
    assert a["counts"]["geomkernel.point_segment_dist"] > 0
    for key in ("calls", "counts", "outcomes", "completions"):
        assert a[key] == b[key]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-right",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
