"""Workloads of the benchmark: seeded job lists and the answer gate.

A job is a plain dict that the child process turns into calls of the
program.  Every input a job carries is drawn here from the workload seed;
the program only ever sees the drawn values.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("enum-generic", "enum-right", "windows")

GENERIC = ["generic"]
RIGHT = ["rational", 1, 2]

# Pinned (P_n, translation classes) pairs, measured with this engine.  The
# right-shield value is the engine's own count; it is a regression
# reference, not an independent proof of any acceptance criterion.
ENUM_REFERENCE = {
    "generic-n1": (7, 101),
    "generic-n2": (19, 389),
    "right-n0.6": (7, 76),
}

WINDOW_EXTENT = 8
TRIANGLE_ORDERS = range(5)
# Each alpha gets two line words whose lengths add up to this total, so the
# tile count of a pass does not drift with the seed.
LINE_LETTERS_PER_ALPHA = 9
# The order-4 triangle search does a piecewise-constant amount of work in
# alpha: about 5.1k add_tile calls below 98 degrees, 6.7k from 98.5 to 103
# and 4.4k from 104 up.  Draws stay in one regime, around the 110-degree
# reference window, so the seed does not move wall time.
DECIMAL_RANGE = (105.0, 115.0)


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED of the child processes of one run.

    The engine iterates over sets of strings in its pruning and stops at
    the first match, so the amount of work depends on the hash seed.
    """
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _enum(name: str, alpha, n: float) -> dict:
    return {"name": name, "kind": "enum", "alpha": alpha, "n": n}


def draw_decimal_alpha(rng: random.Random, is_valid) -> float:
    """Degrees with two decimals in DECIMAL_RANGE; redrawn until is_valid."""
    while True:
        deg = round(rng.uniform(*DECIMAL_RANGE), 2)
        if is_valid(deg):
            return deg


def _line_words(rng: random.Random) -> list[str]:
    first = rng.randint(3, 6)
    return [
        "".join(rng.choice("+-") for _ in range(length))
        for length in (first, LINE_LETTERS_PER_ALPHA - first)
    ]


def window_jobs(seed: int, is_valid_decimal) -> list[dict]:
    rng = random.Random(seed)
    deg = draw_decimal_alpha(rng, is_valid_decimal)
    jobs = []
    for tag, alpha in (("generic", GENERIC), ("decimal", ["decimal", deg])):
        for k in TRIANGLE_ORDERS:
            jobs.append({"name": f"triangle.o{k}.{tag}", "kind": "triangle",
                         "alpha": alpha, "order": k, "extent": WINDOW_EXTENT})
        for i, word in enumerate(_line_words(rng)):
            jobs.append({"name": f"line.{tag}.{i}", "kind": "line",
                         "alpha": alpha, "word": word, "extent": WINDOW_EXTENT})
    half = WINDOW_EXTENT  # covers every packing cell a window can reach
    for i in range(2):
        cells = [[a, b, rng.randrange(3)]
                 for a in range(-half, half + 1) for b in range(-half, half + 1)]
        jobs.append({"name": f"dodecagon.{i}", "kind": "dodecagon",
                     "alpha": RIGHT, "cells": cells, "extent": WINDOW_EXTENT})
    return jobs


def make_jobs(workload: str, seed: int, is_valid_decimal) -> list[dict]:
    """Job list of a workload.  is_valid_decimal(deg) says whether the
    program accepts a decimal alpha; only the windows workload draws one."""
    if workload == "enum-generic":
        return [_enum("generic-n1", GENERIC, 1.0), _enum("generic-n2", GENERIC, 2.0)]
    if workload == "enum-right":
        return [_enum("right-n0.6", RIGHT, 0.6)]
    if workload == "windows":
        return window_jobs(seed, is_valid_decimal)
    raise ValueError(f"unknown workload {workload!r}")


def all_job_names() -> list[str]:
    """Names of every job of every workload (window names do not depend on
    the seed)."""
    names = []
    for w in WORKLOADS:
        names += [j["name"] for j in make_jobs(w, 0, lambda deg: True)]
    return names


# ---------------------------------------------------------------------------
# Answer gate
# ---------------------------------------------------------------------------


def canonical_orientation_word(word: str) -> str:
    """A stack of lines reads the same reversed or with every line flipped;
    the word is reported as the least of the four images.

    The classifier has its own copy; this one is kept apart so the gate
    never takes an expected answer from the code it checks."""
    flip = word.translate(str.maketrans("+-", "-+"))
    return min(word, word[::-1], flip, flip[::-1])


def expected_classification(job: dict) -> dict:
    if job["kind"] == "triangle":
        return {"family": "Triangle", "order": job["order"], "complete": True}
    if job["kind"] == "line":
        word = canonical_orientation_word(job["word"])
        if len(set(word)) == 1:
            # a uniform window cannot pin the stacking
            return {"family": "Line", "word": word[0], "complete": False}
        return {"family": "Line", "word": word, "complete": True}
    # the classifier declares the right shield out of its scope
    return {"family": "Inconclusive"}


def check(job: dict, answer: dict) -> list[str]:
    """Mismatches between a job's answer and its reference; empty if right."""
    if "error" in answer:
        return [answer["error"]]
    bad = []
    if job["kind"] == "enum":
        want = ENUM_REFERENCE[job["name"]]
        got = (answer["count"], answer["translations"])
        if got != want:
            bad.append(f"(P_n, translation classes) = {got}, expected {want}")
        if not answer["complete"]:
            bad.append("search budget exhausted")
        return bad
    if not answer["valid"]:
        bad.append("generated window fails validate()")
    for key, want in expected_classification(job).items():
        if answer["classification"].get(key) != want:
            bad.append(f"classification {key} = "
                       f"{answer['classification'].get(key)!r}, expected {want!r}")
    if answer["roundtrip_tiles"] != answer["tiles"]:
        bad.append(f"SHIELD/1 round trip has {answer['roundtrip_tiles']} tiles, "
                   f"expected {answer['tiles']}")
    if not answer["roundtrip_valid"]:
        bad.append("SHIELD/1 round trip fails validate()")
    return bad
