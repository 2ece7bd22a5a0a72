"""Tracing for the benchmark's traced run.

The program is not instrumented.  Instead the public functions of each
package module are wrapped from here, in every namespace where the
program looks the name up, so a call made through any binding is seen.

Span-wrapped functions record one span per call (name, parent, start,
end), kept in flat arrays and written out at the end.  The geometry
kernel is only counted: its calls are too short and too many to time one
by one, and their time shows in the self time of patch.add_tile.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter

from workloads import all_job_names

# (span name, module, attribute path, wrap as staticmethod, count False results)
SPAN_BINDINGS = [
    ("patterns.count_patterns", "patterns", "count_patterns", False, False),
    ("patterns.fill_disk", "patterns", "fill_disk", False, False),
    ("atlas.gap_feasible", "patterns", "gap_feasible", False, True),
    ("atlas.star_completable", "patterns", "star_completable", False, True),
    ("patch.add_tile", "patch", "Patch.add_tile", False, False),
    ("patch.pop_tile", "patch", "Patch.pop_tile", False, False),
    ("patch.gaps", "patch", "Patch.gaps", False, False),
    ("patch.star_blocks", "patch", "Patch.star_blocks", False, False),
    ("patch.boundary_edges", "patch", "Patch.boundary_edges", False, False),
    ("patch.extract_ball", "patch", "Patch.extract_ball", False, False),
    ("patch.validate", "patch", "Patch.validate", False, False),
    # PatternBall.key looks canonical_key up as a global of the module
    ("patch.canonical_key", "patch", "canonical_key", False, False),
    ("patch.orbit_translation_keys", "patch",
     "PatternBall.orbit_translation_keys", False, False),
    ("symbolic.ExactPoint.from_dict", "symbolic", "ExactPoint.from_dict", True, False),
    # generators keeps its own alias of from_dict
    ("symbolic.ExactPoint.from_dict", "generators", "EP", False, False),
    ("generators.gen_triangle_tiling", "generators", "gen_triangle_tiling", False, False),
    ("generators.gen_line_tiling", "generators", "gen_line_tiling", False, False),
    ("generators.gen_dodecagon_tiling", "generators", "gen_dodecagon_tiling", False, False),
    # generators imports these two by name from patterns
    ("generators.fill_disk", "generators", "fill_disk", False, False),
    ("generators.dodecagon_fillings", "generators", "dodecagon_fillings", False, False),
    ("classify.classify", "classify", "classify", False, False),
    ("classify.vertex_census", "classify", "vertex_census", False, False),
    ("shieldio.dumps", "shieldio", "dumps", False, False),
    ("shieldio.loads", "shieldio", "loads", False, False),
]

# patch and patterns call the kernel as gk.<fn>, so the geomkernel module
# attributes are the only bindings to replace
COUNT_BINDINGS = [
    "geomkernel.point_segment_dist",
    "geomkernel.convex_overlap",
    "geomkernel.poly_point_dist",
]

# Wrapped names each job kind must reach at least once.  A name missing
# here after a traced run means a wrapper sits in a namespace the program
# does not look in.  The windows mix always holds triangle orders >= 1,
# which search with generators.fill_disk.
_WINDOW_COMMON = {
    "patch.add_tile", "patch.gaps", "patch.boundary_edges", "patch.validate",
    "symbolic.ExactPoint.from_dict", "classify.classify",
    "shieldio.dumps", "shieldio.loads",
    "geomkernel.point_segment_dist", "geomkernel.convex_overlap",
}
EXPECTED_CALLS = {
    "enum": {
        "patterns.count_patterns", "patterns.fill_disk", "atlas.gap_feasible",
        "atlas.star_completable", "patch.add_tile", "patch.pop_tile",
        "patch.gaps", "patch.star_blocks", "patch.boundary_edges",
        "patch.extract_ball", "patch.canonical_key",
        "patch.orbit_translation_keys", "symbolic.ExactPoint.from_dict",
        "geomkernel.point_segment_dist", "geomkernel.convex_overlap",
        "geomkernel.poly_point_dist",
    },
    "triangle": _WINDOW_COMMON | {
        "generators.gen_triangle_tiling", "generators.fill_disk",
        "classify.vertex_census",
        "patch.pop_tile", "patch.star_blocks", "atlas.gap_feasible",
        "atlas.star_completable",
    },
    "line": _WINDOW_COMMON | {"generators.gen_line_tiling", "classify.vertex_census"},
    # the classifier declines right-shield windows before taking a census
    "dodecagon": _WINDOW_COMMON | {
        "generators.gen_dodecagon_tiling", "generators.dodecagon_fillings",
    },
}

ADD_TILE_REJECTIONS = ("OverlapError", "EdgeMismatchError", "AtlasViolation")


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.outcomes: Counter = Counter()  # "<name>.raised.<Type>", "<name>.false"
        self.counts: dict[str, list[int]] = {}  # kernel calls, one cell each

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, count_false: bool = False):
        nid = self.name_id(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, outcomes = self.stack, self.outcomes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                outcomes[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if count_false and not result:
                outcomes[f"{name}.false"] += 1
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def summary(self) -> dict:
        """Calls and self time per span name, plus outcome and kernel counts.

        Self time is a span's duration minus the time covered by its child
        spans.  Spans are numbered in entry order, so every child has a
        larger id than its parent and one reverse pass settles all of them.
        """
        n = len(self.name)
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        covered = array("d", bytes(8 * n))
        parent, names, start, end = self.parent, self.name, self.start, self.end
        for sid in range(n - 1, -1, -1):
            dur = end[sid] - start[sid]
            nid = names[sid]
            calls[nid] += 1
            self_s[nid] += dur - covered[sid]
            p = parent[sid]
            if p >= 0:
                covered[p] += dur
        # completions: extract_ball calls made inside a count_patterns call
        cp = self._ids.get("patterns.count_patterns")
        eb = self._ids.get("patch.extract_ball")
        under = bytearray(n)
        completions = 0
        for sid in range(n):
            p = parent[sid]
            if p >= 0 and (under[p] or names[p] == cp):
                under[sid] = 1
                if names[sid] == eb:
                    completions += 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "outcomes": dict(self.outcomes),
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "completions": completions,
        }

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [["parent", "i"], ["name", "H"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(f)


def _resolve(modname: str, attr_path: str):
    obj = importlib.import_module(f"shieldtiles.{modname}")
    *owners, attr = attr_path.split(".")
    for o in owners:
        obj = getattr(obj, o)
    return obj, attr


def install(tracer: Tracer) -> None:
    """Replace every binding listed above with its traced wrapper."""
    for name, modname, attr_path, static, count_false in SPAN_BINDINGS:
        owner, attr = _resolve(modname, attr_path)
        fn = getattr(owner, attr)
        wrapped = tracer.span(name, fn, count_false)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
    for name in COUNT_BINDINGS:
        owner, attr = _resolve(*name.split(".", 1))
        setattr(owner, attr, tracer.counted(name, getattr(owner, attr)))


def unreached(summary: dict, kinds) -> list[str]:
    """Wrapped names that the job kinds run should have reached but did not."""
    seen = {n for n, c in summary["calls"].items() if c} | {
        n for n, c in summary["counts"].items() if c
    }
    want = set().union(*(EXPECTED_CALLS[k] for k in kinds))
    return sorted(want - seen)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _span_names() -> list[str]:
    return list(dict.fromkeys(b[0] for b in SPAN_BINDINGS))


def layer_metrics(summary: dict, job_seconds: dict, p_total: int,
                  shield_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass, as name -> (value, unit).

    job_seconds holds the traced wall time of each job that ran; jobs of
    other workloads read 0.
    """
    calls, self_s = summary["calls"], summary["self_s"]
    outcomes, counts = summary["outcomes"], summary["counts"]
    out: dict[str, tuple[float, str]] = {}

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    for name in _span_names():
        out[f"{name}.calls"] = (c(name), "count")
        out[f"{name}.s"] = (s(name), "s")
    for name in ("atlas.gap_feasible", "atlas.star_completable"):
        out[f"{name}.false"] = (outcomes.get(f"{name}.false", 0), "count")
    rejected = 0
    for kind in ADD_TILE_REJECTIONS:
        r = outcomes.get(f"patch.add_tile.raised.{kind}", 0)
        rejected += r
        out[f"patch.add_tile.rejected.{kind}"] = (r, "count")
    adds = c("patch.add_tile")
    out["patch.add_tile.accept_ratio"] = ((adds - rejected) / adds if adds else 0.0, "ratio")
    out["patch.extract_ball.incomplete"] = (
        outcomes.get("patch.extract_ball.raised.IncompleteCoverage", 0), "count")
    completions = summary["completions"]
    out["patterns.completions"] = (completions, "count")
    out["patterns.useful_ratio"] = (p_total / completions if completions else 0.0, "ratio")
    for name in COUNT_BINDINGS:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    psd = counts.get("geomkernel.point_segment_dist", 0)
    out["geomkernel.point_segment_dist.per_add_tile"] = (psd / adds if adds else 0.0, "count/call")
    out["shieldio.bytes"] = (shield_bytes, "B")
    for job in all_job_names():
        out[f"job.{job}.s"] = (job_seconds.get(job, 0.0), "s")
    return out
