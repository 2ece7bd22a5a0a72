"""One closed-loop client of the benchmark, run in its own process.

Reads a JSON spec on stdin, imports the program and builds the vertex
atlas of every alpha it will use (the set-up a command-line user pays on
each run), then runs the jobs back to back and prints one JSON result
line.  Modes:

  setup  stop once ready;
  loop   repeat the job list until `seconds` have passed, always finishing
         the first pass and starting no job that its last time says would
         end past the deadline;
  once   run the job list exactly once (traced when `trace` is set).
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import sys
import time


def clock() -> float:
    # the parent reads the same system-wide clock to time set-up
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Modules:
    """The package modules, looked up by attribute at each call so traced
    wrappers are seen.  The package namespace itself cannot serve: there
    `classify` names the function, not the module."""

    def __init__(self):
        for name in ("alpha", "atlas", "classify", "generators", "geomkernel",
                     "patterns", "shieldio"):
            setattr(self, name, importlib.import_module(f"shieldtiles.{name}"))


def run_job(job: dict, st: Modules) -> dict:
    """Run one job through the program; the answer is checked by the parent."""
    alpha = st.alpha.make_alpha(*job["alpha"])
    if job["kind"] == "enum":
        pc = st.patterns.count_patterns(job["n"], alpha, keep=False)
        return {"count": pc.count, "translations": pc.translation_count,
                "complete": pc.complete}
    ext = job["extent"]
    if job["kind"] == "triangle":
        patch = st.generators.gen_triangle_tiling(job["order"], ext, alpha)
    elif job["kind"] == "line":
        patch = st.generators.gen_line_tiling(job["word"], ext, alpha)
    else:
        choice = st.generators.DodecagonChoice(
            assignment={(i, j): idx for i, j, idx in job["cells"]})
        patch = st.generators.gen_dodecagon_tiling(choice, ext)
    valid = patch.validate().ok
    verdict = st.classify.classify(patch)
    text = st.shieldio.dumps(patch)
    back = st.shieldio.loads(text)
    order = verdict.order
    return {
        "tiles": len(patch),
        "valid": valid,
        "classification": {
            "family": verdict.family, "word": verdict.word,
            "order": order if order is None or isinstance(order, int) else str(order),
            "complete": verdict.complete,
        },
        "bytes": len(text.encode()),
        "roundtrip_tiles": len(back),
        "roundtrip_valid": back.validate().ok,
    }


def main() -> int:
    spec = json.load(sys.stdin)

    st = Modules()
    for a in spec["alphas"]:
        st.atlas.atlas_configs(st.alpha.make_alpha(*a))
    ready = clock()
    result = {
        "ready": ready,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "impl": st.geomkernel.IMPL,
    }
    mode = spec["mode"]
    if mode != "setup":
        tracer = None
        if spec.get("trace"):
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        runs = []
        last: dict[str, float] = {}
        deadline = ready + spec.get("seconds", 0)
        jobs = spec["jobs"]
        done = False
        while not done:
            for job in jobs:
                if mode == "loop" and job["name"] in last and \
                        clock() + last[job["name"]] > deadline:
                    done = True
                    break
                t0 = clock()
                try:
                    answer = run_job(job, st)
                except Exception as exc:  # a failed job is counted, not fatal
                    answer = {"error": f"{type(exc).__name__}: {exc}"}
                dt = clock() - t0
                last[job["name"]] = dt
                runs.append({"job": job["name"], "s": dt, "answer": answer})
            done = done or mode == "once"
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            runs=runs,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(spec["trace_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
