"""End-to-end benchmark of shieldtiles, with a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enum-generic --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists): enum-generic,
enum-right, windows.  Each run starts fresh single-threaded child
processes with PYTHONHASHSEED derived from the workload and seed, so the
same seed gives the same inputs and the same amount of search work.

--trace 0 prints the end-to-end metrics: setup_s (median of eleven
child start-ups), wall_s (one pass over the job list: the sum of each
job's median time over the passes run in --seconds) and peak_rss_mb.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics; the spans go to .perfbench/trace-<workload>.spans.

Every job's answer is checked against a reference; the last stdout line
is the JSON result.  The program runs from ./src, unbuilt.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout clean of the parent's caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TIME_LIMIT = 170.0  # seconds; a run must end well within 180
SETUP_SAMPLES = 5

import spans  # noqa: E402
import workloads  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunFailed(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the child processes of one run and keeps its time limit."""

    def __init__(self, workload: str, seed: int):
        self.t_start = clock()
        self.hash_seed = workloads.hash_seed(workload, seed)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONHASHSEED=str(self.hash_seed),
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        )
        # the same module caches whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("SHIELDTILES_PURE", None)

    def child(self, spec: dict) -> dict:
        """Run one child to completion; its result carries set-up time."""
        left = TIME_LIMIT - (clock() - self.t_start)
        if left <= 0:
            raise RunFailed("time limit reached before a child could start")
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
        )
        try:
            out, _ = proc.communicate(json.dumps(spec).encode(), timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed("child exceeded the time limit")
        if proc.returncode != 0:
            raise RunFailed(f"child exited with code {proc.returncode}")
        result = json.loads(out.decode().strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        return result


def alphas_of(jobs) -> list:
    return list({json.dumps(j["alpha"]): j["alpha"] for j in jobs}.values())


def checked_runs(jobs, results) -> tuple[int, list[str]]:
    """Attempted count and failure messages over all runs of the results."""
    by_name = {j["name"]: j for j in jobs}
    attempted, failures = 0, []
    for res in results:
        for run in res["runs"]:
            attempted += 1
            bad = workloads.check(by_name[run["job"]], run["answer"])
            if bad:
                failures.append(f"{run['job']}: {'; '.join(bad)}")
    return attempted, failures


def job_medians(jobs, result) -> dict[str, tuple[float, int]]:
    times: dict[str, list[float]] = {j["name"]: [] for j in jobs}
    for run in result["runs"]:
        times[run["job"]].append(run["s"])
    return {name: (statistics.median(ts), len(ts)) for name, ts in times.items()}


def describe(jobs, result) -> list[str]:
    """Human-readable lines: one per job with its answer, and the context."""
    lines = [f"# hash_seed {result['hash_seed']}  python {result['python']}  "
             f"kernel {result['impl']}"]
    answers = {run["job"]: run["answer"] for run in result["runs"]}
    for name, (med, k) in job_medians(jobs, result).items():
        a = answers[name]
        if "error" in a:
            what = a["error"]
        elif "count" in a:
            what = f"P={a['count']} translations={a['translations']}"
        else:
            cls = a["classification"]
            what = (f"tiles={a['tiles']} {cls['family']} "
                    f"order={cls['order']} word={cls['word']} complete={cls['complete']}")
        lines.append(f"# job {name:<22} {med:9.4f} s  median of {k}  {what}")
    return lines


def run_timed(runner: Runner, jobs, seconds: int):
    alphas = alphas_of(jobs)

    def setup_s() -> float:
        return runner.child({"mode": "setup", "alphas": alphas})["setup_s"]

    setup_s()  # fills the bytecode cache
    # start-ups are sampled on both sides of the timed loop, so the median
    # spans more than one moment of the host's varying speed
    setups = [setup_s() for _ in range(SETUP_SAMPLES)]
    main = runner.child({"mode": "loop", "alphas": alphas, "jobs": jobs,
                         "seconds": seconds})
    setups += [main["setup_s"]] + [setup_s() for _ in range(SETUP_SAMPLES)]
    wall = sum(med for med, _k in job_medians(jobs, main).values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    return metrics, [main], describe(jobs, main)


def run_traced(runner: Runner, jobs, workload: str):
    alphas = alphas_of(jobs)
    plain = runner.child({"mode": "once", "alphas": alphas, "jobs": jobs})
    OUT.mkdir(exist_ok=True)
    traced = runner.child({"mode": "once", "alphas": alphas, "jobs": jobs,
                           "trace": True,
                           "trace_out": str(OUT / f"trace-{workload}.spans")})
    missing = spans.unreached(traced["trace"], {j["kind"] for j in jobs})
    if missing:
        raise RunFailed(f"wrapped functions never called: {', '.join(missing)}")
    job_s = {run["job"]: run["s"] for run in traced["runs"]}
    p_total = sum(run["answer"].get("count", 0) for run in traced["runs"])
    shield_bytes = sum(run["answer"].get("bytes", 0) for run in traced["runs"])
    metrics = spans.layer_metrics(traced["trace"], job_s, p_total, shield_bytes)
    plain_wall = sum(run["s"] for run in plain["runs"])
    metrics["process.cpu_s"] = (plain["cpu_s"], "s")
    metrics["trace.overhead_s"] = (sum(job_s.values()) - plain_wall, "s")
    return metrics, [plain, traced], describe(jobs, traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shieldtiles" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from shieldtiles.alpha import make_alpha
    from shieldtiles.errors import AmbiguousDecimal

    def is_valid_decimal(deg: float) -> bool:
        try:
            make_alpha("decimal", deg)
        except AmbiguousDecimal:
            return False
        return True

    jobs = workloads.make_jobs(args.workload, args.seed, is_valid_decimal)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, results, lines = run_traced(runner, jobs, args.workload)
        else:
            metrics, results, lines = run_timed(runner, jobs, args.seconds)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failures = checked_runs(jobs, results)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    for f in failures:
        print(f"# FAILED {f}")
    print(f"# fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
