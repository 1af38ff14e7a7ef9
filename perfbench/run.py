"""Benchmark of latquant's quantize pipeline, end to end and per module.

    python3 perfbench/run.py --workload gptq-512 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is `src/latquant` of
that checkout.  The run writes its inputs from `--seed`, times the set-up of
a fresh interpreter, then runs jobs one after another (a closed loop with
one client), each in a fresh process, until `--seconds` have passed.  After
the timed loop every job's outputs are checked against computations made
apart from the program (checks.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates traced
and untraced jobs and prints the per-layer metrics (tracer.py), the median
over the traced jobs, plus the tracing overhead.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  The line
before it records the environment.  `--workload all` runs every workload
in turn and prints one such pair of lines per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 120


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def job_env() -> dict[str, str]:
    """The inherited environment without thread-count and Python variables,
    so BLAS runs with its default threading; the program comes from SRC."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("OPENBLAS_", "OMP_", "MKL_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas}


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    traced: bool
    outdir: Path


def spawn(argv: list[str], outdir: Path, env: dict[str, str], traced: bool = False) -> Job:
    """Run one process to its exit through launch.py; wall time covers spawn
    to exit, CPU time and peak RSS come from the process's own resource
    usage."""
    outdir.mkdir(parents=True, exist_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(JOB_TIMEOUT_S),
                str(outdir / "log.txt")]
    out = subprocess.run(launcher + argv, cwd=outdir, env=env, check=True,
                         capture_output=True, text=True).stdout
    usage = json.loads(out)
    return Job(usage["wall_s"], usage["cpu_s"], usage["rss_mb"], usage["returncode"],
               traced, outdir)


def measure_setup(workdir: Path, env: dict[str, str]) -> float:
    """Median time of `python -m latquant --help`, after one warm-up that
    leaves the bytecode cache the way an installed package has it."""
    argv = [sys.executable, "-m", "latquant", "--help"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        job = spawn(argv, workdir / "setup", env)
        if job.returncode != 0:
            raise RuntimeError(f"`latquant --help` exited with {job.returncode}")
        times.append(job.wall_s)
    return statistics.median(times[1:])


def job_argv(workload, outdir: Path, traced: bool) -> list[str]:
    args = workload.args(outdir)
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), str(outdir / "spans.json"),
                workload.mode] + args
    if workload.mode == "cli":
        return [sys.executable, "-m", "latquant"] + args
    return [sys.executable, str(HERE / "chain_job.py")] + args


def run_jobs(workload, workdir: Path, env, seconds: float, trace: bool) -> list[Job]:
    """Jobs back to back until `seconds` have passed; with tracing, traced
    and untraced jobs alternate and the loop ends on a whole pair."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 0
        outdir = workdir / f"job{len(jobs)}"
        jobs.append(spawn(job_argv(workload, outdir, traced), outdir, env, traced))
        if time.perf_counter() - start >= seconds and not (trace and len(jobs) % 2):
            return jobs


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = job_env()
        workload = WORKLOADS[name](seed, workdir, SRC)
        setup_s = measure_setup(workdir, env)
        jobs = run_jobs(workload, workdir, env, seconds, trace)

        problems, err_rel = [], []
        for job in jobs:
            if job.returncode != 0:
                log = (job.outdir / "log.txt").read_text(errors="replace")
                print(f"job {job.outdir.name} exited with {job.returncode}:\n{log}",
                      file=sys.stderr)
                continue
            job_problems, job_err_rel = workload.check(job.outdir)
            problems += [f"{job.outdir.name}: {p}" for p in job_problems]
            err_rel.append(job_err_rel)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)

        done = [job for job in jobs if job.returncode == 0]
        if not trace:
            values = {
                "setup_s": setup_s,
                "job_s_p50": statistics.median(j.wall_s for j in done),
                "cpu_s_p50": statistics.median(j.cpu_s for j in done),
                "peak_rss_mb": max(j.rss_mb for j in done),
                "err_rel": statistics.median(err_rel),
            }
            units = metric_units("end_to_end")
        else:
            traced = [j for j in done if j.traced]
            per_job, absent = [], set()
            for job in traced:
                with open(job.outdir / "spans.json", encoding="utf-8") as fh:
                    doc = json.load(fh)
                absent.update(doc["absent"])
                per_job.append(layer_metrics(doc, job.wall_s))
            if absent:
                print(f"absent from latquant: {', '.join(sorted(absent))}")
            values = {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
            values["trace.overhead_s"] = (
                statistics.median(j.wall_s for j in traced)
                - statistics.median(j.wall_s for j in done if not j.traced))
            units = metric_units("per_layer")
        return {
            "correct": not problems,
            "attempted": len(jobs),
            "failed": len(jobs) - len(done),
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latquant quantize-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latquant" / "__init__.py").is_file():
        print(f"error: no latquant sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, "env": env}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
