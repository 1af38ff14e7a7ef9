#!/usr/bin/env python3
"""Check that two source checkouts give the benchmark the same outputs.

For each workload of perfbench/workloads.py it writes the inputs from
`--seed` once, then runs the workload's job once on PARENT's sources and
once on CHANGE's: each job has that checkout's `src` on PYTHONPATH and the
thread-count and PYTHON* variables stripped, as perfbench/run.py runs its
jobs.  It runs the workload's check on both outputs and prints, per
workload, whether V.csv and the chain_out.npz arrays are byte-identical
and which report keys differ (wall_time_ms and timings_ms aside).  It
exits 1 on any difference, failed job or failed check.

The harness is this checkout's perfbench/, which is only read: the inputs
and outputs go to a temporary directory.  The reference of a workload
that needs latquant (lll-40 reduces its basis with lll_reduce) is taken
from CHANGE's sources.

Usage:
    python scripts/compare_outputs.py ../parent . --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
JOB_TIMEOUT_S = 600

# Report keys that hold timings, which differ from run to run.
TIMING_KEYS = ("wall_time_ms", "timings_ms")


def _read_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def _npz_arrays(path: Path) -> dict[str, tuple]:
    """Each array of an .npz file as its dtype, shape and bytes."""
    if not path.is_file():
        return {}
    with np.load(path) as npz:
        return {key: (npz[key].dtype.str, npz[key].shape, npz[key].tobytes()) for key in npz}


def _report(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_outputs(a: Path, b: Path) -> dict[str, str]:
    """For each output file found in directory a or b: "identical", or
    what differs between the two."""
    result = {}
    if (a / "V.csv").exists() or (b / "V.csv").exists():
        same = _read_bytes(a / "V.csv") == _read_bytes(b / "V.csv")
        result["V.csv"] = "identical" if same else "differs"
    npz_a, npz_b = _npz_arrays(a / "chain_out.npz"), _npz_arrays(b / "chain_out.npz")
    if npz_a or npz_b:
        keys = sorted(set(npz_a) | set(npz_b))
        differ = [key for key in keys if npz_a.get(key) != npz_b.get(key)]
        result["chain_out.npz"] = "differs: " + ", ".join(differ) if differ else "identical"
    report_a, report_b = _report(a / "report.json"), _report(b / "report.json")
    if report_a or report_b:
        keys = [key for key in {**report_a, **report_b} if key not in TIMING_KEYS]
        # json.dumps tells -0.0 from 0.0 and 1 from 1.0, as the files do
        differ = [key for key in keys
                  if json.dumps(report_a.get(key)) != json.dumps(report_b.get(key))]
        result["report.json"] = "keys differ: " + ", ".join(differ) if differ else "identical"
    return result


def run_job(argv: list[str], env: dict[str, str], checkout: Path, outdir: Path) -> str | None:
    """Run one job on checkout's sources; what went wrong where it fails."""
    outdir.mkdir(parents=True)
    proc = subprocess.run(argv, cwd=outdir, env={**env, "PYTHONPATH": str(checkout / "src")},
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the first source checkout")
    ap.add_argument("change", type=Path, help="root of the second source checkout")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "latquant" / "__init__.py").is_file():
            ap.error(f"no latquant sources under {checkout / 'src'} ({side})")

    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    from run import job_argv, job_env
    from workloads import WORKLOADS

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = cls(args.seed, workdir, sides["change"] / "src")
            print(f"{name} (seed {args.seed})")
            outdirs = {side: workdir / side for side in sides}
            for side, checkout in sides.items():
                argv = job_argv(workload, outdirs[side], traced=False)
                error = run_job(argv, job_env(), checkout, outdirs[side])
                problems = [error] if error else workload.check(outdirs[side])[0]
                failed |= bool(problems)
                print(f"  check {side:<8} {'ok' if not problems else '; '.join(problems)}")
            for output, status in compare_outputs(*outdirs.values()).items():
                failed |= status != "identical"
                print(f"  {output:<14} {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
