#!/usr/bin/env python3
"""Compare two source checkouts on the benchmark, in alternating pairs.

Runs `perfbench/run.py` from the root of PARENT and of CHANGE in turn,
`--pairs` times: PARENT first on odd pairs, CHANGE first on even ones, so
a drift of the machine's speed falls on both alike.  Each run is one
`python3 perfbench/run.py --workload W --seed S --seconds T` in that
checkout, which builds what it runs from the checkout's own sources; T is
the `run_seconds` of CHANGE's BENCHMARK.json, so every run is as long as
the benchmark's own.

For every workload and end-to-end metric it prints the median and the
quartiles of each side, how many pairs CHANGE won (better in the
direction CHANGE's BENCHMARK.json gives the metric), and whether the gap
between the medians exceeds the interquartile range of PARENT's runs.
Runs that report a failed check or failed jobs are named.

Usage:
    python scripts/bench_pairs.py ../parent . --workload chain-3 --seed 1 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_results(stdout: str) -> dict[str, dict]:
    """The result object of each workload in a run.py output: each result
    line follows the line that names its workload."""
    results, workload = {}, None
    for line in stdout.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if not isinstance(doc, dict):
            continue
        if "workload" in doc:
            workload = doc["workload"]
        elif "metrics" in doc and workload is not None:
            results[workload] = doc
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """Lines of the comparison: pairs holds (parent, change) result
    objects of one workload, better each metric's direction."""
    lines = []
    for side, idx in (("parent", 0), ("change", 1)):
        for n, pair in enumerate(pairs, 1):
            doc = pair[idx]
            if not doc.get("correct", False) or doc.get("failed", 0):
                lines.append(f"  {side} run {n}: correct={doc.get('correct')} "
                             f"failed={doc.get('failed')} of {doc.get('attempted')}")
    for name, direction in better.items():
        if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gap = sign * (pm - cm)
        verdict = "beyond" if abs(gap) > p3 - p1 else "within"
        lines.append(f"  {name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                     f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
                     f"wins {wins}/{len(pairs)}  gap {gap:+.4g} {verdict} parent IQR")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_results(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs: list[tuple[dict, dict]] = []
    for n in range(1, args.pairs + 1):
        order = [0, 1] if n % 2 else [1, 0]
        got: list[dict] = [{}, {}]
        for side in order:
            checkout = (args.parent, args.change)[side]
            got[side] = run_once(checkout, args.workload, args.seed, bench["run_seconds"])
        runs.append((got[0], got[1]))
        print(f"pair {n}/{args.pairs} done", file=sys.stderr, flush=True)

    for workload in runs[0][0]:
        print(f"{workload}:")
        pairs = [(p[workload], c[workload]) for p, c in runs]
        print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
