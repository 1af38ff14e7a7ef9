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
direction CHANGE's BENCHMARK.json gives the metric; a tie counts for
neither side), whether the gap between the medians exceeds the
interquartile range of PARENT's runs, and two verdicts:

  claim       yes when CHANGE won at least 9 pairs in 10 and the gap
              between the medians exceeds PARENT's interquartile range:
              what a claimed gain must show.
  regression  worse when CHANGE's median is worse than PARENT's by more
              than the metric's bound times PARENT's median; unresolved
              when PARENT's interquartile range is wider than that margin
              and not every CHANGE run beats every PARENT run; ok
              otherwise.

Runs that report a failed check or failed jobs are named.  The summary
is also written to BENCH_<workload>-s<seed>.json in the working
directory.

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


def verdicts(parent: list[float], change: list[float], direction: str,
             bound: float | None) -> dict:
    """The comparison of one metric's runs: quartiles, wins, the gap
    between the medians (positive where CHANGE is better), and the claim
    and regression verdicts (regression None without a bound)."""
    sign = 1.0 if direction == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (pm - cm)
    regression = None
    if bound is not None:
        margin = bound * abs(pm)
        every = all(sign * (a - b) > 0 for a in parent for b in change)
        if -gap > margin:
            regression = "worse"
        elif p3 - p1 > margin and not every:
            regression = "unresolved"
        else:
            regression = "ok"
    return {"parent": {"values": parent, "q1": p1, "median": pm, "q3": p3},
            "change": {"values": change, "q1": c1, "median": cm, "q3": c3},
            "wins": wins, "pairs": len(parent), "gap": gap,
            "beyond_parent_iqr": abs(gap) > p3 - p1,
            "claim": 10 * wins >= 9 * len(parent) and gap > p3 - p1,
            "regression": regression}


def compare(pairs: list[tuple[dict, dict]], better: dict[str, str],
            bounds: dict[str, float] | None = None) -> tuple[list[str], dict]:
    """The failed runs, named, and each metric's verdicts: pairs holds
    (parent, change) result objects of one workload, better each metric's
    direction and bounds its regression bound."""
    failed = []
    for side, idx in (("parent", 0), ("change", 1)):
        for n, pair in enumerate(pairs, 1):
            doc = pair[idx]
            if not doc.get("correct", False) or doc.get("failed", 0):
                failed.append(f"{side} run {n}: correct={doc.get('correct')} "
                              f"failed={doc.get('failed')} of {doc.get('attempted')}")
    metrics = {}
    for name, direction in better.items():
        if all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
            metrics[name] = verdicts([p["metrics"][name]["value"] for p, _ in pairs],
                                     [c["metrics"][name]["value"] for _, c in pairs],
                                     direction, (bounds or {}).get(name))
    return failed, metrics


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[str]:
    """Lines of the comparison (see compare)."""
    failed, metrics = compare(pairs, better, bounds)
    lines = [f"  {line}" for line in failed]
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        within = "beyond" if m["beyond_parent_iqr"] else "within"
        lines.append(f"  {name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                     f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                     f"wins {m['wins']}/{m['pairs']}  gap {m['gap']:+.4g} {within} parent IQR  "
                     f"claim {'yes' if m['claim'] else 'no'}  "
                     f"regression {m['regression'] or 'n/a'}")
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
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}

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
        print("\n".join(summarize(pairs, better, bounds)))
        failed, metrics = compare(pairs, better, bounds)
        summary = {"workload": workload, "seed": args.seed, "pairs": len(pairs),
                   "failed_runs": failed, "metrics": metrics}
        with open(f"BENCH_{workload}-s{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
