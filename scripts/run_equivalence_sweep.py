#!/usr/bin/env python3
"""Sweep random instances through all four solvers and time them.

The sequential loop, both recursive variants and the data-space sweep
must return identical integer vectors on every non-fragile instance;
this script measures how often they do and what each path costs.
gptq_quantize keeps w_history and so sweeps as one block, while
babai_nearest_plane runs the blocked nearest-plane kernel: instances with
n > SWEEP_BLOCK (64) compare the two forms.

Usage:
    python scripts/run_equivalence_sweep.py --instances 500 --max-n 32
    python scripts/run_equivalence_sweep.py --instances 100 --min-n 60 --max-n 100
"""

import argparse
import time

import numpy as np

from latquant.lattice import SWEEP_BLOCK, LatticeBasis, babai_nearest_plane
from latquant.quantize import gptq_quantize, gptq_quantize_recursive


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=500)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    timings = {"gptq": 0.0, "gptq_rec": 0.0, "babai_proj_rec": 0.0, "babai": 0.0}
    agree = 0
    fragile = 0
    blocked = 0
    for i in range(args.instances):
        rng = np.random.default_rng(args.seed + i)
        n = int(rng.integers(args.min_n, args.max_n + 1))
        k = int(rng.integers(n, 4 * n + 1))
        blocked += n > SWEEP_BLOCK
        x = rng.uniform(-1.0, 1.0, (k, n))
        w = rng.uniform(-1.0, 1.0, n)

        t0 = time.perf_counter()
        ref = gptq_quantize(x, w)
        timings["gptq"] += time.perf_counter() - t0

        outs = [ref]
        for variant in ("gptq_rec", "babai_proj_rec"):
            t0 = time.perf_counter()
            outs.append(gptq_quantize_recursive(x, w, variant=variant))
            timings[variant] += time.perf_counter() - t0

        t0 = time.perf_counter()
        greedy = babai_nearest_plane(LatticeBasis(x), w)
        timings["babai"] += time.perf_counter() - t0

        flags = set(greedy.fragile)
        for out in outs:
            flags.update(out.fragile)
        if flags:
            fragile += 1
            continue
        if all(np.array_equal(o.v, ref.v) for o in outs) and np.array_equal(
            greedy.v, ref.v
        ):
            agree += 1

    print(f"instances: {args.instances}  (n in [{args.min_n}, {args.max_n}])")
    print(f"agreement: {agree}/{args.instances - fragile}  fragile skipped: {fragile}")
    print(f"past one sweep block (n > {SWEEP_BLOCK}): {blocked}")
    for name, total in sorted(timings.items(), key=lambda kv: kv[1]):
        print(f"  {name:<16} {1e3 * total / args.instances:8.3f} ms/instance")
    return 0 if agree == args.instances - fragile else 1


if __name__ == "__main__":
    raise SystemExit(main())
