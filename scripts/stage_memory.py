#!/usr/bin/env python3
"""Peak and current memory after each stage of a quantize job, in process.

Runs the stages of `latquant quantize` one after another in this process:
imports (numpy and latquant), parse (W, then X), factor (validation, mu and
the factorization; with --reduce lll also the LLL reduction at the
default delta and the reduced basis's factorization), solve (the row
sweep and the row errors) and write (V.csv).  After each stage it prints the process's peak resident set size
(VmHWM) and current one (VmRSS) from /proc/self/status, in MB of 1024 kB
as perfbench reports `peak_rss_mb`, and the stage's wall time.  Where
/proc is missing, the peak comes from resource.getrusage and the current
size reads n/a.

With --traced, tracemalloc runs from the end of the imports on, and each
stage also prints the peak of the memory traced during that stage, in MiB
above what was traced when it began: the figure the tracemalloc bounds in
the tests read.  Tracing slows the parse several times over and its own
bookkeeping raises VmHWM, so take the VmHWM figures from a run without it.

Usage:
    python scripts/stage_memory.py --weights W.csv --calib X.csv --mu auto \
        --alpha 0.0221 --out V.csv [--reduce lll] [--traced]
"""

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


def memory_mb() -> tuple[float, float | None]:
    """(VmHWM, VmRSS) of this process in MB; VmRSS is None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return (int(fields["VmHWM"].split()[0]) / 1024.0,
                int(fields["VmRSS"].split()[0]) / 1024.0)
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None


def report(stage: str, seconds: float, traced_from: int | None = None) -> None:
    """One stage's line; traced_from is the traced size when the stage
    began, given when tracemalloc is running."""
    hwm, rss = memory_mb()
    rss_text = "n/a" if rss is None else f"{rss:.1f}"
    traced = ""
    if traced_from is not None:
        traced = f"  traced +{(tracemalloc.get_traced_memory()[1] - traced_from) / 2**20:.2f} MiB"
    print(f"{stage:<8} VmHWM {hwm:7.1f} MB  VmRSS {rss_text:>7} MB  {seconds:7.3f} s{traced}",
          flush=True)


def begin(traced: bool) -> tuple[float, int | None]:
    """A stage's start time and, when tracing, the traced size now, after
    resetting the traced peak to it."""
    if not traced:
        return time.perf_counter(), None
    tracemalloc.reset_peak()
    return time.perf_counter(), tracemalloc.get_traced_memory()[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weights", required=True)
    ap.add_argument("--calib", required=True)
    ap.add_argument("--mu", default="auto", help="regularizer (number or 'auto')")
    ap.add_argument("--alpha", type=float, default=1.0, help="alphabet scale")
    ap.add_argument("--out", default=None, help="V.csv path (default: a temporary file)")
    ap.add_argument("--reduce", choices=["lll"], default=None,
                    help="LLL-reduce the basis in the factor stage")
    ap.add_argument("--traced", action="store_true",
                    help="also print each stage's tracemalloc peak")
    args = ap.parse_args(argv)
    report("start", 0.0)

    # imported here, so the first stage measures what the imports cost
    start = time.perf_counter()
    from latquant import matio, quantize, reduction
    report("imports", time.perf_counter() - start)
    if args.traced:
        tracemalloc.start()

    start, traced_from = begin(args.traced)
    weights = matio.load_matrix_csv(args.weights)
    x = matio.load_matrix_csv(args.calib)
    report("parse", time.perf_counter() - start, traced_from)

    cfg = quantize.QuantConfig(mu=args.mu if args.mu == "auto" else float(args.mu),
                               alpha=args.alpha)
    start, traced_from = begin(args.traced)
    sb = quantize.solver_basis(x, cfg.mu, reduction.DEFAULT_DELTA if args.reduce else None)
    report("factor", time.perf_counter() - start, traced_from)

    start, traced_from = begin(args.traced)
    v, rep = quantize._solve_rows(sb, weights, cfg)
    report("solve", time.perf_counter() - start, traced_from)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out) if args.out else Path(tmp) / "V.csv"
        start, traced_from = begin(args.traced)
        matio.save_matrix_csv(out, v)
        report("write", time.perf_counter() - start, traced_from)
    print(f"error_l2 {rep.total_error_l2!r} over {v.shape[0]} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
