"""Command-line front end: quantize, compare, bounds, oracle, reduce.

Exit codes: 0 success / 1 solver disagreement or guarantee violation /
2 input error / 3 rank-deficient calibration data with mu = 0.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .lattice import (
    LatticeBasis,
    absolute_error_bound,
    fragile_indices,
    nearest_plane_rows,
    relative_error_factor,
    schnorr_euchner,
)
from .linalg import NotPositiveDefinite, RankDeficient, check_vector, l2_norm, ql_decompose
from .matio import ParseError, RaggedRows, load_matrix_csv, save_matrix_csv
from .quantize import (
    QuantConfig,
    _pull_back,
    compare_algorithms,
    quantize_matrix,
    solver_basis,
)
from .reduction import DEFAULT_DELTA, lll_reduce, map_solution
from .report import Report

_ALGO_CHOICES = ("gptq", "babai")


def _parse_mu(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"--mu expects a number or 'auto', got {text!r}") from None
    return value


def _parse_delta(text: str) -> float:
    """--delta, refused where argparse reads it (before a command prints
    or writes anything) when lll_reduce would refuse it."""
    try:
        delta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.25 < delta < 1.0:
        raise argparse.ArgumentTypeError(f"delta must be in (0.25, 1), got {delta}")
    return delta


def _parse_clamp(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--clamp expects LO:HI, got {text!r}") from None


def _parse_random(text: str) -> tuple[int, int]:
    try:
        n, k = text.split(",")
        return int(n), int(k)
    except ValueError:
        raise ValueError(f"--random expects n,k , got {text!r}") from None


def _config(args) -> QuantConfig:
    return QuantConfig(
        mu=_parse_mu(args.mu),
        alpha=args.alpha,
        clamp=_parse_clamp(args.clamp) if args.clamp else None,
        algorithm=args.algo.replace("-", "_"),
    )


def _reduce_delta(args) -> float | None:
    """The LLL parameter when --reduce lll is given, else None."""
    return args.delta if args.reduce == "lll" else None


def _write_outputs(args, report: Report, v_mat: np.ndarray | None = None) -> None:
    """Write v_mat to --out (when given) and the report to --report (when
    named).  Rendering refuses a non-finite value, so it runs before any
    file is written."""
    text = report.to_json() if args.report else None
    if v_mat is not None:
        save_matrix_csv(args.out, v_mat)
    if text is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_quantize(args) -> int:
    start = time.perf_counter()
    weights = load_matrix_csv(args.weights)
    x = load_matrix_csv(args.calib)
    parse_ms = (time.perf_counter() - start) * 1e3
    cfg = _config(args)
    m, n = weights.shape
    k = x.shape[0]

    reduce_delta = _reduce_delta(args)
    start = time.perf_counter()
    v_mat, rep = quantize_matrix(weights, x, cfg, reduce_delta)
    wall_ms = (time.perf_counter() - start) * 1e3
    algorithm = args.algo + ("" if reduce_delta is None else "+lll")

    abs_bound = absolute_error_bound(rep.l_diag)
    gamma = relative_error_factor(rep.l_diag)
    # per-row guarantee, scaled to the alphabet and summed over m rows
    bound_scale = cfg.alpha * math.sqrt(m)
    ratios = np.sort(rep.row_errors_regularized / cfg.alpha / abs_bound.paper)
    conditioning = {"mu": rep.mu, "route": rep.route,
                    "l_diag_min": float(rep.l_diag.min()),
                    "l_diag_max": float(rep.l_diag.max())}
    if math.isfinite(rep.cond):
        conditioning["cond_1"] = rep.cond
    report = Report(
        algorithm=algorithm,
        n=n, k=k, m=m,
        mu=rep.mu, alpha=cfg.alpha, delta=args.delta,
        error_l2=rep.total_error_l2, error_regularized=rep.total_error_regularized,
        bound_abs_paper=bound_scale * abs_bound.paper,
        bound_abs_halfstep=bound_scale * abs_bound.half_step,
        gamma_bound=gamma.gamma,
        fragile_count=len(rep.fragile),
        wall_time_ms=wall_ms,
        conditioning=conditioning,
        # not np.median, whose first call imports numpy.ma: ~20 ms and 1.8 MB
        quality={"row_ratio_max": float(ratios[-1]),
                 "row_ratio_median": float((ratios[(m - 1) // 2] + ratios[m // 2]) / 2)},
        timings_ms={"parse": parse_ms, **rep.timings_ms},
    )
    _write_outputs(args, report, v_mat)
    print(f"quantized {m}x{n} with {algorithm}: error_l2={report.error_l2!r} "
          f"(bound {report.bound_abs_paper!r}), "
          f"max_row_ratio={report.quality['row_ratio_max']!r}, "
          f"fragile={report.fragile_count} -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    if args.random:
        n, k = _parse_random(args.random)
        if args.seeds < 1:
            raise ValueError("--seeds must be >= 1")
        layers = []
        for s in range(args.seeds):
            seed = args.seed + s
            rng = np.random.default_rng(seed)
            layers.append((rng.uniform(-1, 1, (k, n)), rng.uniform(-1, 1, (1, n))))
            print(f"instance {s}: seed={seed}")
    else:
        if not (args.weights and args.calib):
            raise ValueError("compare needs --weights/--calib or --random n,k")
        layers = [(load_matrix_csv(args.calib), load_matrix_csv(args.weights))]

    all_agree = True
    fragile_total = rows = 0
    for x, weights in layers:
        runs, fragile_rows, agree_rows, ref = compare_algorithms(weights, x, cfg)
        for agree, fragile in zip(agree_rows, fragile_rows):
            print(f"instance {rows}: agree={agree} fragile={len(fragile)}")
            fragile_total += len(fragile)
            all_agree &= agree
            rows += 1
    wall_ms = (time.perf_counter() - start) * 1e3

    rep = runs["gptq"][1]  # ref and rep are the last instance's
    abs_bound = absolute_error_bound(rep.l_diag)
    gamma = relative_error_factor(rep.l_diag)
    report = Report(
        algorithm="compare",
        n=x.shape[1], k=x.shape[0], m=1,
        mu=rep.mu, alpha=cfg.alpha, delta=DEFAULT_DELTA,
        error_l2=ref.error_l2, error_regularized=ref.error_regularized,
        bound_abs_paper=cfg.alpha * abs_bound.paper,
        bound_abs_halfstep=cfg.alpha * abs_bound.half_step,
        gamma_bound=gamma.gamma,
        step_coeffs=ref.step_coeffs.tolist(),
        fragile_count=fragile_total,
        wall_time_ms=wall_ms,
        v=None if args.random else ref.v.tolist(),
        agreement=all_agree,
    )
    _write_outputs(args, report)
    print(f"agreement={all_agree} over {rows} instance(s), "
          f"fragile={fragile_total}")
    return 0 if all_agree else 1


def _print_bounds(label: str, diag: np.ndarray) -> None:
    abs_bound = absolute_error_bound(diag)
    gamma = relative_error_factor(diag)
    print(f"[{label}]")
    print("L_diag: " + ",".join(repr(float(d)) for d in diag))
    print(f"bound_abs_paper    = {abs_bound.paper!r}")
    print(f"bound_abs_halfstep = {abs_bound.half_step!r}")
    print(f"gamma_bound        = {gamma.gamma!r}")
    print(f"gamma_bound_loose  = {gamma.loose!r}")


def _cmd_bounds(args) -> int:
    x = load_matrix_csv(args.calib)
    cfg = _config(args)
    sb = solver_basis(x, cfg.mu)
    print(f"n={x.shape[1]} k={x.shape[0]} mu={sb.mu!r}")
    _print_bounds("input basis", np.diag(sb.l))
    reduce_delta = _reduce_delta(args)
    if reduce_delta is not None:
        _print_bounds(f"after lll(delta={reduce_delta})",
                      np.diag(solver_basis(x, cfg.mu, reduce_delta).l))
    return 0


def _cmd_oracle(args) -> int:
    x = load_matrix_csv(args.calib)
    cfg = _config(args)
    if args.target:
        t = load_matrix_csv(args.target).ravel()
    elif args.weights:
        weights = load_matrix_csv(args.weights)
        if weights.shape[1] != x.shape[1]:
            raise ValueError(f"weights have {weights.shape[1]} columns, "
                             f"calibration has {x.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            t = x @ weights[0]
    else:
        raise ValueError("oracle needs --target or --weights")
    if t.size != x.shape[0]:
        raise ValueError(f"target has length {t.size}, calibration has {x.shape[0]} rows")
    check_vector(t, name="t")

    start = time.perf_counter()
    sb = solver_basis(x, cfg.mu, _reduce_delta(args))
    try:
        p, _ = _pull_back(sb, t[None, :], 1.0)
    except ValueError:  # its advice is a larger alpha, which oracle does not take
        raise ValueError("the target's coordinates on the lattice overflow the float range; "
                         "scale the target down or pass a larger --mu") from None
    (v_babai,), (coeffs,) = nearest_plane_rows(sb.l, p)
    v_exact, certified, nodes = schnorr_euchner(sb.l, p[0])
    # the target is zero on the mu * I rows of the basis
    t_emb = np.concatenate([t, np.zeros(sb.basis.shape[0] - t.size)])
    babai_error = float(l2_norm(t_emb - sb.basis @ v_babai))
    exact_error = float(l2_norm(t_emb - sb.basis @ v_exact))
    wall_ms = (time.perf_counter() - start) * 1e3

    if not certified:
        print(f"warning: the search stopped after {nodes} nodes; optimum_error is "
              "the closest vector found, an upper bound on the optimum", file=sys.stderr)

    diag = np.diag(sb.l)
    gamma = relative_error_factor(diag)
    abs_bound = absolute_error_bound(diag)
    if exact_error > 0:
        ratio = babai_error / exact_error
    else:
        ratio = 1.0 if babai_error == 0 else float("inf")

    v = v_babai if sb.u is None else map_solution(sb.u, v_babai)
    error_vs_original = float(l2_norm(t - x @ v))
    print(f"optimum_error = {exact_error!r}")
    print(f"babai_error   = {babai_error!r}")
    print(f"ratio         = {ratio!r}")
    print(f"gamma_bound   = {gamma.gamma!r}")
    print(f"nodes         = {nodes}")

    report = Report(
        algorithm="babai" if sb.u is None else "babai+lll",
        n=x.shape[1], k=x.shape[0], m=1,
        mu=sb.mu, alpha=cfg.alpha, delta=args.delta,
        error_l2=error_vs_original,
        error_regularized=babai_error,
        bound_abs_paper=abs_bound.paper, bound_abs_halfstep=abs_bound.half_step,
        gamma_bound=gamma.gamma,
        step_coeffs=coeffs.tolist(),
        fragile_count=len(fragile_indices(coeffs)),
        wall_time_ms=wall_ms,
        v=v.tolist(),
        oracle_error=exact_error,
    )
    _write_outputs(args, report)

    if ratio > gamma.gamma * (1 + 1e-12):
        print("error: approximation-factor guarantee violated", file=sys.stderr)
        return 1
    return 0


def _cmd_reduce(args) -> int:
    lattice = LatticeBasis(load_matrix_csv(args.calib))
    before = lattice.factors.diag
    reduced = lll_reduce(lattice, args.delta)
    after = ql_decompose(reduced.basis_red).diag
    save_matrix_csv(args.out, reduced.basis_red)
    save_matrix_csv(args.out_unimodular, reduced.u)
    print("L_diag before: " + ",".join(repr(float(d)) for d in before))
    print("L_diag after:  " + ",".join(repr(float(d)) for d in after))
    with np.errstate(over="ignore"):  # past the float range the sums read inf
        print(f"sum L_ii^2: {float(np.sum(before ** 2))!r} -> {float(np.sum(after ** 2))!r}")
    print(f"wrote {args.out} and {args.out_unimodular}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latquant",
        description="Data-driven quantization of linear layers as a "
                    "lattice closest-vector problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mu_delta(p):
        p.add_argument("--mu", default="0", help="regularizer (number or 'auto')")
        p.add_argument("--delta", type=_parse_delta, default=DEFAULT_DELTA,
                       help="LLL reduction parameter, in (0.25, 1)")

    q = sub.add_parser("quantize", help="quantize a weight matrix")
    q.add_argument("--weights", required=True, help="weight matrix CSV (m x n)")
    q.add_argument("--calib", required=True, help="calibration matrix CSV (k x n)")
    add_mu_delta(q)
    q.add_argument("--alpha", type=float, default=1.0, help="alphabet scale")
    q.add_argument("--algo", choices=_ALGO_CHOICES, default="gptq")
    q.add_argument("--clamp", default=None, help="clamp v into LO:HI after the run")
    q.add_argument("--reduce", choices=["lll"], default=None)
    q.add_argument("--out", default="V.csv")
    q.add_argument("--report", default="report.json")
    q.set_defaults(func=_cmd_quantize)

    c = sub.add_parser("compare", help="run all four solvers and check agreement")
    c.add_argument("--weights", default=None)
    c.add_argument("--calib", default=None)
    c.add_argument("--random", default=None, metavar="n,k",
                   help="generate random instances instead of reading files")
    c.add_argument("--seeds", type=int, default=1, help="number of random instances")
    c.add_argument("--seed", type=int, default=0, help="base seed")
    c.add_argument("--mu", default="0", help="regularizer (number or 'auto')")
    c.add_argument("--alpha", type=float, default=1.0, help="alphabet scale")
    c.add_argument("--report", default=None)
    c.set_defaults(func=_cmd_compare, algo="gptq", clamp=None)

    b = sub.add_parser("bounds", help="print worst-case error bounds")
    b.add_argument("--calib", required=True)
    add_mu_delta(b)
    b.add_argument("--reduce", choices=["lll"], default=None)
    b.set_defaults(func=_cmd_bounds, algo="gptq", clamp=None, alpha=1.0)

    o = sub.add_parser("oracle", help="exact optimum vs the greedy answer")
    o.add_argument("--calib", required=True)
    o.add_argument("--target", default=None, help="target vector CSV (length k)")
    o.add_argument("--weights", default=None, help="derive target as X @ first row")
    add_mu_delta(o)
    o.add_argument("--reduce", choices=["lll"], default=None)
    o.add_argument("--report", default=None)
    o.set_defaults(func=_cmd_oracle, algo="babai", clamp=None, alpha=1.0)

    r = sub.add_parser("reduce", help="LLL-reduce a basis and save the transform")
    r.add_argument("--calib", required=True)
    r.add_argument("--delta", type=_parse_delta, default=DEFAULT_DELTA)
    r.add_argument("--out", default="reduced.csv")
    r.add_argument("--out-unimodular", default="unimodular.csv")
    r.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RaggedRows) as exc:
        print(f"error: bad CSV input: {exc}", file=sys.stderr)
        return 2
    except (RankDeficient, NotPositiveDefinite) as exc:
        if hasattr(args, "mu"):
            print(f"error: {exc}\nhint: pass --mu > 0 (or --mu auto) to regularize "
                  "the calibration matrix", file=sys.stderr)
        else:
            print("error: the calibration columns are linearly dependent; LLL "
                  "reduction needs linearly independent columns", file=sys.stderr)
        return 3
    except (OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
