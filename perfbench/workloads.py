"""Seeded inputs, job commands and output checks of the three workloads.

A workload writes its inputs once per run from `--seed`; every job of the
run solves the same inputs in a fresh process.  The program sees only the
generated files.  Weights are Gaussian with standard deviation sigma and
the alphabet scale is alpha = sigma / 2, so w / alpha ~ N(0, 4) and V
spans about [-8, 8]: a roughly 4-bit range.

Where a workload's cost or error depends on one input much more than on
the other, that input is drawn once from FIXED_SEED and the run's seed
draws the rest: `lll-40` keeps its lattice (LLL's work is a function of the
basis alone) and `chain-3` keeps its network.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks

FIXED_SEED = 2508


def write_csv(path: Path, a: np.ndarray) -> None:
    """Shortest round-trip floats, the format latquant itself writes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))


def read_cli_outputs(outdir: Path) -> tuple[np.ndarray, dict]:
    """V.csv and the two report keys the checks use; nothing from stdout."""
    v = np.loadtxt(outdir / "V.csv", delimiter=",", dtype=np.int64, ndmin=2)
    with open(outdir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return v, {key: report[key] for key in ("error_l2", "bound_abs_paper")}


class QuantizeWorkload:
    """A `latquant quantize --mu auto` job on CSV inputs X (k x n) and
    W (m x n ~ N(0, 1/n)); subclasses choose the features and the basis."""

    mode = "cli"
    extra_args: list[str] = []

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = np.random.default_rng(seed)
        self.x = self.features(rng)
        sigma = 1.0 / np.sqrt(self.n)
        self.w = sigma * rng.standard_normal((self.m, self.n))
        self.alpha = float(sigma / 2)
        self.x_csv, self.w_csv = workdir / "X.csv", workdir / "W.csv"
        write_csv(self.x_csv, self.x)
        write_csv(self.w_csv, self.w)
        mu = checks.auto_mu(self.x)
        self.h = checks.hessian(self.x, mu)
        self.reference(np.vstack([self.x, mu * np.eye(self.n)]), src)

    def args(self, outdir: Path) -> list[str]:
        return ["quantize", "--weights", str(self.w_csv), "--calib", str(self.x_csv),
                "--mu", "auto", "--alpha", repr(self.alpha),
                "--out", str(outdir / "V.csv"), "--report", str(outdir / "report.json"),
                *self.extra_args]

    def check(self, outdir: Path) -> tuple[list[str], float]:
        v, report = read_cli_outputs(outdir)
        problems, err_rel = checks.check_quantize(
            self.x, self.w, self.alpha, v, report, self.v_ref, self.fragile,
            self.h, self.h_basis)
        return self.problems + problems, err_rel


class Gptq512(QuantizeWorkload):
    """The default algorithm at the ROADMAP shape: X (2048 x 512) with
    i.i.d. N(0, 1) features, W 512 x 512."""

    name = "gptq-512"
    n, k, m = 512, 2048, 512

    def features(self, rng) -> np.ndarray:
        return rng.standard_normal((self.k, self.n))

    def reference(self, basis: np.ndarray, src: Path) -> None:
        self.problems: list[str] = []
        self.h_basis = self.h
        self.v_ref, self.fragile = checks.gptq_reference(self.w / self.alpha, self.h)


class Lll40(QuantizeWorkload):
    """`--reduce lll` on correlated features, W 128 x 40.

    X = Z G with Z (160 x 40) and the mixing matrix G (40 x 40) both
    i.i.d. N(0, 1), so every feature is a random mix of the same 40 sources
    (cond(X) ~ 1e3).  Z and G are drawn from FIXED_SEED: across random
    lattices the time of lll_reduce varies with an interquartile range of
    23% of its median, so the seed draws only W.

    The reference needs the basis the run solved on.  It is reduced here by
    latquant's own `lll_reduce` on the same input bits, and then checked
    apart from the program: basis_red = basis @ u with u integer and
    unimodular.  Nearest plane on basis_red for the target basis @ w equals
    GPTQ on w_red = u^-1 w with the Gram matrix of basis_red."""

    name = "lll-40"
    n, k, m = 40, 160, 128
    extra_args = ["--reduce", "lll"]

    def features(self, rng) -> np.ndarray:
        lattice = np.random.default_rng(FIXED_SEED)
        z = lattice.standard_normal((self.k, self.n))
        return z @ lattice.standard_normal((self.n, self.n))

    def reference(self, basis: np.ndarray, src: Path) -> None:
        basis_red, u = reduce_basis(basis, src)
        self.problems = checks.check_reduction(basis, basis_red, u)
        self.h_basis = basis_red.T @ basis_red
        w_red = np.linalg.solve(u.astype(float), (self.w / self.alpha).T).T
        v_red, self.fragile = checks.gptq_reference(w_red, self.h_basis)
        self.v_ref = v_red @ u.T


def reduce_basis(basis: np.ndarray, src: Path) -> tuple[np.ndarray, np.ndarray]:
    sys.path.insert(0, str(src))
    try:
        from latquant import lll_reduce
    finally:
        sys.path.remove(str(src))
    reduced = lll_reduce(basis)
    return reduced.basis_red, np.array(reduced.u, dtype=np.int64)


class Chain3:
    """A 3-layer ReLU network of width 64 on k = 1024 samples, quantized
    layer by layer through `cross_layer_target` (perfbench/chain_job.py).

    X0 (1024 x 64) is i.i.d. N(0, 1) from the run's seed; each W_l
    (64 x 64) is N(0, 2/n), drawn from FIXED_SEED: the network is given and
    the calibration samples vary."""

    name = "chain-3"
    mode = "chain"
    n, k, layers = 64, 1024, 3

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.x0 = np.random.default_rng(seed).standard_normal((self.k, self.n))
        sigma = np.sqrt(2.0 / self.n)
        network = np.random.default_rng(FIXED_SEED)
        self.weights = [sigma * network.standard_normal((self.n, self.n))
                        for _ in range(self.layers)]
        self.alpha = float(sigma / 2)
        self.inputs = workdir / "chain_in.npz"
        np.savez(self.inputs, x0=self.x0, alpha=self.alpha,
                 **{f"w{i + 1}": w for i, w in enumerate(self.weights)})

    def args(self, outdir: Path) -> list[str]:
        return ["--inputs", str(self.inputs), "--out", str(outdir / "chain_out.npz")]

    def check(self, outdir: Path) -> tuple[list[str], float]:
        with np.load(outdir / "chain_out.npz") as out:
            vs = [out[f"v{i + 1}"] for i in range(self.layers)]
            errors = out["error_l2"]
        return checks.check_chain(self.x0, self.weights, self.alpha, vs, errors)


WORKLOADS = {wl.name: wl for wl in (Gptq512, Lll40, Chain3)}
