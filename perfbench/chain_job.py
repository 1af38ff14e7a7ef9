"""Quantize a 3-layer ReLU network layer by layer, as one job of `chain-3`.

Every row of every layer goes through `latquant.cross_layer_target`: it aims
at the unquantized layer's pre-activation output `x @ w` on the lattice of
the activations `x_hat` that the already-quantized upstream layers produce.

    python perfbench/chain_job.py --inputs chain_in.npz --out chain_out.npz

The inputs file holds `x0` (k x n), `w1`..`w3` (n x n) and `alpha`.  The
output file holds the integer matrices `v1`..`v3` and, per layer, the
whole-layer error `error_l2` that latquant reported (root of the sum of the
rows' squared errors).
"""

from __future__ import annotations

import argparse

import numpy as np

import latquant

LAYERS = 3


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def quantize_chain(x0: np.ndarray, weights: list[np.ndarray], alpha: float):
    cfg = latquant.QuantConfig(mu="auto", alpha=alpha)
    x = x_hat = x0
    vs, errors = [], []
    for layer, w_mat in enumerate(weights):
        rows = [latquant.cross_layer_target(x, x_hat, w, cfg).result for w in w_mat]
        v = np.array([r.v for r in rows], dtype=np.int64)
        vs.append(v)
        errors.append(float(np.sqrt(sum(r.error_l2 ** 2 for r in rows))))
        if layer + 1 < len(weights):
            x, x_hat = relu(x @ w_mat.T), relu(x_hat @ (alpha * v).T)
    return vs, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with np.load(args.inputs) as data:
        x0 = data["x0"]
        weights = [data[f"w{i + 1}"] for i in range(LAYERS)]
        alpha = float(data["alpha"])
    vs, errors = quantize_chain(x0, weights, alpha)
    np.savez(args.out, error_l2=np.array(errors),
             **{f"v{i + 1}": v for i, v in enumerate(vs)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
