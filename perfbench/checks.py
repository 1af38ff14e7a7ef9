"""Output checks made apart from latquant: numpy and scipy only.

Each `check_*` function returns a list of problems; an empty list means the
job's output passed.  The reference solver is GPTQ in Hessian form (Frantar
et al., arXiv:2210.17323), batched over rows: it never sees the QL route or
the data-space sweep that latquant runs, so agreement is evidence that the
program solved the problem it was given.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# A reference coefficient this close to a half-integer may round either way
# in two float paths that agree to ~1e-12, so rows holding one are skipped.
TIE_MARGIN = 1e-6

# Relative tolerance for a value recomputed along another float path.
REL_TOL = 1e-9


def auto_mu(x: np.ndarray) -> float:
    """The regularizer of `--mu auto`: sqrt(0.01 * mean diag of X^T X)."""
    return float(np.sqrt(0.01 * np.mean(np.sum(x * x, axis=0))))


def hessian(x: np.ndarray, mu: float) -> np.ndarray:
    """H = X^T X + mu^2 I, the Gram matrix of the regularized basis."""
    return x.T @ x + mu * mu * np.eye(x.shape[1])


def profile(h: np.ndarray) -> np.ndarray:
    """diag(L) of the QL factor of any basis B with B^T B = h.

    latquant takes Gram-Schmidt from the last column backwards, which is the
    upper Cholesky factor of the column-reversed Gram matrix, reversed."""
    return np.diag(np.linalg.cholesky(h[::-1, ::-1]))[::-1].copy()


def gptq_reference(w_scaled: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-batched GPTQ for the rows of `w_scaled` (already divided by alpha).

    Returns (V, fragile_rows).  U is the upper Cholesky factor of H^-1; after
    rounding column i, the rounding error divided by U_ii is spread over the
    later columns along row i of U.  A row is fragile when one of its
    pre-rounding coefficients lies within TIE_MARGIN of a half-integer."""
    h_inv = cho_solve(cho_factor(h, lower=True), np.eye(h.shape[0]))
    u = np.linalg.cholesky(h_inv).T
    w = np.array(w_scaled, dtype=float)
    m, n = w.shape
    v = np.empty((m, n), dtype=np.int64)
    fragile = np.zeros(m, dtype=bool)
    for i in range(n):
        c = w[:, i]
        frac = c - np.floor(c)
        fragile |= np.abs(frac - 0.5) < TIE_MARGIN
        q = np.rint(c)
        v[:, i] = q
        if i + 1 < n:
            w[:, i + 1:] -= np.outer((c - q) / u[i, i], u[i, i + 1:])
    return v, np.flatnonzero(fragile)


def match_reference(v: np.ndarray, v_ref: np.ndarray, fragile_rows: np.ndarray,
                    label: str) -> list[str]:
    """V must equal the reference on every row that is not fragile."""
    if v.shape != v_ref.shape:
        return [f"{label}: V has shape {v.shape}, expected {v_ref.shape}"]
    solid = np.setdiff1d(np.arange(v.shape[0]), fragile_rows)
    bad = solid[np.any(v[solid] != v_ref[solid], axis=1)]
    if bad.size:
        return [f"{label}: {bad.size} row(s) differ from the reference GPTQ, "
                f"first row {int(bad[0])}"]
    return []


def output_error(x: np.ndarray, x_hat: np.ndarray, w: np.ndarray, v: np.ndarray,
                 alpha: float) -> tuple[float, float]:
    """(||X W^T - X_hat (alpha V)^T||_F, ||X W^T||_F)."""
    target = x @ w.T
    return (float(np.linalg.norm(target - x_hat @ (alpha * v).T)),
            float(np.linalg.norm(target)))


def close(a: float, b: float, label: str) -> list[str]:
    if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
        return [f"{label}: reported {b!r}, recomputed {a!r}"]
    return []


def nearest_plane_guarantee(diff: np.ndarray, h: np.ndarray, h_basis: np.ndarray,
                            label: str) -> list[str]:
    """Every row's regularized error sqrt(d^T H d), d = w/alpha - v, is at
    most 1/2 sqrt(sum L_ii^2), L profiling the basis the sweep ran on (Gram
    matrix `h_basis`)."""
    err = np.sqrt(np.sum((diff @ h) * diff, axis=1))
    bound = 0.5 * float(np.sqrt(np.sum(profile(h_basis) ** 2)))
    worst = int(np.argmax(err))
    if err[worst] > bound * (1 + REL_TOL):
        return [f"{label}: row {worst} regularized error {err[worst]!r} "
                f"exceeds the nearest-plane bound {bound!r}"]
    return []


def check_quantize(x, w, alpha, v, report, v_ref, fragile_rows, h, h_basis
                   ) -> tuple[list[str], float]:
    """Checks shared by `gptq-512` and `lll-40`; returns (problems, err_rel).

    `v_ref`/`fragile_rows` come from `gptq_reference`, `h` is the Gram
    matrix of the regularized calibration data and `h_basis` that of the
    basis the run solved on (the same matrix unless it was reduced)."""
    problems = match_reference(v, v_ref, fragile_rows, "V")
    if problems:
        return problems, float("nan")
    err, norm = output_error(x, x, w, v, alpha)
    problems += close(err, float(report["error_l2"]), "error_l2")
    if err > float(report["bound_abs_paper"]) * (1 + REL_TOL):
        problems.append(f"error_l2 {err!r} exceeds bound_abs_paper "
                        f"{report['bound_abs_paper']!r}")
    problems += nearest_plane_guarantee(w / alpha - v, h, h_basis, "guarantee")
    return problems, err / norm


def check_reduction(basis: np.ndarray, basis_red: np.ndarray, u: np.ndarray) -> list[str]:
    """basis_red = basis @ u with u an integer matrix of determinant +-1."""
    problems = []
    if not np.allclose(basis @ u, basis_red, rtol=REL_TOL, atol=REL_TOL * np.abs(basis).max()):
        problems.append("reduced basis is not basis @ u")
    sign, logdet = np.linalg.slogdet(u.astype(float))
    if sign == 0 or abs(logdet) > 1e-6:
        problems.append(f"u is not unimodular (log|det u| = {logdet!r})")
    return problems


def chain_reference(x: np.ndarray, x_hat: np.ndarray, w: np.ndarray, alpha: float):
    """Reference for one layer of a cross-layer chain.

    Pulls the target X W^T back onto the regularized lattice of X_hat by
    least squares, W_hat = H^-1 X_hat^T X W^T / alpha, and runs the
    reference GPTQ on W_hat.  Returns (V, fragile_rows)."""
    h = hessian(x_hat, auto_mu(x_hat))
    w_hat = np.linalg.solve(h, x_hat.T @ (x @ w.T) / alpha).T
    return gptq_reference(w_hat, h)


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def check_chain(x0, weights, alpha, vs, errors) -> tuple[list[str], float]:
    """Check every layer of a chain against the reference and recompute the
    layers' errors.  Returns (problems, err_rel at the last layer's output,
    against the unquantized network)."""
    if len(vs) != len(weights) or len(errors) != len(weights):
        return [f"expected {len(weights)} layers, got {len(vs)}"], float("nan")
    problems = []
    x = x_hat = x0
    for layer, (w, v) in enumerate(zip(weights, vs), start=1):
        v_ref, fragile = chain_reference(x, x_hat, w, alpha)
        problems += match_reference(v, v_ref, fragile, f"layer {layer}")
        if problems:
            return problems, float("nan")
        err, norm = output_error(x, x_hat, w, v, alpha)
        problems += close(err, float(errors[layer - 1]), f"layer {layer} error_l2")
        if layer < len(weights):
            x, x_hat = relu(x @ w.T), relu(x_hat @ (alpha * v).T)
    return problems, err / norm
