"""Sequential weight quantization in parameter space.

Given calibration inputs X (k x n, rows are samples) and a weight row w,
the task is to pick v with integer entries minimizing ||X w - X v||_2.
The solvers here:

  gptq            sequential rounding with a correction of the remaining
                  coordinates through the column of L^-1 (L^T L = X^T X)
  gptq_rec        the same computation written as a recursion that
                  re-factors the column suffix X_{>=2} at every level
  babai           the nearest-plane sweep in data space (see lattice.py)
  babai_proj_rec  the recursion that rounds the data-space coefficient
                  <t, Q_1>/L_11 but then projects back to parameter space

All four provably return the same integer vector; the recursive variants
exist to make that equivalence executable and are O(n) factorizations per
solve, while gptq and babai are the production paths.  Every row of a
weight matrix is an independent problem on the same factor L, so
quantize_matrix factors once and runs one O(m n^2) sweep over the
columns for all m rows; the single-row functions are m = 1 callers of
the same kernels.  The production paths need only L and L^-1, never Q:
L comes from a Cholesky factorization of the n x n Gram matrix, and from
a QR factorization of the k x n basis only when that Gram matrix is too
ill-conditioned (linalg.gram_factor).  Either route inverts L once, and
every solve with it is a product with L^-1.

Rank-deficient calibration data (in particular k < n) is handled by
stacking mu * I under X, which adds mu^2 to every eigenvalue of X^T X;
mu -> infinity degenerates to plain round(w).  Reported errors always
refer to the original X, with the regularized objective carried
separately.  The alphabet alpha * Z is handled by solving for w / alpha,
and an optional [lo, hi] clamp is applied to v after the full run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    DEFAULT_TIE_TOL,
    fragile_indices,
    nearest_plane_rows,
    rows_to_int64,
)
from .linalg import (
    _ql_factors,
    check_matrix,
    check_vector,
    gram_factor,
    l2_norm,
    power_of_two_scale,
    ql_decompose,
)
from .reduction import lll_reduce, map_solution

ALGORITHMS = ("gptq", "gptq_rec", "babai", "babai_proj_rec")


@dataclass(frozen=True)
class QuantConfig:
    """Knobs for a quantization run.

    mu:        regularizer (mu = sqrt(lambda)); 0 disables, "auto" picks
               sqrt(0.01 * mean diag of X^T X).
    alpha:     alphabet scale; quantized values live on alpha * Z.
    tie_tol:   half-integer proximity below which a coefficient is flagged
               fragile (rounding may legitimately differ between float
               paths).
    clamp:     optional inclusive integer interval applied to v after the
               full sequential run.
    algorithm: one of gptq | gptq_rec | babai | babai_proj_rec.

    Rounding is always half-to-even (ties to even).
    """

    mu: float | str = 0.0
    alpha: float = 1.0
    tie_tol: float = DEFAULT_TIE_TOL
    clamp: tuple[int, int] | None = None
    algorithm: str = "gptq"

    def __post_init__(self):
        if self.mu != "auto":
            if (not isinstance(self.mu, (int, float)) or not math.isfinite(self.mu)
                    or self.mu < 0):
                raise ValueError(f"mu must be finite and >= 0 or 'auto', got {self.mu!r}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not self.tie_tol >= 0:
            raise ValueError("tie_tol must be >= 0")
        if self.clamp is not None:
            lo, hi = self.clamp
            if lo > hi:
                raise ValueError(f"clamp interval is empty: {self.clamp}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")


@dataclass(eq=False)
class QuantResult:
    """Outcome of quantizing one weight row.

    values = alpha * v (before any clamp the two carry the same data).
    error_l2 is measured against the original, unregularized X;
    error_regularized is the solver's actual objective (equal when mu=0).
    w_history, when present, holds the intermediate weight vectors
    w^(0) .. w^(n); the last entry equals v as reals.
    """

    v: np.ndarray
    values: np.ndarray
    error_l2: float
    error_regularized: float
    step_coeffs: np.ndarray
    fragile: list[int] = field(default_factory=list)
    w_history: list[np.ndarray] | None = None


def resolve_mu(x: np.ndarray, mu: float | str) -> float:
    """Turn the config's mu into a number ("auto" keys off mean diag X^T X)."""
    if mu == "auto":
        with np.errstate(over="ignore"):  # an overflow is refused below
            mu = math.sqrt(0.01 * float(np.mean(np.sum(x * x, axis=0))))
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return mu


def regularize(x, mu: float) -> np.ndarray:
    """Stack mu * I under x; the result always has full column rank.

    Satisfies (x' ^T x') = x^T x + mu^2 I, so it matches diagonal-loading
    of the Gram matrix while staying a plain lattice basis.
    """
    x = check_matrix(x, "x", min_rows=0)  # k = 0 is legal: no data at all
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    return np.vstack([x, mu * np.eye(x.shape[1])])


@dataclass(eq=False)
class SolverBasis:
    """The lattice a run solves on.

    x is the validated calibration data and x_solver the matrix the
    objective is measured with (x itself, or x with mu * I stacked under
    it).  basis is x_solver or, after reduction, x_solver @ u with u the
    exact unimodular transform (None without reduction).  l is the
    lower-triangular factor with positive diagonal and
    l^T l = basis^T basis, and l_inv its inverse: all the solvers need.
    The coordinates Q^T t of a point t on the basis's Gram-Schmidt
    directions are l_inv^T basis^T t, so Q is never formed.  l comes from
    the Cholesky factorization of basis^T basis, or from the QL
    factorization of basis when that Gram matrix fails
    linalg.gram_factor's conditioning gate; either route inverts it once,
    with linalg.invert_lower_triangular's kernel."""

    x: np.ndarray
    x_solver: np.ndarray
    mu: float
    basis: np.ndarray
    l: np.ndarray
    l_inv: np.ndarray
    u: np.ndarray | None = None


def solver_basis(x, mu: float | str, reduce_delta: float | None = None) -> SolverBasis:
    """Validate x, resolve and apply the regularizer, optionally
    LLL-reduce with parameter reduce_delta, and factor the basis once.

    The Gram matrix basis^T basis is X^T X + mu^2 I, or B^T B for the
    reduced basis B.  Where gram_factor declines it, ql_decompose(basis)
    supplies l and l_inv and raises RankDeficient or warns
    IllConditionedWarning as the input calls for."""
    x = check_matrix(x, "x")
    mu = resolve_mu(x, mu)
    x_solver = regularize(x, mu) if mu > 0 else x
    basis, u = x_solver, None
    if reduce_delta is not None:
        reduced = lll_reduce(x_solver, reduce_delta)
        basis, u = reduced.basis_red, reduced.u
    with np.errstate(over="ignore"):  # an overflowing Gram matrix fails the factorization
        factor = gram_factor(basis.T @ basis)
    if factor is None:
        f = ql_decompose(basis)
        factor = f.l, f.l_inv
    return SolverBasis(x, x_solver, mu, basis, *factor, u)


def _gptq_rows(l_inv: np.ndarray, w: np.ndarray,
               history: list[np.ndarray] | None = None):
    """The sequential loop for the rows of w at once: round column i,
    then shift the remaining coordinates along column i of L^-1 so the
    already-fixed ones are untouched.  Column i is assigned v_i directly,
    which is what the update does in exact arithmetic; this keeps the
    stabilized coordinates exactly integer.  history, when given,
    collects the first row's w^(0) .. w^(n)."""
    w = np.array(w, dtype=float)
    coeffs = np.empty_like(w)
    if history is not None:
        history.append(w[0].copy())
    for i in range(w.shape[1]):
        coeffs[:, i] = c = w[:, i].copy()
        v = np.rint(c)
        w[:, i + 1 :] += np.outer((v - c) / l_inv[i, i], l_inv[i + 1 :, i])
        w[:, i] = v
        if history is not None:
            history.append(w[0].copy())
    return rows_to_int64(w), coeffs


def _recursive_rows(basis: np.ndarray, w: np.ndarray, variant: str):
    """Suffix recursion, unrolled, one row at a time: at every level
    re-factor the current column suffix, fix one coordinate, and recurse
    on the rest.

    gptq_rec rounds w_1 directly; babai_proj_rec rounds the data-space
    coefficient <X w, Q_1>/L_11 (the same real number, by a telescoping
    identity).  Both then move w along column 1 of L^-1 and drop the
    first coordinate.  The conditioning of basis has been checked where
    it was factored, and a column suffix is no worse conditioned, so the
    levels factor without the condition check."""
    v = np.empty(w.shape)
    coeffs = np.empty(w.shape)
    for r, w_cur in enumerate(np.asarray(w, dtype=float)):
        x_cur = basis
        for i in range(w.shape[1]):
            factors = _ql_factors(x_cur)
            if variant == "gptq_rec":
                c = float(w_cur[0])
            else:
                t = x_cur @ w_cur
                c = float(t @ factors.q[:, 0]) / float(factors.l[0, 0])
            coeffs[r, i] = c
            v[r, i] = np.rint(c)
            l_inv = factors.l_inv
            step = (v[r, i] - w_cur[0]) / l_inv[0, 0]
            w_cur = (w_cur + step * l_inv[:, 0])[1:]
            x_cur = x_cur[:, 1:]
    return rows_to_int64(v), coeffs


def _row_errors(sb: SolverBasis, w: np.ndarray, v: np.ndarray, alpha: float):
    """alpha ||X (w - v)|| per row, against the original and the
    regularized X."""
    diff = (w - v).T
    return (alpha * l2_norm(sb.x @ diff, axis=0),
            alpha * l2_norm(sb.x_solver @ diff, axis=0))


def gptq_quantize(x, w, cfg: QuantConfig = QuantConfig()) -> QuantResult:
    """Quantize one weight row with the sequential corrective loop.

    Works on the integer grid (cfg.alpha and cfg.clamp are the business
    of scaled_quantize / quantize_matrix).  With cfg.mu = 0 and
    rank-deficient x this raises RankDeficient; the fix is mu > 0.
    """
    sb = solver_basis(x, cfg.mu)
    w = check_vector(w, sb.x.shape[1], "w")[None, :]
    history: list[np.ndarray] = []
    v, coeffs = _gptq_rows(sb.l_inv, w, history)
    err, err_reg = _row_errors(sb, w, v, 1.0)
    return QuantResult(
        v=v[0],
        values=v[0].astype(float),
        error_l2=float(err[0]),
        error_regularized=float(err_reg[0]),
        step_coeffs=coeffs[0],
        fragile=fragile_indices(coeffs[0], cfg.tie_tol),
        w_history=history,
    )


def gptq_quantize_recursive(x, w, cfg: QuantConfig = QuantConfig(),
                            variant: str = "gptq_rec") -> QuantResult:
    """Recursive reference solvers (variant: gptq_rec | babai_proj_rec).

    Naive form: every level re-factors the column suffix, so a solve costs
    n factorizations.  On inputs with no fragile ties the output matches
    gptq_quantize bit for bit."""
    if variant not in ("gptq_rec", "babai_proj_rec"):
        raise ValueError(f"variant must be gptq_rec or babai_proj_rec, got {variant!r}")
    return scaled_quantize(
        x, w, dataclasses.replace(cfg, alpha=1.0, clamp=None, algorithm=variant)
    )


def scaled_quantize(x, w, cfg: QuantConfig = QuantConfig()) -> QuantResult:
    """Full-config solve of one row (algorithm, alphabet scale, post-run
    clamp): quantize_matrix on a single row.

    Solves the problem for w / alpha on the same lattice, returns v and
    values = alpha * v; the error is ||X w - alpha X v||.  When clamp is
    set, v is clipped coordinatewise after the sequential run and the
    errors are recomputed for the clipped vector."""
    w = check_vector(w, name="w")
    v, rep = quantize_matrix(w[None, :], x, cfg)
    return QuantResult(
        v=v[0],
        values=cfg.alpha * v[0].astype(float),
        error_l2=float(rep.row_errors[0]),
        error_regularized=float(rep.row_errors_regularized[0]),
        step_coeffs=rep.step_coeffs[0],
        fragile=[j for _, j in rep.fragile],
    )


@dataclass(eq=False)
class MatrixQuantReport:
    """Per-row errors and diagnostics for a whole-matrix run."""

    row_errors: np.ndarray
    row_errors_regularized: np.ndarray
    total_error_l2: float
    total_error_regularized: float
    fragile: list[tuple[int, int]]
    step_coeffs: np.ndarray
    mu: float
    l_diag: np.ndarray


def quantize_matrix(weights, x, cfg: QuantConfig = QuantConfig(),
                    reduce_delta: float | None = None
                    ) -> tuple[np.ndarray, MatrixQuantReport]:
    """Quantize every row of a weight matrix against shared calibration
    data.

    The (regularized) calibration matrix is factored once, and every row
    is solved in one sweep over its columns (the recursive references go
    row by row).  With reduce_delta set, the basis is first LLL-reduced
    with that parameter: the solvers then run on each target's
    coordinates on the reduced basis B, the least-squares pull-back
    L_red^-1 L_red^-T B^T X w, and the solution maps back through the
    unimodular transform in exact integers.  Total squared error is the
    sum of the per-row squared errors."""
    weights = check_matrix(weights, "weights")
    x = check_matrix(x, "x")
    if weights.shape[1] != x.shape[1]:
        raise ValueError(
            f"weights have {weights.shape[1]} columns, calibration has {x.shape[1]}"
        )
    sb = solver_basis(x, cfg.mu, reduce_delta)
    l = sb.l
    w_scaled = weights / cfg.alpha
    w_basis = w_scaled
    if sb.u is not None:
        # the pull-back as one n x n matrix, then one product per row, which
        # keeps each row's bits independent of m
        pull = sb.l_inv @ (sb.l_inv.T @ (sb.basis.T @ sb.x_solver))
        w_basis = np.array([pull @ w for w in w_scaled])
    if cfg.algorithm == "gptq":
        v, coeffs = _gptq_rows(sb.l_inv, w_basis)
    elif cfg.algorithm == "babai":
        # one product per row keeps each row's bits independent of m
        v, coeffs = nearest_plane_rows(l, np.array([l @ w for w in w_basis]))
    else:
        v, coeffs = _recursive_rows(sb.basis, w_basis, cfg.algorithm)
    if sb.u is not None:
        v = map_solution(sb.u, v)
    if cfg.clamp is not None:
        v = np.clip(v, *cfg.clamp)
    row_err, row_err_reg = _row_errors(sb, w_scaled, v, cfg.alpha)
    n = x.shape[1]
    report = MatrixQuantReport(
        row_errors=row_err,
        row_errors_regularized=row_err_reg,
        total_error_l2=float(l2_norm(row_err)),
        total_error_regularized=float(l2_norm(row_err_reg)),
        fragile=[divmod(j, n) for j in fragile_indices(coeffs.ravel(), cfg.tie_tol)],
        step_coeffs=coeffs,
        mu=sb.mu,
        l_diag=np.diag(l).copy(),
    )
    return v, report


@dataclass(eq=False)
class CrossLayerResult:
    """Both solution routes for a cross-layer target, plus diagnostics.

    result holds the target-form solve (the production route).  w_hat is
    the least-squares pull-back of the target onto the quantized lattice;
    v_gptq_route is what the parameter-space loop returns for it.  The two
    agree on every non-fragile coordinate.  off_span_residual is
    ||X w - alpha X_hat w_hat||, the part of the target no lattice vector
    can reach; projected_error measures the solve against the projected
    target instead of the original one."""

    result: QuantResult
    w_hat: np.ndarray
    v_gptq_route: np.ndarray
    routes_agree: bool
    off_span_residual: float
    projected_error: float


def cross_layer_target(x, x_hat, w, cfg: QuantConfig = QuantConfig()) -> CrossLayerResult:
    """Quantize against the lattice of x_hat while aiming at x @ w.

    The target t = X w generally lies outside the column span of X_hat
    (already-quantized upstream layers shift it).  The target-form sweep
    handles that directly; equivalently one can project, w_hat being the
    least-squares solution, and run the parameter-space loop on w_hat.
    Both answers are computed and compared here.

    With mu > 0 the lattice is the regularized stack of x_hat and the
    target is embedded with zeros in the regularization block, which keeps
    the two routes exactly equivalent for every mu >= 0."""
    x = check_matrix(x, "x")
    x_hat = check_matrix(x_hat, "x_hat")
    if x.shape != x_hat.shape:
        raise ValueError(f"x and x_hat shapes differ: {x.shape} vs {x_hat.shape}")
    w = check_vector(w, x.shape[1], "w")
    sb = solver_basis(x_hat, cfg.mu)

    t = x @ w
    t_emb = np.concatenate([t / cfg.alpha, np.zeros(sb.x_solver.shape[0] - t.size)])
    # Q^T t_emb = L^-T x_solver^T t_emb, and t_emb is zero on the mu * I
    # rows; t enters scaled by a power of two, so x_hat^T t of large data
    # does not overflow
    scale = power_of_two_scale(t)
    p = sb.l_inv.T @ (x_hat.T @ (t / scale)) * scale / cfg.alpha
    w_hat = sb.l_inv @ p
    (v_b,), (coeffs_b,) = nearest_plane_rows(sb.l, p[None, :])
    (v_g,), (coeffs_g,) = _gptq_rows(sb.l_inv, w_hat[None, :])

    fragile = sorted(set(fragile_indices(coeffs_b, cfg.tie_tol))
                     | set(fragile_indices(coeffs_g, cfg.tie_tol)))
    solid = np.setdiff1d(np.arange(x.shape[1]), np.array(fragile, dtype=int))
    routes_agree = bool(np.array_equal(v_b[solid], v_g[solid]))

    v = v_b
    if cfg.clamp is not None:
        v = np.clip(v, *cfg.clamp)
    values = cfg.alpha * v.astype(float)
    err = float(l2_norm(t - x_hat @ values))
    err_reg = cfg.alpha * float(l2_norm(t_emb - sb.x_solver @ v))
    projected = x_hat @ (cfg.alpha * w_hat)
    result = QuantResult(
        v=v,
        values=values,
        error_l2=err,
        error_regularized=err_reg,
        step_coeffs=coeffs_b,
        fragile=fragile,
    )
    return CrossLayerResult(
        result=result,
        w_hat=w_hat,
        v_gptq_route=v_g,
        routes_agree=routes_agree,
        off_span_residual=float(l2_norm(t - projected)),
        projected_error=float(l2_norm(projected - x_hat @ values)),
    )
