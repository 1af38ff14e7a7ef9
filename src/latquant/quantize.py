"""Sequential weight quantization in parameter space.

Given calibration inputs X (k x n, rows are samples) and a weight row w,
the task is to pick v with integer entries minimizing ||t - X v||_2 for
the target t = X w, or for a cross-layer target t = X' w off the span of
X (X' the unquantized upstream activations).  The solvers here:

  gptq            sequential rounding with a correction of the remaining
                  coordinates through the column of L^-1 (L^T L = X^T X)
  gptq_rec        the same computation written as a recursion that
                  re-factors the column suffix X_{>=2} at every level
  babai           the nearest-plane sweep in data space (see lattice.py)
  babai_proj_rec  the recursion that rounds the data-space coefficient
                  <t, Q_1>/L_11 but then projects back to parameter space

All four provably return the same integer vector; the recursive variants
exist to make that equivalence executable and are O(n) factorizations per
solve, while gptq and babai are the production paths.  quantize_matrix is
the one solve path: it factors once (linalg.gram_factor's Cholesky of the
Gram matrix, or QR of the basis when that is too ill-conditioned), inverts
L once, and runs one O(m n^2) sweep over the columns for all m rows.
The sweep is blocked (GPTQ's lazy batch updates): within a block of
SWEEP_BLOCK columns each step updates the rest of the block, and after
the block the columns past it take all of its steps in one vector-matrix
product per row.  The single-row functions run the same kernels on one
row, and compare_algorithms runs all four over a layer's rows on one
factorization.  cross_layer_target, the one-row cross-layer call, alone
keeps the last lattice it factored (_cached_basis) while x_hat and mu
stay the same, so a layer quantized row by row factors once.

Rank-deficient calibration data (in particular k < n) is handled by
stacking mu * I under X, which adds mu^2 to every eigenvalue of X^T X;
mu -> infinity degenerates to plain round(w).  The Cholesky route adds
mu^2 to the diagonal of X^T X and never forms the stack; only what needs
the basis itself builds it (SolverBasis.x_solver).  Reported errors always
refer to the original X, with the regularized objective carried
separately.  The alphabet alpha * Z is handled by solving for w / alpha,
and an optional [lo, hi] clamp is applied to v after the full run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (
    DEFAULT_TIE_TOL,
    SWEEP_BLOCK,
    block_update,
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

# Rows per product in _row_errors: the residual it holds is ROW_BLOCK x k.
ROW_BLOCK = 64

# Columns per block of resolve_mu's squared sums: it holds a k x
# COLUMN_BLOCK square, not a k x n one.
COLUMN_BLOCK = 64


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
    """Turn the config's mu into a number ("auto" keys off mean diag X^T X).

    The diagonal is summed COLUMN_BLOCK columns at a time, each block with
    np.sum(c * c, axis=0): a column's sum is the one the whole array gives,
    bit for bit, in any memory layout of x."""
    if mu == "auto":
        diag = np.empty(x.shape[1])
        with np.errstate(over="ignore"):  # an overflow is refused below
            for j in range(0, x.shape[1], COLUMN_BLOCK):
                c = x[:, j : j + COLUMN_BLOCK]
                diag[j : j + COLUMN_BLOCK] = np.sum(c * c, axis=0)
            mu = math.sqrt(0.01 * float(np.mean(diag)))
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
    return _stack(x, mu)


def _stack(x: np.ndarray, mu: float) -> np.ndarray:
    """regularize, unchecked: x itself when mu = 0."""
    return np.vstack([x, mu * np.eye(x.shape[1])]) if mu > 0 else x


@dataclass(eq=False)
class SolverBasis:
    """The lattice a run solves on.

    x is the validated calibration data.  l is the lower-triangular factor
    with positive diagonal and l^T l = X^T X + mu^2 I, or B^T B for the
    LLL-reduced basis B = x_solver @ u (u the exact unimodular transform,
    basis_red B; both None without reduction), and l_inv its inverse: all
    the solvers need.  cond is l's 1-norm condition number
    ||L||_1 ||L^-1||_1, read where l was factored.  The coordinates Q^T t
    of a point t on the basis's Gram-Schmidt directions are
    l_inv^T basis^T t, so Q is never formed.  l comes from the Cholesky
    factorization of that Gram matrix, or from the QL factorization of the
    basis when the Gram matrix fails linalg.gram_factor's conditioning gate
    (route reads "cholesky" or "qr"); either route inverts it once, with
    linalg.invert_lower_triangular's kernel.

    x_solver, the matrix the regularized objective is measured with (x
    with mu * I stacked under it, or x itself at mu = 0), and basis
    (x_solver, or B after reduction) are built on first use, for the
    callers that need the basis itself: the recursive reference solvers,
    the reduced path and the oracle's error of a vector.  A stacked
    x_solver is read-only."""

    x: np.ndarray
    mu: float
    l: np.ndarray
    l_inv: np.ndarray
    cond: float
    route: str
    u: np.ndarray | None = None
    basis_red: np.ndarray | None = None

    @cached_property
    def x_solver(self) -> np.ndarray:
        stacked = _stack(self.x, self.mu)
        if stacked is not self.x:
            stacked.setflags(write=False)
        return stacked

    @property
    def basis(self) -> np.ndarray:
        return self.x_solver if self.basis_red is None else self.basis_red


def solver_basis(x, mu: float | str, reduce_delta: float | None = None) -> SolverBasis:
    """Validate x, resolve and apply the regularizer, optionally
    LLL-reduce with parameter reduce_delta, and factor the basis once.

    The Gram matrix is X^T X + mu^2 I, or B^T B for the reduced basis B.
    Where gram_factor declines it, ql_decompose(basis) supplies l and l_inv
    and raises RankDeficient or warns IllConditionedWarning as the input
    calls for."""
    return _factor_basis(check_matrix(x, "x"), mu, reduce_delta)


def _factor_basis(x: np.ndarray, mu: float | str,
                  reduce_delta: float | None = None) -> SolverBasis:
    """solver_basis on an x that check_matrix has already returned, so
    its caller's validation is the only pass over x.  Without reduction
    the Cholesky route forms X^T X and adds mu^2 to its diagonal: the
    stacked basis is built only for LLL or the QR fallback.  The Gram
    matrix goes to gram_factor as its only reference, so it is freed once
    factored."""
    mu = resolve_mu(x, mu)
    u = basis_red = None
    if reduce_delta is None:
        factor = gram_factor(_gram(x, mu))
    else:
        reduced = lll_reduce(_stack(x, mu), reduce_delta)
        u, basis_red = reduced.u, reduced.basis_red
        factor = gram_factor(_gram(basis_red))
    route = "cholesky"
    if factor is None:
        f = ql_decompose(_stack(x, mu) if basis_red is None else basis_red)
        factor, route = (f.l, f.l_inv, f.cond), "qr"
    return SolverBasis(x, mu, *factor, route, u, basis_red)


def _gram(b: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """b^T b + mu^2 I.  An overflow is left to gram_factor, whose
    factorization fails on it."""
    with np.errstate(over="ignore"):
        h = b.T @ b
        if mu:
            h[np.diag_indices_from(h)] += mu * mu
    return h


# The last basis _cached_basis factored: (key, private copy of x, basis).
# It is one tuple, replaced whole, so a reader never pairs one call's key
# with another call's basis.
_last_basis: tuple | None = None


def _cached_basis(x: np.ndarray, mu: float | str) -> SolverBasis:
    """_factor_basis(x, mu) through a one-entry memo, for cross_layer_target
    on an x that check_matrix has returned.  A call with the configured mu,
    the shape, the memory order and the bits of x of the previous call gets
    that call's basis back; any other call factors again.  The basis is
    built on a private copy of x and its arrays are read-only, so no write
    to the caller's array or to the result can reach the memo.  An x that
    is neither C- nor F-contiguous is not memoized, since a contiguous copy
    could change the bits of its products.  A hit repeats no warning.  The
    memo holds the copy and the basis until the next miss or
    clear_basis_memo()."""
    global _last_basis
    if x.flags.c_contiguous:
        order = "C"
    elif x.flags.f_contiguous:
        order = "F"
    else:
        return _factor_basis(x, mu)
    key = (mu if isinstance(mu, str) else float(mu).hex(), x.shape, order)
    last = _last_basis
    if (last is not None and last[0] == key
            and np.array_equal(last[1].view(np.uint64), x.view(np.uint64))):
        return last[2]
    x = np.copy(x)  # order "K": the same memory order as the caller's
    sb = _factor_basis(x, mu)
    for a in (sb.x, sb.l, sb.l_inv):
        a.setflags(write=False)
    _last_basis = key, x, sb
    return sb


def clear_basis_memo() -> None:
    """Release the basis _cached_basis holds; the next call factors."""
    global _last_basis
    _last_basis = None


def _gptq_rows(l_inv: np.ndarray, w: np.ndarray,
               history: list[np.ndarray] | None = None, alpha: float = 1.0):
    """The sequential loop for the rows of w / alpha at once (divided in
    the working array, so no scaled copy of w is held): round column i,
    then shift the remaining coordinates along column i of L^-1 so the
    already-fixed ones are untouched.  No later step reads column i, so
    the working array ends up holding the pre-rounding coefficients and v
    is their rounding (in exact arithmetic the update would set column i
    to v_i).

    GPTQ's lazy batch updates: the loop runs in blocks of SWEEP_BLOCK
    columns.  Step i shifts only the rest of its block by
    (v_i - c_i) / L^-1_ii times column i of L^-1, and after the block the
    columns past it take all of its shifts in one product per row.  For
    n <= SWEEP_BLOCK that is the plain one-step-at-a-time loop; past that
    the coefficients differ from it in the last bits, and a row's bits
    still do not depend on the other rows.  history, when given, collects
    the first row's w^(0) .. w^(n), whose first i entries are v_1 .. v_i;
    a run that keeps it is one block, so it holds the plain loop's bits."""
    coeffs = np.array(np.asarray(w, dtype=float).T, order="C")  # row i holds coordinate i
    coeffs /= alpha
    n = coeffs.shape[0]
    block = n if history is not None else SWEEP_BLOCK
    l_inv_cols = np.ascontiguousarray(l_inv.T)  # row i holds column i of L^-1
    l_inv_diag = np.diag(l_inv)[:, None]
    if history is not None:
        history.append(coeffs[:, 0].copy())
    for s in range(0, n, block):
        e = min(s + block, n)
        for i in range(s, e):
            c = coeffs[i]
            coeffs[i + 1 : e] += l_inv_cols[i, i + 1 : e, None] * ((np.rint(c) - c) / l_inv[i, i])
            if history is not None:
                history.append(np.concatenate([np.rint(coeffs[: i + 1, 0]), coeffs[i + 1 :, 0]]))
        if e < n:
            c = coeffs[s:e]
            coeffs[e:] += block_update((np.rint(c) - c) / l_inv_diag[s:e], l_inv_cols[s:e, e:])
    del l_inv_cols, c  # c views the working array: both go before the rounding
    coeffs = np.ascontiguousarray(coeffs.T)
    return rows_to_int64(np.rint(coeffs)), coeffs


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


def _row_errors(sb: SolverBasis, v: np.ndarray, alpha: float,
                w: np.ndarray | None = None, t: np.ndarray | None = None):
    """alpha ||t_r / alpha - X_solver d_r|| per row, d_r = v_r - w_r / alpha
    (v_r where w is None), over the k rows of the original X and over all
    rows of the regularized one.  t_r covers X's rows (a cross-layer
    target) or all of X_solver's (the in-span target of a reduced run) and
    is zero past its end; t = None is zero.

    The residual over X's k rows is taken ROW_BLOCK rows at a time, one
    product per block, and d and t / alpha are formed a block at a time,
    so none of the m x k residual, the m x n difference and the scaled
    target is held whole; t itself is never written.  The
    regularized error is hypot(||r_r||, ||t_r - mu d_r|| on the mu * I
    block), which keeps l2_norm's guard against overflow.  A row's bits
    can depend on the block it falls in (a one-row block is a
    vector-matrix product, a larger one a matrix product), so the errors
    of one row solved alone may differ from its errors in an m-row run in
    the last bits; v and the coefficients do not."""
    x = sb.x
    k = x.shape[0]
    err = np.empty(v.shape[0])
    err_reg = np.empty(v.shape[0])
    for s in range(0, v.shape[0], ROW_BLOCK):
        e = s + ROW_BLOCK
        d = np.asarray(v[s:e], dtype=float) if w is None else v[s:e] - w[s:e] / alpha
        r = -(d @ x.T)
        r_mu = sb.mu * d
        if t is not None:
            r += t[s:e, :k] / alpha
            if t.shape[1] > k:
                r_mu -= t[s:e, k:] / alpha
        err[s:e] = l2_norm(r, axis=1)
        err_reg[s:e] = np.hypot(err[s:e], l2_norm(r_mu, axis=1))
    return alpha * err, alpha * err_reg


def _pull_back(sb: SolverBasis, t: np.ndarray, alpha: float):
    """Rows p_r = L^-T B^T t_r / alpha (t_r's coordinates on the
    Gram-Schmidt directions of the basis B) and w_r = L^-1 p_r (its
    least-squares coefficients); t_r is zero past its end.  Each row takes
    its own products, so its bits do not depend on the other rows, on t_r
    divided by a power of two, so B^T t of large data does not overflow.
    Raises ValueError where p or w pass the float range."""
    b_t = (sb.x if sb.basis_red is None else sb.basis_red)[: t.shape[1]].T
    p = np.empty((t.shape[0], sb.l.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for r, row in enumerate(t):
            scale = power_of_two_scale(row)
            p[r] = sb.l_inv.T @ (b_t @ (row / scale)) * scale / alpha
        w = _row_products(sb.l_inv, p)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
        raise ValueError(f"the target's coordinates t / alpha overflow at alpha = {alpha!r}; "
                         "use a larger alpha")
    return p, w


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
    err, err_reg = _row_errors(sb, v, 1.0, w)
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
    v, rep = quantize_matrix(check_vector(w, name="w")[None, :], x, cfg)
    return _one_row(v, rep, cfg.alpha, [j for _, j in rep.fragile])


def _one_row(v, rep, alpha: float, fragile: list[int]) -> QuantResult:
    """The QuantResult of a one-row run."""
    return QuantResult(v=v[0], values=alpha * v[0].astype(float),
                       error_l2=float(rep.row_errors[0]),
                       error_regularized=float(rep.row_errors_regularized[0]),
                       step_coeffs=rep.step_coeffs[0], fragile=fragile)


@dataclass(eq=False)
class MatrixQuantReport:
    """Per-row errors and diagnostics for a whole-matrix run.

    route and cond are the factorization's (see SolverBasis).
    timings_ms holds quantize_matrix's wall times in milliseconds:
    "factor" (validation, regularization, any reduction and the
    factorization) and "solve" (the sweep and the errors)."""

    row_errors: np.ndarray
    row_errors_regularized: np.ndarray
    total_error_l2: float
    total_error_regularized: float
    fragile: list[tuple[int, int]]
    step_coeffs: np.ndarray
    mu: float
    l_diag: np.ndarray
    route: str
    cond: float
    timings_ms: dict[str, float] = field(default_factory=dict)


def quantize_matrix(weights, x, cfg: QuantConfig = QuantConfig(),
                    reduce_delta: float | None = None, x_target=None
                    ) -> tuple[np.ndarray, MatrixQuantReport]:
    """Quantize every row of a weight matrix against shared calibration
    data, factoring the (regularized) calibration matrix once.

    Row w aims at X_solver w, or with x_target (shaped like x) at
    x_target @ w: a cross-layer target off the span of x, zero on the
    mu * I rows, so x_target = x is not the default target when mu > 0.
    With reduce_delta the basis is first LLL-reduced with that parameter,
    and v maps back through the exact unimodular transform.  An off-span
    target, or any target on a reduced basis B, is pulled back row by row
    to p = L^-T B^T t / alpha, which the nearest-plane sweep reads, and
    w = L^-1 p, which the parameter-space loop reads; otherwise the
    coefficients are w / alpha.  row_errors are alpha ||t/alpha - X v||
    (for an in-span target alpha ||X (w/alpha - v)||), the regularized
    ones take X_solver, and each total is the root of the rows' squares."""
    start = time.perf_counter()
    weights, x, x_target = _check_layer(weights, x, x_target)
    sb = _factor_basis(x, cfg.mu, reduce_delta)
    factored = time.perf_counter()
    t = None if x_target is None else _row_products(x_target, weights)
    v, report = _solve_rows(sb, weights, cfg, t)[:2]
    report.timings_ms = {"factor": (factored - start) * 1e3,
                         "solve": (time.perf_counter() - factored) * 1e3}
    return v, report


def _check_layer(weights, x, x_target=None):
    """Validate a layer's weights, calibration data and target data."""
    weights = check_matrix(weights, "weights")
    x = check_matrix(x, "x")
    if weights.shape[1] != x.shape[1]:
        raise ValueError(
            f"weights have {weights.shape[1]} columns, calibration has {x.shape[1]}"
        )
    if x_target is not None:
        x_target = check_matrix(x_target, "x_target")
        if x_target.shape != x.shape:
            raise ValueError(f"x_target and x shapes differ: {x_target.shape} vs {x.shape}")
    return weights, x, x_target


def _row_products(a: np.ndarray, rows: np.ndarray, scale: float | None = None) -> np.ndarray:
    """The rows a @ r, or a @ (r / scale), for the rows r of rows, written
    into one array as they are formed.  One product per row keeps each
    row's bits independent of m."""
    out = np.empty((rows.shape[0], a.shape[0]))
    for i, r in enumerate(rows):
        out[i] = a @ (r if scale is None else r / scale)
    return out


def _solve_rows(sb: SolverBasis, weights: np.ndarray, cfg: QuantConfig,
                t: np.ndarray | None = None):
    """quantize_matrix on the factored basis sb, aiming the rows at the
    target rows t (None: in the span, X_solver w).  Also returns v before
    the clamp and, for a target t, the rows' least-squares coefficients on
    the basis the solver ran on (None in the span, where they are
    weights / alpha).  Raises ValueError, before any sweep, where
    weights / alpha overflow.

    The rows solved are w_rows / scale: weights / alpha in the span, the
    pulled-back coefficients for a target.  The kernels divide their own
    working arrays and the errors a row block at a time, so no scaled copy
    of the weights is held."""
    # division is monotone, so weights / alpha overflows at the largest |w| if anywhere
    with np.errstate(over="ignore"):  # an overflow is refused below
        w_peak = max(-weights.min(), weights.max()) / cfg.alpha
    if not np.isfinite(w_peak):
        raise ValueError(f"weights / alpha overflow at alpha = {cfg.alpha!r}; "
                         "use a larger alpha")
    w_rows, scale, p, w_pulled = weights, cfg.alpha, None, None
    if t is None and sb.u is not None:
        t = _row_products(sb.x_solver, weights)
    if t is not None:
        p, w_pulled = _pull_back(sb, t, cfg.alpha)
        w_rows, scale = w_pulled, 1.0
    if cfg.algorithm == "gptq":
        v, coeffs = _gptq_rows(sb.l_inv, w_rows, alpha=scale)
    elif cfg.algorithm == "babai":
        if p is None:
            p = _row_products(sb.l, w_rows, scale)
        v, coeffs = nearest_plane_rows(sb.l, p)
    else:
        v, coeffs = _recursive_rows(sb.basis, w_rows / scale, cfg.algorithm)
    if sb.u is not None:
        v = map_solution(sb.u, v)
    v_out = v if cfg.clamp is None else np.clip(v, *cfg.clamp)
    # in the span: t / alpha - X_solver v_out = X_solver (w / alpha - v_out)
    row_err, row_err_reg = _row_errors(sb, v_out, cfg.alpha,
                                       weights if t is None else None, t)
    n = sb.x.shape[1]
    report = MatrixQuantReport(
        row_errors=row_err,
        row_errors_regularized=row_err_reg,
        total_error_l2=float(l2_norm(row_err)),
        total_error_regularized=float(l2_norm(row_err_reg)),
        fragile=[divmod(j, n) for j in fragile_indices(coeffs.ravel(), cfg.tie_tol)],
        step_coeffs=coeffs,
        mu=sb.mu,
        l_diag=np.diag(sb.l).copy(),
        route=sb.route,
        cond=sb.cond,
    )
    return v_out, report, v, w_pulled


def compare_algorithms(weights, x, cfg: QuantConfig = QuantConfig()
                       ) -> tuple[dict, list[list[int]], list[bool], QuantResult]:
    """Run the four algorithms (whatever cfg.algorithm says) over the rows
    of weights on one factorization of x.  Returns runs, each algorithm's
    v and report, whose row r has scaled_quantize's v, coefficients and
    fragile set on that row; fragile[r], the coordinates of row r any run
    flags; agree[r], whether the runs agree on row r off those; and last,
    gptq on the last row alone: the error of an m-row product can round
    differently from scaled_quantize's one-row product."""
    weights, x, _ = _check_layer(weights, x)
    sb = _factor_basis(x, cfg.mu)
    runs = {a: _solve_rows(sb, weights, dataclasses.replace(cfg, algorithm=a))[:2]
            for a in ALGORITHMS}
    flagged = np.zeros(weights.shape, dtype=bool)
    for _, rep in runs.values():
        for r, j in rep.fragile:
            flagged[r, j] = True
    agree = np.all([(v == runs["gptq"][0]) | flagged for v, _ in runs.values()], axis=(0, 2))
    v, rep = _solve_rows(sb, weights[-1:], dataclasses.replace(cfg, algorithm="gptq"))[:2]
    last = _one_row(v, rep, cfg.alpha, [j for _, j in rep.fragile])
    return runs, [np.flatnonzero(f).tolist() for f in flagged], agree.tolist(), last


@dataclass(eq=False)
class CrossLayerResult:
    """Both solution routes for a cross-layer target, plus diagnostics.

    result is the nearest-plane solve; v_gptq_route is the parameter-space
    loop's answer for w_hat, the target's least-squares pull-back.  They
    agree on every non-fragile coordinate.  off_span_residual is
    ||X w - alpha X_hat w_hat||, the part no lattice vector can reach, and
    projected_error the solve's error against the projected target."""

    result: QuantResult
    w_hat: np.ndarray
    v_gptq_route: np.ndarray
    routes_agree: bool
    off_span_residual: float
    projected_error: float


def cross_layer_target(x, x_hat, w, cfg: QuantConfig = QuantConfig()) -> CrossLayerResult:
    """Quantize one row against the lattice of x_hat while aiming at
    t = x @ w: quantize_matrix(w[None, :], x_hat, cfg, x_target=x) with the
    nearest-plane sweep, whatever cfg.algorithm says.

    On the same factorization it also runs the other route, the
    parameter-space loop on the least-squares pull-back w_hat, and
    compares the two before the clamp.  t is zero on the mu * I rows,
    which keeps the routes exactly equivalent for every mu >= 0.
    Consecutive calls on the same x_hat and mu share one factorization
    (_cached_basis)."""
    x = check_matrix(x, "x")
    x_hat = check_matrix(x_hat, "x_hat")
    if x.shape != x_hat.shape:
        raise ValueError(f"x and x_hat shapes differ: {x.shape} vs {x_hat.shape}")
    w = check_vector(w, x.shape[1], "w")
    sb = _cached_basis(x_hat, cfg.mu)
    t = x @ w
    v, rep, (v_b,), (w_hat,) = _solve_rows(
        sb, w[None, :], dataclasses.replace(cfg, algorithm="babai"), t[None, :])
    (v_g,), (coeffs_g,) = _gptq_rows(sb.l_inv, w_hat[None, :])
    fragile = sorted({j for _, j in rep.fragile} | set(fragile_indices(coeffs_g, cfg.tie_tol)))
    result = _one_row(v, rep, cfg.alpha, fragile)
    projected = x_hat @ (cfg.alpha * w_hat)
    return CrossLayerResult(
        result=result, w_hat=w_hat, v_gptq_route=v_g,
        routes_agree=set(np.flatnonzero(v_b != v_g).tolist()) <= set(fragile),
        off_span_residual=float(l2_norm(t - projected)),
        projected_error=float(l2_norm(projected - x_hat @ result.values)),
    )
