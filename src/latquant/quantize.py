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
product per row.  With a cross-layer target it also runs the other route
on every row, the check that GPTQ is Babai's nearest plane.  The
single-row functions are its one-row calls (cross_layer_target the
cross-layer one, on the nearest-plane sweep), and compare_algorithms
runs all four over a layer's rows on one factorization.  One row
(m == 1) takes the kernels' one-row path on Python floats, with the bits
of the array loop (see lattice.py).  For callers that quantize a layer
row by row, cross_layer_target keeps the last lattice it factored and
its triangles as lists (_cached_basis) while x_hat and mu stay the same.

Rank-deficient calibration data (in particular k < n) is handled by
stacking mu * I under X, which adds mu^2 to every eigenvalue of X^T X;
mu -> infinity degenerates to plain round(w).  The Cholesky route adds
mu^2 to the diagonal of X^T X and never forms the stack; only the QR
fallback and the recursive reference solvers build it.  LLL reduction
runs on the n x n factor L of the stack (X_solver = Q L: the lattices of
their columns are isometric).  Reported errors always refer to the
original X, with the regularized objective carried separately.  The
alphabet alpha * Z is handled by solving for w / alpha, and an optional
[lo, hi] clamp is applied to v after the full run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (
    SWEEP_BLOCK,
    RowSweep,
    _fragile_mask,
    block_update,
    fragile_indices,
    nearest_plane_rows,
    row_sweep,
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
    clamp:     optional inclusive integer interval applied to v after the
               full sequential run.
    algorithm: one of gptq | gptq_rec | babai | babai_proj_rec.

    Rounding is always half-to-even (ties to even).
    """

    mu: float | str = 0.0
    alpha: float = 1.0
    clamp: tuple[int, int] | None = None
    algorithm: str = "gptq"

    def __post_init__(self):
        if self.mu != "auto":
            if (not isinstance(self.mu, (int, float)) or not math.isfinite(self.mu)
                    or self.mu < 0):
                raise ValueError(f"mu must be finite and >= 0 or 'auto', got {self.mu!r}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.clamp is not None:
            lo, hi = self.clamp
            if not all(isinstance(b, (int, np.integer)) and not isinstance(b, bool)
                       for b in self.clamp):
                raise ValueError(f"clamp bounds must be integers, got {self.clamp!r}")
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
    with positive diagonal and l^T l = X^T X + mu^2 I, or after LLL
    reduction B^T B for the n x n reduced basis B = L u (L that factor, u
    the exact unimodular transform and u_inv its inverse; both None
    without reduction), and l_inv its inverse: all the solvers need.  cond
    is l's 1-norm condition number ||L||_1 ||L^-1||_1, read where l was
    factored.  The coordinates Q^T t of a point t on the Gram-Schmidt
    directions of x_solver @ u are l_inv^T u^T x^T t, so Q is never formed.
    l comes from the Cholesky factorization of that Gram matrix, or from
    the QL factorization of the basis when the Gram matrix fails
    linalg.gram_factor's conditioning gate (route reads "cholesky" or
    "qr"); either route inverts it once, with
    linalg.invert_lower_triangular's kernel.

    x_solver, the matrix the regularized objective is measured with (x
    with mu * I stacked under it, or x itself at mu = 0), is built on
    first use and is read-only when stacked.  basis is what the recursive
    reference solvers factor: x_solver, or after reduction l, whose
    columns span a lattice isometric to that of x_solver @ u."""

    x: np.ndarray
    mu: float
    l: np.ndarray
    l_inv: np.ndarray
    cond: float
    route: str
    u: np.ndarray | None = None
    u_inv: np.ndarray | None = None

    @cached_property
    def x_solver(self) -> np.ndarray:
        stacked = _stack(self.x, self.mu)
        if stacked is not self.x:
            stacked.setflags(write=False)
        return stacked

    @property
    def basis(self) -> np.ndarray:
        return self.x_solver if self.u is None else self.l

    @cached_property
    def l_sweep(self) -> RowSweep:
        """l as the one-row nearest-plane sweep reads it, built on first use."""
        return row_sweep(self.l)

    @cached_property
    def l_inv_sweep(self) -> RowSweep:
        """l_inv as the one-row GPTQ loop reads it, built on first use."""
        return row_sweep(self.l_inv)


def solver_basis(x, mu: float | str, reduce_delta: float | None = None) -> SolverBasis:
    """Validate x, resolve and apply the regularizer, factor the basis
    once and, with reduce_delta, LLL-reduce it with that parameter
    (reduce_basis).

    Where gram_factor declines the Gram matrix X^T X + mu^2 I, the QL
    factorization of the stacked basis supplies l and l_inv and raises
    RankDeficient or warns IllConditionedWarning as the input calls for;
    on a reduced run the warning is judged on the reduced basis alone."""
    return _factor_basis(check_matrix(x, "x"), mu, reduce_delta)


def _factor_basis(x: np.ndarray, mu: float | str,
                  reduce_delta: float | None = None) -> SolverBasis:
    """solver_basis on an x that check_matrix has already returned, so
    its caller's validation is the only pass over x."""
    mu = resolve_mu(x, mu)
    sb = SolverBasis(x, mu, *_factor(x, mu, warn=reduce_delta is None))
    return sb if reduce_delta is None else reduce_basis(sb, reduce_delta)


def reduce_basis(sb: SolverBasis, delta: float) -> SolverBasis:
    """sb's lattice LLL-reduced with parameter delta: lll_reduce runs on
    the n x n factor L, whose columns span a lattice isometric to that of
    x_solver's, and the reduced basis L u is factored as x was.  No step
    reads more than n x n data."""
    reduced = lll_reduce(sb.l, delta)
    return SolverBasis(sb.x, sb.mu, *_factor(reduced.basis_red), reduced.u, reduced.u_inv)


def _factor(b: np.ndarray, mu: float = 0.0, warn: bool = True):
    """l, l_inv, cond and route of the basis [b; mu I].  The Cholesky
    route forms b^T b and adds mu^2 to its diagonal, and the Gram matrix
    goes to gram_factor as its only reference, so it is freed once
    factored; the stack is built only for the QR fallback, which raises
    RankDeficient and, with warn, warns IllConditionedWarning."""
    factor = gram_factor(_gram(b, mu))
    if factor is not None:
        return (*factor, "cholesky")
    f = (ql_decompose if warn else _ql_factors)(_stack(b, mu))
    return f.l, f.l_inv, f.cond, "qr"


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
    sb = _memo_hit(x, mu)
    if sb is not None:
        return sb
    key = _memo_key(x, mu)
    if key is None:
        return _factor_basis(x, mu)
    x = np.copy(x)  # order "K": the same memory order as the caller's
    sb = _factor_basis(x, mu)
    for a in (sb.x, sb.l, sb.l_inv):
        a.setflags(write=False)
    _last_basis = key, x, sb
    return sb


def _memo_key(x: np.ndarray, mu: float | str) -> tuple | None:
    """The memo's key for x and mu; None for an x it does not keep."""
    if x.flags.c_contiguous:
        order = "C"
    elif x.flags.f_contiguous:
        order = "F"
    else:
        return None
    return mu if isinstance(mu, str) else float(mu).hex(), x.shape, order


def _memo_hit(x, mu: float | str) -> SolverBasis | None:
    """The basis the memo holds for x and mu, or None.  x may be any input,
    checked or not: only a float64 ndarray is compared, and one whose key
    and bits equal those of the memo's copy, which check_matrix has passed,
    is itself a valid calibration matrix."""
    last = _last_basis
    if last is None or type(x) is not np.ndarray or x.dtype != np.float64:
        return None
    if last[0] == _memo_key(x, mu) and np.array_equal(last[1].view(np.uint64),
                                                      x.view(np.uint64)):
        return last[2]
    return None


def clear_basis_memo() -> None:
    """Release the basis _cached_basis holds; the next call factors."""
    global _last_basis
    _last_basis = None


def _gptq_rows(l_inv: np.ndarray, w: np.ndarray,
               history: list[np.ndarray] | None = None, alpha: float = 1.0,
               sweep: RowSweep | None = None):
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
    a run that keeps it is one block, so it holds the plain loop's bits.

    One row (m == 1) without a history is swept on Python floats
    (_gptq_row), on sweep, lattice.row_sweep(l_inv) when not given; other
    calls run the array loop.  A coefficient that leaves the float range
    ends in IntegerOverflow, with no warning, on either path."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        coeffs = None
        if w.shape[0] == 1 and history is None:
            coeffs = _gptq_row(row_sweep(l_inv) if sweep is None else sweep, w[0] / alpha)
        if coeffs is None:
            coeffs = _gptq_array(l_inv, w, history, alpha)
        return rows_to_int64(np.rint(coeffs)), coeffs


def _gptq_array(l_inv: np.ndarray, w: np.ndarray, history: list[np.ndarray] | None,
                alpha: float) -> np.ndarray:
    """_gptq_rows' coefficients, one numpy step for all rows."""
    coeffs = np.array(w.T, order="C")  # row i holds coordinate i
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
    del l_inv_cols, c  # c views the working array: both go before the transposed copy
    return np.ascontiguousarray(coeffs.T)


def _gptq_row(sweep: RowSweep, w: np.ndarray) -> np.ndarray | None:
    """_gptq_rows' coefficients for the one row w (already divided by
    alpha), on Python floats.  Coefficient i takes the array loop's
    additions of L^-1_ij f_j, f_j = (v_j - c_j) / L^-1_jj, j from the
    start of its block up to i, in the same order: the same IEEE
    operations, so the same bits (an integer v_j from round gives
    v_j - c_j np.rint's bits, signed zeros included).  Past each block
    block_update runs as in the array loop.  None where a coefficient
    leaves the float range, for the array loop to report."""
    c = w.tolist()
    n = len(c)
    out = []
    try:
        for s in range(0, n, SWEEP_BLOCK):
            e = min(s + SWEEP_BLOCK, n)
            f = []
            for ci, row, d in zip(c[s:e], sweep.rows[s:e], sweep.diag[s:e]):
                for a, b in zip(row, f):
                    ci += a * b
                out.append(ci)
                f.append((round(ci) - ci) / d)
            if e < n:
                past = block_update(np.array(f)[:, None], sweep.cols[s:e, e:])
                c[e:] = (np.array(c[e:]) + past[:, 0]).tolist()
    except (OverflowError, ValueError, ZeroDivisionError):  # round(inf), round(nan), x / 0
        return None
    return np.array([out])


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
    rows of the regularized one.  t_r covers X's rows and is zero on the
    mu * I rows; t = None is zero.

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
    err = np.empty(v.shape[0])
    err_reg = np.empty(v.shape[0])
    for s in range(0, v.shape[0], ROW_BLOCK):
        e = s + ROW_BLOCK
        d = np.asarray(v[s:e], dtype=float) if w is None else v[s:e] - w[s:e] / alpha
        r = -(d @ x.T)
        r_mu = sb.mu * d
        if t is not None:
            r += t[s:e] / alpha
        err[s:e] = l2_norm(r, axis=1)
        err_reg[s:e] = np.hypot(err[s:e], l2_norm(r_mu, axis=1))
    return alpha * err, alpha * err_reg


def _pull_back(sb: SolverBasis, t: np.ndarray, alpha: float):
    """Rows p_r = L^-T u^T X^T t_r / alpha (t_r's coordinates on the
    Gram-Schmidt directions of the basis X_solver u, t_r zero on its
    mu * I rows and u = I without reduction) and w_r = L^-1 p_r (its
    least-squares coefficients).  Each row takes its own products, so its
    bits do not depend on the other rows, on t_r divided by a power of
    two, so X^T t of large data does not overflow.  Raises ValueError
    where p or w pass the float range."""
    g = sb.l_inv.T if sb.u is None else sb.l_inv.T @ np.asarray(sb.u, dtype=float).T
    x_t = sb.x.T
    p = np.empty((t.shape[0], sb.l.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for r, row in enumerate(t):
            scale = power_of_two_scale(row)
            p[r] = g @ (x_t @ (row / scale)) * scale / alpha
        w = _row_products(sb.l_inv, p)
    _check_coordinates(p, w, alpha)
    return p, w


def _check_coordinates(p: np.ndarray, w: np.ndarray, alpha: float) -> None:
    """Refuse coordinates past the float range, naming alpha."""
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
        raise ValueError(f"the target's coordinates t / alpha overflow at alpha = {alpha!r}; "
                         "use a larger alpha")


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
        fragile=fragile_indices(coeffs[0]),
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
    return _one_row(*quantize_matrix(check_vector(w, name="w")[None, :], x, cfg), cfg.alpha)


def _one_row(v, rep, alpha: float) -> QuantResult:
    """The QuantResult of a one-row run."""
    return QuantResult(v=v[0], values=alpha * v[0].astype(float),
                       error_l2=float(rep.row_errors[0]),
                       error_regularized=float(rep.row_errors_regularized[0]),
                       step_coeffs=rep.step_coeffs[0], fragile=[j for _, j in rep.fragile])


@dataclass(eq=False)
class MatrixQuantReport:
    """Per-row errors and diagnostics for a whole-matrix run.

    route and cond are the factorization's (see SolverBasis).
    timings_ms holds quantize_matrix's wall times in milliseconds:
    "factor" (validation, regularization, any reduction and the
    factorization) and "solve" (the sweeps and the errors).

    With x_target, the check that GPTQ is Babai's nearest plane, per row
    (all None without): w_hat, t / alpha pulled back to least-squares
    coefficients in V's coordinates; v_second_route, the other route's v
    before any clamp (GPTQ on w_hat after nearest plane, else nearest
    plane); routes_agree, whether the two v are equal off the coordinates
    either flags fragile; off_span_residual ||t - alpha x w_hat||, which no
    lattice vector can reach, and projected_error ||alpha x (w_hat - v)||."""

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
    w_hat: np.ndarray | None = None
    v_second_route: np.ndarray | None = None
    routes_agree: np.ndarray | None = None
    off_span_residual: np.ndarray | None = None
    projected_error: np.ndarray | None = None


def quantize_matrix(weights, x, cfg: QuantConfig = QuantConfig(),
                    reduce_delta: float | None = None, x_target=None
                    ) -> tuple[np.ndarray, MatrixQuantReport]:
    """Quantize every row of a weight matrix against shared calibration
    data, factoring the (regularized) calibration matrix once.

    Row w aims at X_solver w, or with x_target (shaped like x) at
    x_target @ w: a cross-layer target off the span of x, zero on the
    mu * I rows, so x_target = x is not the default target when mu > 0.
    With reduce_delta the factor is first LLL-reduced with that parameter
    (reduce_basis), the rows solved are u^-1 w / alpha, and v maps back
    through the exact unimodular transform u.  An off-span target is
    pulled back row by row to p = L^-T u^T X^T t / alpha, which the
    nearest-plane sweep reads, and w = L^-1 p, which the parameter-space
    loop reads (u = I without reduction).  row_errors are alpha ||t/alpha - X v||
    (for an in-span target alpha ||X (w/alpha - v)||), the regularized
    ones take X_solver, and each total is the root of the rows' squares.
    With x_target the run also takes the second route on every row, and
    the report carries its check; cross_layer_target is its one-row call."""
    start = time.perf_counter()
    weights, x, x_target = _check_layer(weights, x, x_target)
    sb = _factor_basis(x, cfg.mu, reduce_delta)
    factored = time.perf_counter()
    v, report = _solve_rows(sb, weights, cfg, x_target)
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


def _check_alpha(weights: np.ndarray, alpha: float) -> None:
    """Refuse weights / alpha past the float range, with a ValueError that
    names alpha.  Division is monotone, so it overflows at the largest |w|
    if anywhere."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        w_peak = max(-weights.min(), weights.max()) / alpha
    if not np.isfinite(w_peak):
        raise ValueError(f"weights / alpha overflow at alpha = {alpha!r}; "
                         "use a larger alpha")


def _route(sb: SolverBasis, algorithm: str, w_rows: np.ndarray, scale: float,
           p: np.ndarray | None):
    """v and the coefficients of algorithm on the rows w_rows / scale (or
    p, the rows' L^-T B^T t / alpha, for nearest plane) on sb's basis.
    One row sweeps on sb's triangles as lists, which the memo keeps."""
    one_row = w_rows.shape[0] == 1
    if algorithm == "gptq":
        return _gptq_rows(sb.l_inv, w_rows, alpha=scale,
                          sweep=sb.l_inv_sweep if one_row else None)
    if algorithm == "babai":
        if p is None:
            p = _row_products(sb.l, w_rows, scale)
        return nearest_plane_rows(sb.l, p, sb.l_sweep if one_row else None)
    return _recursive_rows(sb.basis, w_rows / scale, algorithm)


def _sweep_rows(sb: SolverBasis, weights: np.ndarray, cfg: QuantConfig, algorithm: str,
                x_target: np.ndarray | None = None):
    """Solve the rows of weights with algorithm on the factored basis sb,
    aiming at X_solver w, or at t = x_target @ w, and clamp them as cfg
    says.  Returns v after the clamp, the coefficients, the errors and
    regularized errors, and with x_target the route check: the report's
    five fields as a dict and the mask of the coordinates either route
    flags (None, None without).  Raises ValueError, before any sweep,
    where weights / alpha or the rows' coordinates overflow.  The rows
    solved are weights / alpha, u^-1 weights / alpha on a reduced basis, or
    a target's pulled-back coefficients; without reduction no scaled copy
    of the weights is held, and the second route runs after the errors'
    row blocks are freed."""
    _check_alpha(weights, cfg.alpha)
    w_rows, p, t = weights, None, None
    if x_target is not None:
        t = _row_products(x_target, weights)
        p, w_rows = _pull_back(sb, t, cfg.alpha)
    elif sb.u is not None:  # the rows u^-1 w / alpha and their coordinates L u^-1 w / alpha
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            w_rows = _row_products(np.asarray(sb.u_inv, dtype=float), weights, cfg.alpha)
            p = _row_products(sb.l, w_rows)
        _check_coordinates(p, w_rows, cfg.alpha)
    v, coeffs = _route(sb, algorithm, w_rows, cfg.alpha if p is None else 1.0, p)
    v_out = v if sb.u is None else map_solution(sb.u, v)
    v_out = v_out if cfg.clamp is None else np.clip(v_out, *cfg.clamp)
    # in the span: t / alpha - X_solver v_out = X_solver (w / alpha - v_out)
    row_err, row_err_reg = _row_errors(sb, v_out, cfg.alpha,
                                       weights if t is None else None, t)
    if x_target is None:
        return v_out, coeffs, row_err, row_err_reg, None, None
    # GPTQ = Babai: the other route on the same rows, compared before the map and clamp
    v_2, coeffs_2 = _route(sb, "gptq" if algorithm == "babai" else "babai", w_rows, 1.0, p)
    agree, flagged = _agreement([v, v_2], [coeffs, coeffs_2])
    if sb.u is not None:
        v_2 = map_solution(sb.u, v_2)
        w_rows = w_rows @ sb.u.astype(float).T
    off_span, projected = np.empty(v.shape[0]), np.empty(v.shape[0])
    for r, (t_r, w_r, v_r) in enumerate(zip(t, w_rows, v_out)):
        x_w = sb.x @ (cfg.alpha * w_r)
        off_span[r] = l2_norm(t_r - x_w)
        projected[r] = l2_norm(x_w - sb.x @ (cfg.alpha * v_r))
    check = {"w_hat": w_rows, "v_second_route": v_2, "routes_agree": agree,
             "off_span_residual": off_span, "projected_error": projected}
    return v_out, coeffs, row_err, row_err_reg, check, flagged


def _agreement(vs: list[np.ndarray], coeffs: list[np.ndarray]):
    """Whether runs agree, row by row: their v (m x n each) are equal off
    the coordinates any run flags fragile, from its coefficients.  Returns
    that per row and the m x n mask of the flagged coordinates."""
    flagged = np.logical_or.reduce([_fragile_mask(c) for c in coeffs])
    agree = np.logical_and.reduce([(v == vs[0]) | flagged for v in vs[1:]]).all(axis=1)
    return agree, flagged


def _solve_rows(sb: SolverBasis, weights: np.ndarray, cfg: QuantConfig,
                x_target: np.ndarray | None = None) -> tuple[np.ndarray, MatrixQuantReport]:
    """quantize_matrix on the factored basis sb: _sweep_rows with
    cfg.algorithm, and the run's report."""
    v_out, coeffs, row_err, row_err_reg, check, _ = _sweep_rows(sb, weights, cfg,
                                                                cfg.algorithm, x_target)
    n = sb.x.shape[1]
    report = MatrixQuantReport(
        row_errors=row_err, row_errors_regularized=row_err_reg,
        total_error_l2=float(l2_norm(row_err)),
        total_error_regularized=float(l2_norm(row_err_reg)),
        fragile=[divmod(j, n) for j in fragile_indices(coeffs.ravel())],
        step_coeffs=coeffs, mu=sb.mu, l_diag=np.diag(sb.l).copy(), route=sb.route,
        cond=sb.cond, **(check or {}))
    return v_out, report


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
    runs = {a: _solve_rows(sb, weights, dataclasses.replace(cfg, algorithm=a))
            for a in ALGORITHMS}
    agree, flagged = _agreement([v for v, _ in runs.values()],
                                [rep.step_coeffs for _, rep in runs.values()])
    last = _one_row(*_solve_rows(sb, weights[-1:], dataclasses.replace(cfg, algorithm="gptq")),
                    cfg.alpha)
    return runs, [np.flatnonzero(f).tolist() for f in flagged], agree.tolist(), last


@dataclass(eq=False)
class CrossLayerResult:
    """Both solution routes for a cross-layer target, plus diagnostics.

    result is the nearest-plane solve; v_gptq_route is the parameter-space
    loop's answer for w_hat, the target's least-squares pull-back; they
    agree on every non-fragile coordinate.  off_span_residual and
    projected_error are MatrixQuantReport's, for the row."""

    result: QuantResult
    w_hat: np.ndarray
    v_gptq_route: np.ndarray
    routes_agree: bool
    off_span_residual: float
    projected_error: float


def cross_layer_target(x, x_hat, w, cfg: QuantConfig = QuantConfig()) -> CrossLayerResult:
    """Quantize one row against the lattice of x_hat while aiming at
    t = x @ w: quantize_matrix(w[None, :], x_hat, cfg, x_target=x) with the
    nearest-plane sweep, whatever cfg.algorithm says, and its route check
    for the row; result.fragile lists the coordinates either route flags.
    t is zero on the mu * I rows, which keeps the routes exactly
    equivalent for every mu >= 0.  The row takes the matrix solve's steps
    (_sweep_rows), refusals and bits, but builds no MatrixQuantReport.
    Consecutive calls on the same x_hat and mu share one factorization and
    its sweeps (_cached_basis); an x_hat the memo holds is not validated
    again, since its bits are those of the memo's checked copy."""
    x = check_matrix(x, "x")
    sb = _memo_hit(x_hat, cfg.mu)
    if sb is None:
        x_hat = check_matrix(x_hat, "x_hat")
    if x.shape != x_hat.shape:
        raise ValueError(f"x and x_hat shapes differ: {x.shape} vs {x_hat.shape}")
    w = check_vector(w, x.shape[1], "w")
    if sb is None:
        sb = _cached_basis(x_hat, cfg.mu)
    (v,), (coeffs,), err, err_reg, check, (flagged,) = _sweep_rows(sb, w[None, :], cfg,
                                                                   "babai", x)
    w_hat, v_gptq, agree, off_span, projected = (a[0] for a in check.values())
    result = QuantResult(v=v, values=cfg.alpha * v.astype(float), error_l2=float(err[0]),
                         error_regularized=float(err_reg[0]), step_coeffs=coeffs,
                         fragile=np.flatnonzero(flagged).tolist())
    return CrossLayerResult(result, w_hat, v_gptq, bool(agree), float(off_span), float(projected))
