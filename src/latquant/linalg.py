"""Dense factorization kernels the rest of the library is built on.

Matrices are plain 2-D float64 numpy arrays.  The central object is the
lower-triangular L with positive diagonal and L^T L = X^T X: the diagonal
entries of L are the lengths of the Gram-Schmidt vectors taken from the
last column backwards, and they drive both the solvers and the error
bounds downstream.  The solvers need only L and L^-1, so gram_factor
takes L from a Cholesky factorization of the small n x n Gram matrix and
inverts it once.  Forming that matrix squares the condition number, so
past GRAM_COND_MAX (and whenever the Cholesky factorization fails) L
comes from the QL factorization X = Q L instead, which ql_decompose
computes by Householder QR; the reference code built on LatticeBasis,
which also needs Q, always uses it.

Everything here is numpy: the factorizations are np.linalg's, and L^-1
is block substitution on matrix products, with np.linalg.inv on the
diagonal blocks.  Every triangular solve downstream is a product with
L^-1 or its transpose, and the 1-norm condition number that gates the
Gram route is read exactly from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative threshold on the diagonal of L below which input columns are
# treated as dependent.  Scale-relative so badly scaled data behaves.
RANK_TOL = 1e-10

# Relative symmetry tolerance for Cholesky input.
SYM_TOL = 1e-10

# Condition-number trigger for the ill-conditioning warning.
COND_WARN = 1e12

# Largest 1-norm condition number of L that gram_factor accepts.  In a
# sweep over random 64 x 32 inputs X with weights in [-8, 8], the solver
# coefficients from the Cholesky factor stayed within 1.3e-11 of the QR
# factor's at cond(X) = 1e3 but drifted to 1e-9 at 1e4, past a tenth of
# the default tie tolerance.  The 1-norm condition number of L reads 4 to
# 6.4 times the 2-norm cond(X) there (27 to 29 times at n = 256, 50 to 52
# at n = 512), so the gate errs towards QR.
GRAM_COND_MAX = 1e3

# Entries l2_norm squares at a time when it takes the norms of a matrix's
# rows: 64 KiB of squares, a sixteenth of _row_errors' block at k = 2048.
NORM_BLOCK = 1 << 13

# Rows per diagonal block of the triangular inverse: each block is inverted
# once, and the rest costs one matrix product per block.
SOLVE_BLOCK = 64


class RankDeficient(ValueError):
    """Columns are numerically dependent at the given diagonal index."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(
            message
            or f"rank deficient at column {index}: regularize (mu > 0) to proceed"
        )


class SingularDiagonal(ValueError):
    """A triangular factor has a (near-)zero diagonal entry."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"triangular factor has near-zero diagonal at index {index}")


class NotPositiveDefinite(ValueError):
    """A pivot of the Cholesky recursion was non-positive."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"matrix is not positive definite: pivot {index} <= 0")


class IllConditionedWarning(UserWarning):
    """Input has full numerical rank but an extreme condition number."""


def check_matrix(a, name: str = "matrix", min_rows: int = 1) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] < min_rows or a.shape[1] < 1:
        raise ValueError(f"{name} has invalid shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.size != length:
        raise ValueError(f"{name} has length {v.size}, expected {length}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def l2_norm(a, axis: int | None = None):
    """sqrt(sum(a ** 2)) along axis.  Where that sum overflows, the values
    are first divided by their largest magnitude, so a norm that float64
    can hold stays finite; every other result keeps the plain sum's bits.
    The row norms of a C-contiguous matrix (axis 1) are taken
    NORM_BLOCK entries' worth of rows at a time, so the squares are never
    held whole; each row's sum does not depend on the other rows."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 2 and axis in (1, -1) and a.flags.c_contiguous and a.size > NORM_BLOCK:
        out = np.empty(a.shape[0])
        step = max(1, NORM_BLOCK // a.shape[1])
        for s in range(0, a.shape[0], step):
            out[s : s + step] = _l2_norm(a[s : s + step], 1)
        return out
    return _l2_norm(a, axis)


def _l2_norm(a: np.ndarray, axis: int | None):
    with np.errstate(over="ignore"):
        plain = np.sqrt(np.sum(a ** 2, axis=axis))
    redo = ~np.isfinite(plain)
    if not redo.any():
        return plain
    peak = np.max(np.abs(a), axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = np.squeeze(peak, axis) * np.sqrt(np.sum((a / peak) ** 2, axis=axis))
    return np.where(redo & np.isfinite(rescaled), rescaled, plain)


def power_of_two_scale(*arrays) -> float:
    """A power of two near the largest magnitude in arrays: dividing by it
    brings that magnitude into [1, 2) and, for data in the normal float64
    range, changes no bits but the exponent, so products and sums of the
    scaled data are the unscaled ones divided exactly, and cannot
    overflow where the unscaled ones would."""
    peak = max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)
    return math.ldexp(1.0, max(math.frexp(peak)[1] - 1, -1022))


@dataclass(eq=False)
class QLFactors:
    """Factors of X = Q L.

    q: k x n with orthonormal columns.
    l: n x n lower triangular with positive diagonal (exact zeros above).
    l_inv and cond, the 1-norm condition number ||L||_1 ||L^-1||_1, are
    computed on first access (ql_decompose's condition check) and cached.
    """

    q: np.ndarray
    l: np.ndarray

    @cached_property
    def l_inv(self) -> np.ndarray:
        return invert_lower_triangular(self.l)

    @cached_property
    def cond(self) -> float:
        return _cond_estimate(self.l, self.l_inv)

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.l)


def ql_decompose(x) -> QLFactors:
    """Factor x (k x n, k >= n, full column rank) as Q L.

    Computed by running a Householder QR on the column-reversed input and
    reversing back; the diagonal of L is forced positive by flipping signs
    of the corresponding Q columns / L rows.  Deterministic for identical
    input bits.

    Raises RankDeficient when the smallest diagonal of L falls below
    RANK_TOL times the largest (or when k < n), and warns
    IllConditionedWarning past COND_WARN.
    """
    factors = _ql_factors(x)
    # Q is orthonormal, so cond(X) == cond(L).
    if factors.cond > COND_WARN:
        warnings.warn(
            f"input condition number exceeds {COND_WARN:.0e}; "
            "consider a larger regularizer mu",
            IllConditionedWarning,
            stacklevel=2,
        )
    return factors


def _ql_factors(x) -> QLFactors:
    """ql_decompose without the condition check and warning."""
    x = check_matrix(x, "x")
    k, n = x.shape
    if k < n:
        raise RankDeficient(
            k, f"rank deficient: {k} rows cannot carry {n} independent columns; "
            "regularize (mu > 0) to proceed"
        )
    q, r = np.linalg.qr(x[:, ::-1], mode="reduced")
    q = np.ascontiguousarray(q[:, ::-1])
    l = np.ascontiguousarray(r[::-1, ::-1])
    signs = np.sign(np.diag(l))
    signs[signs == 0.0] = 1.0
    q *= signs
    l *= signs[:, None]
    _zero_upper(l)  # the strict upper part is zero; drop -0.0 from sign flips

    d = np.diag(l)
    dmax = d.max() if n else 0.0
    bad = np.flatnonzero(d <= RANK_TOL * dmax)
    if dmax <= 0.0:
        raise RankDeficient(0)
    if bad.size:
        raise RankDeficient(int(bad[0]))
    return QLFactors(q=q, l=l)


def _zero_upper(a: np.ndarray) -> None:
    """Set the strict upper triangle of square a to +0.0 in place, a row
    at a time: np.tril would copy a and build an n x n mask."""
    for i in range(a.shape[0] - 1):
        a[i, i + 1 :] = 0.0


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """The inverse of lower-triangular l with nonzero diagonal, by block
    forward substitution on the identity: each SOLVE_BLOCK-row block takes
    one product with the rows already solved and one with np.linalg.inv of
    its diagonal block, and is nan where that inverse overflows (np.linalg
    raises).  Entries that overflow come out inf or nan, which
    _cond_estimate reads as an infinite condition number."""
    n = l.shape[0]
    x = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, n, SOLVE_BLOCK):
            e = min(j + SOLVE_BLOCK, n)
            if j:
                x[j:e] -= l[j:e, :j] @ x[:j]
            try:
                x[j:e] = np.linalg.inv(l[j:e, j:e]) @ x[j:e]
            except np.linalg.LinAlgError:
                x[j:e] = np.nan
    _zero_upper(x)
    return x


def _cond_estimate(l: np.ndarray, l_inv: np.ndarray) -> float:
    """The 1-norm condition number ||L||_1 ||L^-1||_1 of lower-triangular
    l, exact given its inverse l_inv: two column sums, O(n^2).
    GRAM_COND_MAX and COND_WARN are compared with it.  inf when l is
    singular or not finite, or the product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        cond = _max_column_sum(l) * _max_column_sum(l_inv)
    return cond if math.isfinite(cond) else math.inf


def _max_column_sum(a: np.ndarray) -> float:
    """max_j sum_i |a_ij|, SOLVE_BLOCK rows of |a| at a time.  Each
    block's first row takes the sums so far, so every sum adds its rows
    in order, as np.abs(a).sum(axis=0) does, with the same bits."""
    sums = np.zeros(a.shape[1])
    for j in range(0, a.shape[0], SOLVE_BLOCK):
        rows = np.abs(a[j : j + SOLVE_BLOCK])
        rows[0] += sums
        sums = rows.sum(axis=0)
        del rows
    return float(sums.max())


def gram_factor(h) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Lower-triangular L with positive diagonal and L^T L = h, L^-1, and
    the 1-norm condition number ||L||_1 ||L^-1||_1 the gate read.

    h is a Gram matrix X^T X; the Cholesky factorization of h with rows
    and columns reversed gives, reversed back and transposed, the L of
    ql_decompose(X) up to rounding.  L^-1 is invert_lower_triangular's,
    bit for bit.  Returns None when the factorization fails or L's
    condition number exceeds GRAM_COND_MAX: there the squared
    conditioning of h costs too many digits, and the caller should factor
    X itself.  h and the Cholesky output are let go once L is formed, so
    h is freed there when the caller passed its only reference."""
    try:
        c = np.linalg.cholesky(np.asarray(h, dtype=float)[::-1, ::-1])
    except np.linalg.LinAlgError:
        return None
    del h
    l = np.ascontiguousarray(c.T[::-1, ::-1])
    del c
    l_inv = _lower_inverse(l)
    cond = _cond_estimate(l, l_inv)
    if cond > GRAM_COND_MAX:
        return None
    return l, l_inv, cond


def invert_lower_triangular(l) -> np.ndarray:
    """Invert a lower-triangular matrix with nonzero diagonal.

    The result is exactly lower triangular; l @ result reproduces the
    identity up to roundoff.
    """
    l = check_matrix(l, "l")
    n, m = l.shape
    if n != m:
        raise ValueError(f"l must be square, got shape {l.shape}")
    if np.any(np.triu(l, 1) != 0.0):
        raise ValueError("l is not lower triangular")
    d = np.diag(l)
    tol = np.finfo(float).eps * np.abs(d).max(initial=0.0)
    bad = np.flatnonzero(np.abs(d) <= tol)
    if bad.size:
        raise SingularDiagonal(int(bad[0]))
    return _lower_inverse(l)


def cholesky_spd(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Hand-rolled column recursion (kept independent of the QL path so the
    two factorization routes can cross-validate each other).  Raises
    NotPositiveDefinite with the index of the first non-positive pivot.
    """
    a = check_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ValueError(f"a must be square, got shape {a.shape}")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > SYM_TOL * max(scale, 1.0):
        raise ValueError("a is not symmetric within tolerance")

    l = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - l[j, :j] @ l[j, :j]
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NotPositiveDefinite(j)
        ljj = np.sqrt(pivot)
        l[j, j] = ljj
        if j + 1 < n:
            l[j + 1 :, j] = (a[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / ljj
    return l

