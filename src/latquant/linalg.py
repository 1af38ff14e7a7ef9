"""Dense factorization kernels the rest of the library is built on.

Matrices are plain 2-D float64 numpy arrays.  The central object is the
lower-triangular L with positive diagonal and L^T L = X^T X: the diagonal
entries of L are the lengths of the Gram-Schmidt vectors taken from the
last column backwards, and they drive both the solvers and the error
bounds downstream.  The solvers need only L, so gram_factor takes it from
a Cholesky factorization of the small n x n Gram matrix.  Forming that
matrix squares the condition number, so past GRAM_COND_MAX (and whenever
the Cholesky factorization fails) L comes from the QL factorization
X = Q L instead, which ql_decompose computes by Householder QR; the
reference and oracle code, which also needs Q, always uses it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrcon

# Relative threshold on the diagonal of L below which input columns are
# treated as dependent.  Scale-relative so badly scaled data behaves.
RANK_TOL = 1e-10

# Relative symmetry tolerance for Cholesky input.
SYM_TOL = 1e-10

# Condition-number trigger for the ill-conditioning warning.
COND_WARN = 1e12

# Largest estimated condition number of L that gram_factor accepts.  In a
# sweep over random 64 x 32 inputs X with weights in [-8, 8], the solver
# coefficients from the Cholesky factor stayed within 1.3e-11 of the QR
# factor's at cond(X) = 1e3 but drifted to 1e-9 at 1e4, past a tenth of
# the default tie tolerance.  The estimate reads 1.5 to 10 times cond(X)
# there (about 30 times at n = 256 to 512), so the gate errs towards QR.
GRAM_COND_MAX = 1e3


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


@dataclass(eq=False)
class QLFactors:
    """Factors of X = Q L.

    q: k x n with orthonormal columns.
    l: n x n lower triangular with positive diagonal (exact zeros above).
    l_inv is computed lazily on first access and cached.
    """

    q: np.ndarray
    l: np.ndarray

    @cached_property
    def l_inv(self) -> np.ndarray:
        return invert_lower_triangular(self.l)

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.l)


def ql_decompose(x, rank_tol: float = RANK_TOL) -> QLFactors:
    """Factor x (k x n, k >= n, full column rank) as Q L.

    Computed by running a Householder QR on the column-reversed input and
    reversing back; the diagonal of L is forced positive by flipping signs
    of the corresponding Q columns / L rows.  Deterministic for identical
    input bits.

    Raises RankDeficient when the smallest diagonal of L falls below
    rank_tol times the largest (or when k < n).
    """
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
    l = np.tril(l)  # the strict upper part is zero; drop -0.0 from sign flips

    d = np.diag(l)
    dmax = d.max() if n else 0.0
    bad = np.flatnonzero(d <= rank_tol * dmax)
    if dmax <= 0.0:
        raise RankDeficient(0)
    if bad.size:
        raise RankDeficient(int(bad[0]))
    # Q is orthonormal, so cond(X) == cond(L).
    if _cond_estimate(l) > COND_WARN:
        warnings.warn(
            f"input condition number exceeds {COND_WARN:.0e}; "
            "consider a larger regularizer mu",
            IllConditionedWarning,
            stacklevel=2,
        )
    return QLFactors(q=q, l=l)


def _cond_estimate(l: np.ndarray) -> float:
    """1-norm condition number of lower-triangular l as estimated by
    LAPACK trcon in O(n^2); inf when l is singular or not finite."""
    rcond, _ = dtrcon(l, norm="1", uplo="L")
    return 1.0 / rcond if rcond > 0 else math.inf


def gram_factor(h) -> np.ndarray | None:
    """Lower-triangular L with positive diagonal and L^T L = h.

    h is a Gram matrix X^T X; the Cholesky factorization of h with rows
    and columns reversed gives, reversed back and transposed, the L of
    ql_decompose(X) up to rounding.  Returns None when the factorization
    fails or L's estimated condition number exceeds GRAM_COND_MAX: there
    the squared conditioning of h costs too many digits, and the caller
    should factor X itself."""
    c, info = dpotrf(np.asarray(h, dtype=float)[::-1, ::-1], lower=1, clean=1)
    if info != 0:
        return None
    l = np.ascontiguousarray(c.T[::-1, ::-1])
    if _cond_estimate(l) > GRAM_COND_MAX:
        return None
    return l


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
    inv = solve_triangular(l, np.eye(n), lower=True)
    return np.tril(inv)


def cholesky_spd(a, sym_tol: float = SYM_TOL) -> np.ndarray:
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
    if np.abs(a - a.T).max() > sym_tol * max(scale, 1.0):
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

