"""LLL basis reduction with exact unimodular tracking.

The solvers in this package sweep basis columns from first to last with
Gram-Schmidt taken from the LAST column backwards, so the reduction runs
in standard orientation on the column-reversed basis and is reversed
back afterwards.  That way the reduced basis feeds straight into the
nearest-plane / sequential solvers and its diag(L) profile is the one
the reduction actually controlled.

The Gram-Schmidt data lives in two arrays taken from one QL factorization
of the basis: the coefficients mu (unit lower triangular, n x n) and the
squared Gram-Schmidt norms B (n).  Size reduction is a row update of mu
and a swap an O(n) update of both (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 2.6.3), so no step forms a dot product of
basis vectors.  The decisions come in the textbook order: size-reduce
mu[k, j] for j = k-1 .. 0, rounding half to even, then the Lovasz test
on B[k]; each q and each swap is applied to the basis with the same float
operations as a loop that recomputes Gram-Schmidt from the basis vectors,
so where the decisions match, basis_red matches that loop's bit for bit.
The updates accumulate rounding, so the result is checked against a
fresh factorization and the reduction restarted from the current basis
where the check fails (Schnorr & Euchner 1994).

The change-of-basis matrix u and its inverse are tracked in exact
(arbitrary-precision) integer arithmetic; only the Gram-Schmidt data is
floating point.  A size-reduction step subtracts a multiple of one column
of u from another and adds the same multiple of one row of u^-1 to
another; a swap exchanges both, and moves no rows until a pass ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import IntegerOverflow, LatticeBasis, round_half_even
from .linalg import _ql_factors, check_matrix, power_of_two_scale

DEFAULT_DELTA = 0.99

_INT64_MAX = np.iinfo(np.int64).max

# map_solution multiplies in int64 when max|v_red| * max_i sum_j |u_ij|,
# computed in float, is at most this: below 2^53 every partial sum of that
# bound is an exact integer in float, and int64 has 2^10 to spare.
_INT64_SAFE_BOUND = 2.0 ** 53

# Slack of is_lll_reduced's tests on the float Gram-Schmidt data.
_LLL_CHECK_TOL = 1e-9

# The prime lll_reduce checks u @ u^-1 = I modulo where the product of the
# entries could pass 2^53; below 2^16, so the residues' float product is
# exact for n < 2^21.
_CHECK_PRIME = 65_521


@dataclass(eq=False)
class ReducedBasis:
    """basis_red = basis @ u with u unimodular (|det u| = 1), and
    u_inv = u^-1, so u @ u_inv = I exactly.

    u and u_inv have object dtype and hold exact Python integers.
    """

    basis_red: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    delta: float


def _gram_schmidt_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu and B of the rows of `rows`, in order, from one QL factorization:
    row i is sum_j mu[i, j] g_j with g_j the Gram-Schmidt vectors and
    B[j] = |g_j|^2.  Raises RankDeficient on dependent rows."""
    # QL of the rows taken last first is QR of the rows in order: R = L reversed
    r = _ql_factors(rows[::-1].T).l[::-1, ::-1]
    d = np.diag(r)
    return np.ascontiguousarray((r / d[:, None]).T), d * d


def _lll_pass(b: np.ndarray, u: np.ndarray, u_inv: np.ndarray, delta: float) -> bool:
    """One run of LLL on the rows of b from a fresh factorization,
    mirroring every row operation on u and its inverse on u_inv (row
    k -= q row j on b and u is row j += q row k on u_inv); all three are
    modified in place.  Returns whether any row changed.

    At row k the coefficients mu[k, j] are size-reduced for j = k-1 .. 0,
    each rounded half to even (only those with |mu[k, j]| > 1/2 round to a
    nonzero q); then the Lovasz test B[k] >= (delta - mu[k, k-1]^2) B[k-1]
    either accepts row k or swaps rows k-1 and k."""
    n = b.shape[0]
    mu, norms2 = _gram_schmidt_arrays(b)
    at = list(range(n))  # vector k is row at[k] of b and u: swaps move no rows
    changed = False
    k = 1
    while k < n:
        j = k
        while True:
            big = np.flatnonzero(np.abs(mu[k, :j]) > 0.5)
            if not big.size:
                break
            j = int(big[-1])
            q = round_half_even(mu[k, j])
            b[at[k]] -= q * b[at[j]]
            u[at[k]] -= q * u[at[j]]
            u_inv[at[j]] += q * u_inv[at[k]]
            mu[k, :j] -= q * mu[j, :j]
            mu[k, j] -= q
            changed = True
        m = float(mu[k, k - 1])
        if norms2[k] >= (delta - m * m) * norms2[k - 1]:
            k += 1
            continue
        at[k - 1], at[k] = at[k], at[k - 1]
        mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
        swapped = norms2[k] + m * m * norms2[k - 1]
        mu[k, k - 1] = m * norms2[k - 1] / swapped
        norms2[k] = norms2[k - 1] * norms2[k] / swapped
        norms2[k - 1] = swapped
        below = mu[k + 1 :, k].copy()
        mu[k + 1 :, k] = mu[k + 1 :, k - 1] - m * below
        mu[k + 1 :, k - 1] = below + mu[k, k - 1] * mu[k + 1 :, k]
        changed = True
        k = max(k - 1, 1)
    b[:] = b[at]
    u[:] = u[at]
    u_inv[:] = u_inv[at]
    return changed


def _lll_columns(b: np.ndarray, u: np.ndarray, u_inv: np.ndarray, delta: float) -> None:
    """delta-LLL on the columns of b, mirroring every column operation on
    u and its inverse, a row operation, on u_inv.  b is float, u and u_inv
    exact-integer (object dtype); all three are modified in place.

    The work runs on contiguous copies that hold the columns as rows
    (_lll_pass), with the same float operations on b as a column loop.
    Once a pass ends, is_lll_reduced checks the result on a fresh
    factorization.  Where that fails, the updated mu and B had drifted
    from the basis, and the reduction restarts from the current basis; a
    pass that changes nothing and still fails cannot be mended that way
    and raises RuntimeError.  Raises RankDeficient on dependent columns."""
    rows_b = np.ascontiguousarray(b.T)
    rows_u = np.ascontiguousarray(u.T)
    while True:
        changed = _lll_pass(rows_b, rows_u, u_inv, delta)
        if is_lll_reduced(rows_b[::-1].T, delta):
            break
        if not changed:
            raise RuntimeError("LLL did not settle: the Gram-Schmidt data of the "
                               "basis is too inexact in float64")
    b[:] = rows_b.T
    u[:] = rows_u.T


def lll_reduce(basis, delta: float = DEFAULT_DELTA) -> ReducedBasis:
    """delta-LLL-reduce a basis (columns), returning the reduced basis, the
    exact unimodular transform with basis_red = basis @ u and its inverse.

    The reduction runs on the basis divided by a power of two near its
    largest entry, so the Gram-Schmidt data of large data does not
    overflow; for data in the normal range that changes no decision and no
    bit of basis_red.  Its one starting factorization rejects dependent
    columns with RankDeficient."""
    if not 0.25 < delta < 1.0:
        raise ValueError(f"delta must be in (0.25, 1), got {delta}")
    if isinstance(basis, LatticeBasis):
        b0 = basis.basis
    else:
        b0 = check_matrix(basis, "basis")
    n = b0.shape[1]

    scale = power_of_two_scale(b0)
    b = b0[:, ::-1] / scale
    u, u_inv = np.eye(n, dtype=object), np.eye(n, dtype=object)
    _lll_columns(b, u, u_inv, delta)

    basis_red = np.ascontiguousarray(b[:, ::-1]) * scale
    u_full = np.ascontiguousarray(u[::-1, ::-1])
    u_inv_full = np.ascontiguousarray(u_inv[::-1, ::-1])
    if not _is_inverse(u_full, u_inv_full):
        raise RuntimeError("reduction produced a non-unimodular transform")
    return ReducedBasis(basis_red=basis_red, u=u_full, u_inv=u_inv_full, delta=delta)


def _fits_int64(u: np.ndarray, v_red: np.ndarray) -> bool:
    """Whether v_red @ u.T provably fits int64 at every partial sum:
    |sum_j u_ij v_rj| <= max|v_red| * max_i sum_j |u_ij| <= _INT64_SAFE_BOUND."""
    try:
        with np.errstate(over="ignore"):
            u_sum = float(np.abs(np.asarray(u, dtype=float)).sum(axis=1).max(initial=0.0))
            v_max = float(np.abs(np.asarray(v_red, dtype=float)).max(initial=0.0))
    except OverflowError:  # a Python int past the float range
        return False
    return (u_sum <= _INT64_SAFE_BOUND and v_max <= _INT64_SAFE_BOUND
            and u_sum * v_max <= _INT64_SAFE_BOUND)


def map_solution(u: np.ndarray, v_red) -> np.ndarray:
    """Map a solution on the reduced basis back: v = u @ v_red, exactly.
    v_red is one vector or a matrix of row vectors.  The product runs in
    int64 where no partial sum can overflow, and in exact Python integers
    otherwise.  Raises IntegerOverflow instead of wrapping."""
    v_red = np.asarray(v_red)
    if u.shape[1] != v_red.shape[-1]:
        raise ValueError(f"u is {u.shape}, v_red has length {v_red.shape[-1]}")
    if _fits_int64(u, v_red):
        return v_red.astype(np.int64) @ np.asarray(u, dtype=np.int64).T
    exact = np.array(v_red, dtype=object) @ np.array(u, dtype=object).T
    for s in exact.flat:
        if abs(s) > _INT64_MAX:
            raise IntegerOverflow(s)
    return exact.astype(np.int64)


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1]


def unimodular_det(u: np.ndarray) -> int:
    """Exact determinant of an integer matrix, at every size."""
    return _det_bareiss([[int(x) for x in row] for row in u])


def _is_inverse(u: np.ndarray, u_inv: np.ndarray) -> bool:
    """Whether u @ u_inv = I, which for integer matrices makes |det u| = 1.
    The product runs in float64 on the entries where no partial sum can
    pass 2^53 (_fits_int64), so exactly, and else on their residues modulo
    _CHECK_PRIME, where the identity is necessary but not sufficient."""
    exact = _fits_int64(u, u_inv.T)
    if not exact:
        u, u_inv = u % _CHECK_PRIME, u_inv % _CHECK_PRIME
    product = np.asarray(u, dtype=float) @ np.asarray(u_inv, dtype=float)
    return np.array_equal(product if exact else product % _CHECK_PRIME, np.eye(u.shape[0]))


def is_lll_reduced(basis_red: np.ndarray, delta: float) -> bool:
    """Check size reduction (|mu_ij| <= 1/2 + tol) and the delta condition
    on adjacent pairs (B_k >= (delta - mu_k,k-1^2 - tol) B_k-1), with tol
    = _LLL_CHECK_TOL, in the orientation the reduction ran in, on the mu
    and B of one QL factorization of the basis divided by a power of two.
    Raises RankDeficient on dependent columns."""
    b = check_matrix(basis_red, "basis_red")
    mu, norms2 = _gram_schmidt_arrays(b[:, ::-1].T / power_of_two_scale(b))
    if np.any(np.abs(np.tril(mu, -1)) > 0.5 + _LLL_CHECK_TOL):
        return False
    adjacent = np.diagonal(mu, -1)
    return not np.any(norms2[1:] < (delta - adjacent ** 2) * norms2[:-1]
                      - _LLL_CHECK_TOL * norms2[:-1])
