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

The change-of-basis matrix u is tracked in exact (arbitrary-precision)
integer arithmetic; only the Gram-Schmidt data is floating point.
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

# Exact determinant check is done in integer arithmetic up to this size.
_EXACT_DET_MAX = 12

# Slack of is_lll_reduced's tests on the float Gram-Schmidt data.
_LLL_CHECK_TOL = 1e-9

# The prime lll_reduce takes det u modulo where the float determinant is
# inconclusive; below 2^31, so a product of two residues fits int64.
_DET_PRIME = 2_147_483_647


@dataclass(eq=False)
class ReducedBasis:
    """basis_red = basis @ u with u unimodular (|det u| = 1).

    u has object dtype and holds exact Python integers.
    """

    basis_red: np.ndarray
    u: np.ndarray
    delta: float


def _gram_schmidt_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu and B of the rows of `rows`, in order, from one QL factorization:
    row i is sum_j mu[i, j] g_j with g_j the Gram-Schmidt vectors and
    B[j] = |g_j|^2.  Raises RankDeficient on dependent rows."""
    # QL of the rows taken last first is QR of the rows in order: R = L reversed
    r = _ql_factors(rows[::-1].T).l[::-1, ::-1]
    d = np.diag(r)
    return np.ascontiguousarray((r / d[:, None]).T), d * d


def _lll_pass(b: np.ndarray, u: np.ndarray, delta: float) -> bool:
    """One run of LLL on the rows of b from a fresh factorization,
    mirroring every row operation on u; both are modified in place.
    Returns whether any row changed.

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
    return changed


def _lll_columns(b: np.ndarray, u: np.ndarray, delta: float) -> None:
    """delta-LLL on the columns of b, mirroring every column operation on
    u.  b is float, u is exact-integer (object dtype); both are modified in
    place.

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
        changed = _lll_pass(rows_b, rows_u, delta)
        if is_lll_reduced(rows_b[::-1].T, delta):
            break
        if not changed:
            raise RuntimeError("LLL did not settle: the Gram-Schmidt data of the "
                               "basis is too inexact in float64")
    b[:] = rows_b.T
    u[:] = rows_u.T


def lll_reduce(basis, delta: float = DEFAULT_DELTA) -> ReducedBasis:
    """delta-LLL-reduce a basis (columns), returning the reduced basis and
    the exact unimodular transform with basis_red = basis @ u.

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
    u = np.empty((n, n), dtype=object)
    u[:] = 0
    for i in range(n):
        u[i, i] = 1
    _lll_columns(b, u, delta)

    basis_red = np.ascontiguousarray(b[:, ::-1]) * scale
    u_full = np.ascontiguousarray(u[::-1, ::-1])
    if not _is_unimodular(u_full):
        raise RuntimeError("reduction produced a non-unimodular transform")
    return ReducedBasis(basis_red=basis_red, u=u_full, delta=delta)


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


def unimodular_det(u: np.ndarray) -> float:
    """Determinant of an integer matrix: exact up to 12 x 12, via the
    triangular factor product (|det| only, sign-free) beyond that."""
    n = u.shape[0]
    if n <= _EXACT_DET_MAX:
        return float(_det_bareiss([[int(x) for x in row] for row in u]))
    return float(np.prod(_ql_factors(np.array(u, dtype=float)).diag))


def _is_unimodular(u: np.ndarray) -> bool:
    """Whether |det u| = 1: the float determinant, which loses digits to
    large entries, where it reads within 1e-6 of 1, else det u modulo
    _DET_PRIME, which is +-1 for every unimodular u."""
    try:
        close = abs(abs(unimodular_det(u)) - 1.0) <= 1e-6
    except (ValueError, OverflowError):  # entries past the float range, or a QR
        close = False                    # that reads the columns as dependent
    return close or _det_mod_prime(u) in (1, _DET_PRIME - 1)


def _det_mod_prime(u: np.ndarray) -> int:
    """det u modulo _DET_PRIME, by Gaussian elimination on int64 residues."""
    p = _DET_PRIME
    a = np.asarray(u % p, dtype=np.int64)  # object entries reduce as Python ints
    det = 1
    for i in range(a.shape[0]):
        nonzero = np.flatnonzero(a[i:, i])
        if not nonzero.size:
            return 0
        r = i + int(nonzero[0])
        if r != i:
            a[[i, r]] = a[[r, i]]
            det = -det
        pivot = int(a[i, i])
        det = det * pivot % p
        factors = a[i + 1 :, i] * pow(pivot, -1, p) % p
        a[i + 1 :, i + 1 :] = (a[i + 1 :, i + 1 :] - factors[:, None] * a[i, i + 1 :] % p) % p
    return det


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
