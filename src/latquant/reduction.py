"""LLL basis reduction with exact unimodular tracking.

The solvers in this package sweep basis columns from first to last with
Gram-Schmidt taken from the LAST column backwards, so the reduction runs
in standard orientation on the column-reversed basis and is reversed
back afterwards.  That way the reduced basis feeds straight into the
nearest-plane / sequential solvers and its diag(L) profile is the one
the reduction actually controlled.

The change-of-basis matrix u is tracked in exact (arbitrary-precision)
integer arithmetic; only the Gram-Schmidt data is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import IntegerOverflow, LatticeBasis, round_half_even
from .linalg import _ql_factors, check_matrix, power_of_two_scale, ql_decompose

DEFAULT_DELTA = 0.99

_INT64_MAX = np.iinfo(np.int64).max

# Exact determinant check is done in integer arithmetic up to this size.
_EXACT_DET_MAX = 12


@dataclass(eq=False)
class ReducedBasis:
    """basis_red = basis @ u with u unimodular (|det u| = 1).

    u has object dtype and holds exact Python integers.
    """

    basis_red: np.ndarray
    u: np.ndarray
    delta: float


def _gram_schmidt(b: np.ndarray) -> np.ndarray:
    """Unnormalized Gram-Schmidt of the columns of b, in order."""
    gs = np.array(b, dtype=float)
    for i in range(1, b.shape[1]):
        for j in range(i):
            gj = gs[:, j]
            gs[:, i] -= ((gs[:, i] @ gj) / (gj @ gj)) * gj
    return gs


def _lll_columns(b: np.ndarray, u: np.ndarray, delta: float) -> None:
    """Standard LLL on the columns of b, mirroring every column operation
    on u.  b is float, u is exact-integer (object dtype); both are
    modified in place."""
    n = b.shape[1]
    gs = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            gj = gs[:, j]
            mu_kj = (b[:, k] @ gj) / (gj @ gj)
            q = round_half_even(mu_kj)
            if q != 0:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
        # b_k orthogonalized against g_0..g_{k-2}: if b_{k-1} and b_k swap,
        # this is the new Gram-Schmidt vector k-1, and 0..k-2 stay as they are
        head = b[:, k].copy()
        for j in range(k - 1):
            gj = gs[:, j]
            head -= ((head @ gj) / (gj @ gj)) * gj
        gk1 = gs[:, k - 1]
        proj = head - ((head @ gk1) / (gk1 @ gk1)) * gk1
        mu_kk1 = (b[:, k] @ gk1) / (gk1 @ gk1)
        if proj @ proj >= (delta - mu_kk1 ** 2) * (gk1 @ gk1):
            gs[:, k] = proj
            k += 1
        else:
            # vector k is recomputed before it is read again
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            gs[:, k - 1] = head
            k = max(k - 1, 1)


def lll_reduce(basis, delta: float = DEFAULT_DELTA) -> ReducedBasis:
    """delta-LLL-reduce a basis (columns), returning the reduced basis and
    the exact unimodular transform with basis_red = basis @ u.

    The reduction runs on the basis divided by a power of two near its
    largest entry, so the Gram-Schmidt dot products of large data do not
    overflow; for data in the normal range that changes no decision and no
    bit of basis_red."""
    if not 0.25 < delta < 1.0:
        raise ValueError(f"delta must be in (0.25, 1), got {delta}")
    if isinstance(basis, LatticeBasis):
        b0 = basis.basis
    else:
        b0 = check_matrix(basis, "basis")
        ql_decompose(b0)  # reject dependent columns up front
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
    if abs(abs(unimodular_det(u_full)) - 1.0) > 1e-6:
        raise RuntimeError("reduction produced a non-unimodular transform")
    return ReducedBasis(basis_red=basis_red, u=u_full, delta=delta)


def map_solution(u: np.ndarray, v_red) -> np.ndarray:
    """Map a solution on the reduced basis back: v = u @ v_red, in exact
    integer arithmetic.  v_red is one vector or a matrix of row vectors.
    Raises IntegerOverflow instead of wrapping."""
    v_red = np.array(v_red, dtype=object)
    if u.shape[1] != v_red.shape[-1]:
        raise ValueError(f"u is {u.shape}, v_red has length {v_red.shape[-1]}")
    exact = v_red @ np.array(u, dtype=object).T
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


def is_lll_reduced(basis_red: np.ndarray, delta: float, tol: float = 1e-9) -> bool:
    """Check size reduction (|mu_ij| <= 1/2) and the delta condition on
    adjacent pairs, in the orientation the reduction ran in."""
    b = np.array(basis_red[:, ::-1], dtype=float)
    gs = _gram_schmidt(b)
    n = b.shape[1]
    norms2 = np.einsum("ij,ij->j", gs, gs)
    for i in range(n):
        for j in range(i):
            mu_ij = (b[:, i] @ gs[:, j]) / norms2[j]
            if abs(mu_ij) > 0.5 + tol:
                return False
    for k in range(1, n):
        mu = (b[:, k] @ gs[:, k - 1]) / norms2[k - 1]
        if norms2[k] < (delta - mu ** 2) * norms2[k - 1] - tol * norms2[k - 1]:
            return False
    return True
