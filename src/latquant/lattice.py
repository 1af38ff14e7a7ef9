"""Lattice-side solvers and guarantees.

A lattice is carried by a full-column-rank matrix whose columns generate
it.  This module provides the greedy nearest-plane sweep (both from a
coefficient vector and from a raw target point), an exhaustive
closest-vector oracle for small dimensions, and the worst-case error
bounds determined by the Gram-Schmidt length profile diag(L).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    QLFactors,
    check_matrix,
    check_vector,
    l2_norm,
    power_of_two_scale,
    ql_decompose,
)

DEFAULT_TIE_TOL = 1e-9

# Columns per block of the row sweeps (nearest_plane_rows and GPTQ's
# quantize._gptq_rows).  A step updates the rest of its block, and the
# columns past the block take the block's steps in one product, so a
# column is moved once per earlier block instead of once per earlier column.
SWEEP_BLOCK = 64

# Exhaustive enumeration is capped at this many lattice dimensions.
ENUM_MAX_DIM = 8

# Candidate blocks are kept below this many vectors to bound memory.
_ENUM_BLOCK = 1 << 18


class IntegerOverflow(OverflowError):
    """An integer result does not fit the fixed-width output type."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"integer result {value} exceeds the int64 range")


class DimensionTooLarge(ValueError):
    def __init__(self, n: int, limit: int = ENUM_MAX_DIM):
        self.n = n
        self.limit = limit
        super().__init__(f"exhaustive search supports n <= {limit}, got n = {n}")


def round_half_even(x: float) -> int:
    """Round to nearest integer, ties to even.

    The one rounding rule shared by every solver in the package, so that
    algorithms that compute the same real number by different paths make
    the same decision.
    """
    return int(np.rint(x))


def fragile_indices(coeffs: np.ndarray, tie_tol: float = DEFAULT_TIE_TOL) -> list[int]:
    """Indices whose pre-rounding coefficient sits within tie_tol of a
    half-integer, where last-ulp float differences can flip the result."""
    frac = coeffs - np.floor(coeffs)
    return [int(i) for i in np.flatnonzero(np.abs(frac - 0.5) < tie_tol)]


class LatticeBasis:
    """Immutable basis matrix plus its cached QL factors."""

    def __init__(self, basis):
        basis = check_matrix(basis, "basis").copy()
        self.factors: QLFactors = ql_decompose(basis)
        basis.setflags(write=False)
        self.basis = basis

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        return f"LatticeBasis(k={self.k}, n={self.n})"


@dataclass(eq=False)
class CvpSolution:
    """Integer solution plus the evidence needed to audit it.

    step_coeffs holds the pre-rounding quantities, one per basis column;
    fragile lists the positions that were near-ties.  boundary_hit and
    certified are only meaningful for solutions found by enumeration:
    boundary_hit means the minimizer touched the search box edge, and
    certified means the box provably contained the true optimum.
    """

    v: np.ndarray
    residual: np.ndarray
    error_l2: float
    step_coeffs: np.ndarray
    fragile: list[int] = field(default_factory=list)
    boundary_hit: bool = False
    certified: bool = False


def rows_to_int64(v: np.ndarray) -> np.ndarray:
    """Cast rounded float rows to int64, refusing values that do not fit
    (a plain cast would wrap them silently)."""
    bad = ~((v >= -(2.0 ** 63)) & (v < 2.0 ** 63))
    if np.any(bad):
        raise IntegerOverflow(v[bad][0])
    return v.astype(np.int64)


def block_update(steps: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The trailing update steps^T @ cols of a swept block, transposed:
    steps is b x m (row j holds step j of every target row) and cols the
    b x N block rows of the triangular factor.  np.matmul on a stack of
    1 x b rows runs one vector-matrix product per target row, so row r's
    bits do not depend on the other rows; one GEMM over all m rows would
    make them depend on m."""
    return np.matmul(np.ascontiguousarray(steps.T)[:, None, :], cols)[:, 0, :].T


def nearest_plane_rows(l: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-plane sweep for m targets at once.

    Row r of p holds the data-space coordinates Q^T t of target r.  Step
    i rounds the coefficient p_i / L_ii and subtracts v_i times column i
    of X, whose coordinates are L[:, i]; the coordinates along Q_{>i} are
    all a later step reads, so column i is free to hold the coefficient.
    The sweep runs in blocks of SWEEP_BLOCK columns: a step updates only
    the rest of its block, and after the block the columns past it take
    all of its steps at once, v_block @ L[block, past].  For n <=
    SWEEP_BLOCK that is the plain one-step-at-a-time sweep; past that the
    coefficients differ from it in the last bits (the sums are taken in
    another order).  Every operation is elementwise or one product per
    row, so a row's bits do not depend on the other rows.  Returns the
    integer rows v and the pre-rounding coefficients."""
    coeffs = np.array(np.asarray(p, dtype=float).T, order="C")  # row i holds coordinate i
    n = coeffs.shape[0]
    l_cols = np.ascontiguousarray(l.T)  # row i holds column i of L
    for s in range(0, n, SWEEP_BLOCK):
        e = min(s + SWEEP_BLOCK, n)
        for i in range(s, e):
            coeffs[i] /= l[i, i]
            coeffs[i + 1 : e] -= l_cols[i, i + 1 : e, None] * np.rint(coeffs[i])
        if e < n:
            coeffs[e:] -= block_update(np.rint(coeffs[s:e]), l_cols[s:e, e:])
    coeffs = np.ascontiguousarray(coeffs.T)
    return rows_to_int64(np.rint(coeffs)), coeffs


def babai_nearest_plane(basis: LatticeBasis, w,
                        tie_tol: float = DEFAULT_TIE_TOL) -> CvpSolution:
    """Greedy closest-vector approximation for the target basis @ w."""
    w = check_vector(w, basis.n, "w")
    return babai_from_target(basis, basis.basis @ w, tie_tol=tie_tol)


def babai_from_target(basis: LatticeBasis, t,
                      tie_tol: float = DEFAULT_TIE_TOL) -> CvpSolution:
    """Same sweep started from a raw target point.

    t need not lie in the column span of the basis; any off-span component
    is orthogonal to every Q_i and cannot change the rounding decisions.
    """
    t = check_vector(t, basis.k, "t")
    (v,), (coeffs,) = nearest_plane_rows(basis.factors.l, (t @ basis.factors.q)[None, :])
    residual = t - basis.basis @ v
    return CvpSolution(
        v=v,
        residual=residual,
        error_l2=float(l2_norm(residual)),
        step_coeffs=coeffs,
        fragile=fragile_indices(coeffs, tie_tol),
    )


def _candidate_blocks(n: int, radius: int):
    """Yield integer offset blocks covering [-radius, radius]^n in
    lexicographic order, each block at most _ENUM_BLOCK rows."""
    width = 2 * radius + 1
    head = 0
    while width ** (n - head) > _ENUM_BLOCK:
        head += 1
    axes = [np.arange(-radius, radius + 1)] * (n - head)
    tail = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - head)
    if head == 0:
        yield tail
        return
    block = np.empty((tail.shape[0], n), dtype=np.int64)
    block[:, head:] = tail
    for prefix in itertools.product(range(-radius, radius + 1), repeat=head):
        block[:, :head] = prefix
        yield block


def brute_force_cvp(basis: LatticeBasis, t, radius: int = 2) -> CvpSolution:
    """Exhaustive closest-vector search over a box of integer vectors.

    The box is centered on the rounded real least-squares solution of
    basis @ x = t and extends radius steps per coordinate.  Ties are
    broken by lexicographically smallest v.  step_coeffs carries the real
    least-squares coordinates (the box center before rounding).

    boundary_hit flags a minimizer on the box edge.  certified is set when
    ||B(c - v_best)|| <= sigma_min(B) * (radius + 0.5), which proves no
    integer vector outside the box can do better.
    """
    n = basis.n
    if n > ENUM_MAX_DIM:
        raise DimensionTooLarge(n)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    t = check_vector(t, basis.k, "t")

    f = basis.factors
    c_real = f.l_inv @ (f.q.T @ t)
    center = rows_to_int64(np.rint(c_real))
    b = basis.basis
    # Distances are compared on b and t divided by a power of two near
    # their largest magnitude: every comparison and tie-break of in-range
    # data is the unscaled one, and the squared distances of large data
    # cannot overflow.
    scale = power_of_two_scale(b, t)
    b_s, t_s = b / scale, t / scale

    best_err2 = math.inf
    best_v: np.ndarray | None = None
    for block in _candidate_blocks(n, radius):
        cand = center[None, :] + block
        diff = t_s[None, :] - cand @ b_s.T
        err2 = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(err2))  # first occurrence: lexicographic tie-break
        if err2[i] < best_err2:
            best_err2 = float(err2[i])
            best_v = cand[i].copy()
    if best_v is None:
        raise ValueError("no candidate in the search box is at a finite distance "
                         "from the target")

    residual = t - b @ best_v
    err = float(l2_norm(residual))
    boundary_hit = bool(np.any(np.abs(best_v - center) == radius))

    # Certificate: the error splits into the fixed off-span part plus the
    # in-span distance ||B(c_real - v)||; outside the box that distance is
    # at least sigma_min * (radius + 0.5).  Compared in the scaled units.
    rho = t_s - b_s @ c_real
    in_span2 = max(best_err2 - float(rho @ rho), 0.0)
    sigma_min = float(np.linalg.svd(b, compute_uv=False)[-1]) / scale
    certified = in_span2 <= (sigma_min * (radius + 0.5)) ** 2

    return CvpSolution(
        v=best_v,
        residual=residual,
        error_l2=err,
        step_coeffs=c_real,
        boundary_hit=boundary_hit,
        certified=certified,
    )


def solve_cvp_exact(basis: LatticeBasis, t, radius: int = 2,
                    max_radius: int = 16) -> CvpSolution:
    """brute_force_cvp with the retry policy: grow the box by 2 until the
    minimizer is interior and certified (or max_radius is hit)."""
    while True:
        sol = brute_force_cvp(basis, t, radius=radius)
        if (sol.certified and not sol.boundary_hit) or radius >= max_radius:
            return sol
        radius += 2


class AbsoluteBound(NamedTuple):
    """Worst-case absolute error guarantees from the diag(L) profile.

    paper is sqrt(sum_i L_ii^2); half_step is the tight variant with the
    1/4 per-step factor.  The literal form is the weaker one, hence
    implied by the tight one.
    """

    paper: float
    half_step: float


def _diag_of(factors) -> np.ndarray:
    if hasattr(factors, "diag"):
        return factors.diag
    return np.asarray(factors, dtype=float)


def absolute_error_bound(factors) -> AbsoluteBound:
    """Accepts QLFactors or the diag(L) profile directly."""
    norm = float(l2_norm(_diag_of(factors)))
    return AbsoluteBound(paper=norm, half_step=norm / 2.0)


class GammaBound(NamedTuple):
    """Approximation-factor guarantees relative to the true optimum.

    gamma is sqrt(1 + max_i (1/L_ii^2) sum_{j>=i} L_jj^2); loose is the
    weaker sqrt(n-1) * max_{i<=j} L_jj/L_ii form, kept for reporting.
    """

    gamma: float
    loose: float


def _suffix_ratios(d: np.ndarray) -> np.ndarray:
    """(1/d_i^2) sum_{j>=i} d_j^2 for every i."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum((d ** 2)[::-1])[::-1] / d ** 2


def relative_error_factor(factors) -> GammaBound:
    """Accepts QLFactors or the diag(L) profile directly."""
    d = _diag_of(factors)
    n = d.size
    ratios = _suffix_ratios(d)
    if not np.isfinite(ratios).all():
        ratios = _suffix_ratios(d / np.max(np.abs(d)))  # scale free; squares overflowed
    gamma = math.sqrt(1.0 + float(np.max(ratios)))
    running_min = np.minimum.accumulate(d)
    loose = math.sqrt(max(n - 1, 0)) * float(np.max(d / running_min))
    return GammaBound(gamma=gamma, loose=loose)
