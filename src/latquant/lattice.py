"""Lattice-side solvers and guarantees.

A lattice is carried by a full-column-rank matrix whose columns generate
it.  This module provides the greedy nearest-plane sweep (both from a
coefficient vector and from a raw target point), the exact closest
vector by Schnorr-Euchner enumeration on the same factor, and the
worst-case error bounds determined by the Gram-Schmidt length profile
diag(L).

The row sweeps have two paths, chosen by the number of rows m.  For
m > 1 each step is a few numpy operations on all rows at once.  For
m == 1 those operations would act on 1-element arrays, so the steps
inside a block run on Python floats instead, on the factor's triangle
held as lists (row_sweep, built once per factor): the same IEEE
multiplies, subtractions and divisions in the same order, so the same
bits, in about half the array loop's time at n = 64 (130 against
250-290 us a sweep on a 2-core machine).  The product past each block
is block_update on both paths.
"""

from __future__ import annotations

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

# Integers schnorr_euchner visits before it stops with the best vector
# found so far.  A node costs about a microsecond; an i.i.d. Gaussian
# lattice at n = 40 takes ~0.2 M nodes, a correlated one a few million.
NODE_BUDGET = 10_000_000


class IntegerOverflow(OverflowError):
    """An integer result does not fit the fixed-width output type."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"integer result {value} exceeds the int64 range")


def round_half_even(x: float) -> int:
    """Round to nearest integer, ties to even.

    The one rounding rule shared by every solver in the package, so that
    algorithms that compute the same real number by different paths make
    the same decision.
    """
    return int(np.rint(x))


def fragile_indices(coeffs: np.ndarray) -> list[int]:
    """Indices whose pre-rounding coefficient sits within DEFAULT_TIE_TOL of a
    half-integer, where last-ulp float differences can flip the result."""
    return np.flatnonzero(_fragile_mask(coeffs)).tolist()


def _fragile_mask(coeffs: np.ndarray) -> np.ndarray:
    """fragile_indices as a mask; |coeffs - floor(coeffs) - 0.5| is one temporary."""
    frac = np.floor(coeffs)
    np.subtract(coeffs, frac, out=frac)
    frac -= 0.5
    np.abs(frac, out=frac)
    return frac < DEFAULT_TIE_TOL


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
    fragile lists the positions that were near-ties.  certified is set
    on a solve_cvp_exact solution whose search finished, so v is a true
    closest vector; boundary_hit is always False (no search has a box
    edge to touch).
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


class RowSweep(NamedTuple):
    """What a one-row sweep reads of a lower-triangular factor, held as
    Python floats: diag[i], and rows[i], row i from the first column of its
    block of SWEEP_BLOCK columns up to the diagonal.  cols is the array
    path's column layout, np.ascontiguousarray(factor.T), for the product
    past each block; None when the factor fits in one block."""

    diag: list[float]
    rows: list[list[float]]
    cols: np.ndarray | None


def row_sweep(tri: np.ndarray) -> RowSweep:
    """The RowSweep of the lower-triangular tri, in the kernels' blocks of
    SWEEP_BLOCK columns.  Built once per factor and reused across one-row
    calls."""
    n = tri.shape[0]
    diag, rows = [], []
    for s in range(0, n, SWEEP_BLOCK):
        for i, row in enumerate(tri[s : s + SWEEP_BLOCK, s : s + SWEEP_BLOCK].tolist()):
            diag.append(row[i])
            rows.append(row[:i])
    return RowSweep(diag, rows, np.ascontiguousarray(tri.T) if n > SWEEP_BLOCK else None)


def nearest_plane_rows(l: np.ndarray, p: np.ndarray,
                       sweep: RowSweep | None = None) -> tuple[np.ndarray, np.ndarray]:
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
    row, so a row's bits do not depend on the other rows.

    One target (m == 1) is swept on Python floats (_nearest_plane_row),
    on sweep, row_sweep(l) when not given; m > 1 runs the array loop.  A
    coefficient that leaves the float range ends in IntegerOverflow, with
    no warning, on either path.  Returns the integer rows v and the
    pre-rounding coefficients."""
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        coeffs = None
        if p.shape[0] == 1:
            coeffs = _nearest_plane_row(row_sweep(l) if sweep is None else sweep, p[0])
        if coeffs is None:
            coeffs = _nearest_plane_array(l, p)
        return rows_to_int64(np.rint(coeffs)), coeffs


def _nearest_plane_array(l: np.ndarray, p: np.ndarray) -> np.ndarray:
    """nearest_plane_rows' coefficients, one numpy step for all rows."""
    coeffs = np.array(p.T, order="C")  # row i holds coordinate i
    n = coeffs.shape[0]
    l_cols = np.ascontiguousarray(l.T)  # row i holds column i of L
    for s in range(0, n, SWEEP_BLOCK):
        e = min(s + SWEEP_BLOCK, n)
        for i in range(s, e):
            coeffs[i] /= l[i, i]
            coeffs[i + 1 : e] -= l_cols[i, i + 1 : e, None] * np.rint(coeffs[i])
        if e < n:
            coeffs[e:] -= block_update(np.rint(coeffs[s:e]), l_cols[s:e, e:])
    del l_cols  # released before the transposed copy
    return np.ascontiguousarray(coeffs.T)


def _nearest_plane_row(sweep: RowSweep, p: np.ndarray) -> np.ndarray | None:
    """nearest_plane_rows' coefficients for the one target p, on Python
    floats.  Coefficient i takes the array loop's subtractions of
    L_ij v_j, j from the start of its block up to i, in the same order,
    then its division by L_ii: the same IEEE operations, so the same
    bits.  v_j is np.rint's value, signed zeros included (round, then
    copysign).  Past each block block_update runs as in the array loop.
    None where a coefficient leaves the float range, for the array loop
    to report."""
    c = p.tolist()
    n = len(c)
    out = []
    try:
        for s in range(0, n, SWEEP_BLOCK):
            e = min(s + SWEEP_BLOCK, n)
            v = []
            for ci, row, d in zip(c[s:e], sweep.rows[s:e], sweep.diag[s:e]):
                for a, b in zip(row, v):
                    ci -= a * b
                ci /= d
                out.append(ci)
                v.append(math.copysign(round(ci), ci))
            if e < n:
                past = block_update(np.array(v)[:, None], sweep.cols[s:e, e:])
                c[e:] = (np.array(c[e:]) - past[:, 0]).tolist()
    except (OverflowError, ValueError, ZeroDivisionError):  # round(inf), round(nan), x / 0
        return None
    return np.array([out])


def babai_nearest_plane(basis: LatticeBasis, w) -> CvpSolution:
    """Greedy closest-vector approximation for the target basis @ w."""
    w = check_vector(w, basis.n, "w")
    return babai_from_target(basis, basis.basis @ w)


def babai_from_target(basis: LatticeBasis, t) -> CvpSolution:
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
        fragile=fragile_indices(coeffs),
    )


def schnorr_euchner(l: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Closest vector by depth-first Schnorr-Euchner enumeration
    (Schnorr & Euchner 1994; Agrell, Eriksson, Vardy & Zeger, "Closest
    point search in lattices", IEEE TIT 2002).

    Reads what nearest_plane_rows reads: the lower-triangular L and the
    coordinates p = Q^T t of one target.  Level i, in the sweep's order,
    visits the integers in zig-zag order around its coefficient
    c_i = (p_i - sum_{j<i} L_ij v_j) / L_ii, subtracted in the sweep's
    order, so the first leaf is Babai's point (bit for bit for n <=
    SWEEP_BLOCK) and the first radius the Babai error.  A branch is cut
    once its partial squared distance sum_{j<=i} L_jj^2 (c_j - v_j)^2
    reaches the best found so far; zig-zag order is non-decreasing in that
    distance, so the first sibling cut ends its level.  Only a strictly
    closer leaf replaces the best: among equally close vectors the first
    in this order wins, which is Babai's when it ties.

    The search runs on L and p divided by a power of two near L's largest
    entry, so no squared distance overflows, and each level keeps its
    partial sums p_i - sum_{j<m} L_ij v_j, recomputed from the shallowest
    level changed since it was last entered.  Returns the best v, whether
    the search finished (False when it stopped past NODE_BUDGET visited
    integers: v is then the best found so far, and its distance an upper
    bound on the optimum's), and the number of integers visited."""
    n = l.shape[0]
    scale = power_of_two_scale(l)
    rows = (l / scale).tolist()
    diag = [rows[i][i] for i in range(n)]
    part = [[x] + [0.0] * i for i, x in enumerate((p / scale).tolist())]
    stale = [0] * (n + 1)  # part[i][j] is current for j <= stale[i]
    center = [0.0] * n
    delta = [0.0] * n
    v = [0.0] * n
    dist = [0.0] * (n + 1)  # dist[i]: partial squared distance of levels < i
    best, best_v = math.inf, None
    nodes, i, descend = 0, 0, True
    while True:
        if descend:
            row, ps, s = rows[i], part[i], stale[i]
            for j in range(s, i):
                ps[j + 1] = ps[j] - row[j] * v[j]
            stale[i + 1] = min(stale[i + 1], s)  # level i + 1 also reads v_s .. v_{i-1}
            stale[i] = max(i - 1, 0)  # v_{i-1} changes before level i is entered again
            c = center[i] = ps[i] / diag[i]
            vi = float(round(c))  # ties to even, as round_half_even
            delta[i] = 1.0 if c >= vi else -1.0
        else:
            vi = v[i] + delta[i]
            delta[i] = -delta[i] - (1.0 if delta[i] > 0 else -1.0)
        nodes += 1
        e = (center[i] - vi) * diag[i]
        d2 = dist[i] + e * e
        if d2 < best:
            v[i] = vi
            if i + 1 < n:
                dist[i + 1] = d2
                i, descend = i + 1, True
                continue
            best, best_v = d2, v.copy()
        # a leaf, or a cut: no later sibling at level i is closer
        i, descend = i - 1, False
        if i < 0 or nodes >= NODE_BUDGET:
            return rows_to_int64(np.array(best_v)), i < 0, nodes


def solve_cvp_exact(basis: LatticeBasis, t) -> CvpSolution:
    """The closest lattice vector to the target point t: schnorr_euchner on
    the basis's QL factor.  step_coeffs holds the real least-squares
    coordinates L^-1 Q^T t; certified is set when the search finished."""
    t = check_vector(t, basis.k, "t")
    f = basis.factors
    p = t @ f.q
    v, certified, _ = schnorr_euchner(f.l, p)
    residual = t - basis.basis @ v
    return CvpSolution(
        v=v,
        residual=residual,
        error_l2=float(l2_norm(residual)),
        step_coeffs=f.l_inv @ p,
        certified=certified,
    )


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
