import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrcon
from test_quantize import conditioned_instance

from latquant.linalg import (
    COND_WARN,
    GRAM_COND_MAX,
    SOLVE_BLOCK,
    IllConditionedWarning,
    NotPositiveDefinite,
    RankDeficient,
    SingularDiagonal,
    _cond_estimate,
    _lower_inverse,
    cholesky_spd,
    gram_factor,
    invert_lower_triangular,
    l2_norm,
    power_of_two_scale,
    ql_decompose,
)
from latquant.quantize import solver_basis

SQRT29 = np.sqrt(29.0)


def ql_oracle(x):
    """Independent oracle: classical Gram-Schmidt run from the LAST
    column backwards (X_n first), which is the defining construction of
    the lower-triangular factorization."""
    k, n = x.shape
    q = np.zeros((k, n))
    l = np.zeros((n, n))
    for j in range(n - 1, -1, -1):
        r = x[:, j].copy()
        for i in range(n - 1, j, -1):
            l[i, j] = q[:, i] @ x[:, j]
            r -= l[i, j] * q[:, i]
        l[j, j] = np.linalg.norm(r)
        q[:, j] = r / l[j, j]
    return q, l


class TestQlDecompose:
    def test_identity(self):
        f = ql_decompose(np.eye(2))
        np.testing.assert_array_equal(f.q, np.eye(2))
        np.testing.assert_array_equal(f.l, np.eye(2))

    def test_diagonal_positive_convention(self):
        f = ql_decompose(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(f.q, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(f.l, np.diag([2.0, 3.0]), atol=1e-15)

    def test_worked_2x2(self, worked_basis):
        f = ql_decompose(worked_basis)
        assert f.l[0, 0] == pytest.approx(1.0 / SQRT29, rel=1e-14)
        assert f.l[1, 1] == pytest.approx(SQRT29, rel=1e-14)
        assert f.l[1, 0] == pytest.approx(17.0 / SQRT29, rel=1e-14)
        assert f.l[0, 1] == 0.0
        # unimodular basis: |det| = product of the diagonal = 1
        assert f.l[0, 0] * f.l[1, 1] == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(f.q @ f.l, worked_basis, atol=1e-12)
        q_o, l_o = ql_oracle(worked_basis)
        np.testing.assert_allclose(f.l, l_o, atol=1e-12)
        np.testing.assert_allclose(f.q, q_o, atol=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        k = n + int(rng.integers(0, 65))
        x = rng.uniform(-1.0, 1.0, (k, n))
        f = ql_decompose(x)
        assert np.abs(f.q.T @ f.q - np.eye(n)).max() <= 1e-10
        assert np.abs(f.q @ f.l - x).max() <= 1e-10 * np.abs(x).max()
        assert np.all(np.diag(f.l) > 0)
        assert np.all(np.triu(f.l, 1) == 0.0)

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, (9, 5))
        f = ql_decompose(x)
        q_o, l_o = ql_oracle(x)
        np.testing.assert_allclose(f.l, l_o, atol=1e-10)
        np.testing.assert_allclose(f.q, q_o, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, (12, 6))
        f1, f2 = ql_decompose(x), ql_decompose(x.copy())
        np.testing.assert_array_equal(f1.q, f2.q)
        np.testing.assert_array_equal(f1.l, f2.l)

    def test_duplicate_columns_rank_deficient(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficient) as exc:
            ql_decompose(x)
        assert exc.value.index == 0  # dependency surfaces at the first diagonal
        assert "regularize" in str(exc.value)

    def test_wide_matrix_rank_deficient(self):
        with pytest.raises(RankDeficient):
            ql_decompose(np.array([[1.0, 2.0]]))

    def test_extreme_conditioning_warns_not_raises(self):
        # unit diagonal but a huge off-diagonal entry: full rank, cond ~ 1e14
        x = np.array([[1.0, 0.0], [1e7, 1.0]])
        with pytest.warns(IllConditionedWarning):
            f = ql_decompose(x)
        np.testing.assert_allclose(f.q @ f.l, x, atol=1e-6)

    def test_warning_reads_the_inverse(self):
        # ||L||_1 = 1e4, but ||L^-1||_1 = 1e10 carries the condition number
        x = np.array([[1e-6, 0.0], [1e4, 1.0]])
        with pytest.warns(IllConditionedWarning):
            ql_decompose(x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ql_decompose(np.array([[1.0], [np.nan]]))


class TestGramFactor:
    def test_worked_2x2_matches_ql(self, worked_basis):
        # cond(L) = 46 in the 1-norm, inside the gate
        l, l_inv, cond = gram_factor(worked_basis.T @ worked_basis)
        assert cond == _cond_estimate(l, l_inv)
        np.testing.assert_allclose(l, ql_decompose(worked_basis).l, rtol=1e-12)
        assert l[0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_ql_factor_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x = rng.standard_normal((2 * n + 8, n))
        factor = gram_factor(x.T @ x)
        assert factor is not None
        l = factor[0]
        np.testing.assert_allclose(l, ql_decompose(x).l, rtol=1e-10, atol=1e-12)
        assert np.all(np.diag(l) > 0)
        assert np.all(np.triu(l, 1) == 0.0)

    def test_declines_past_the_gate(self):
        # diagonal L, so its condition number is the ratio of the entries
        assert gram_factor(np.diag([1.0, (10 * GRAM_COND_MAX) ** 2])) is None
        assert gram_factor(np.diag([1.0, (GRAM_COND_MAX / 10) ** 2])) is not None

    @pytest.mark.parametrize("h", [
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
        np.diag([1.0, -1.0]),  # indefinite
        np.diag([1.0, np.inf]),  # overflowed
    ])
    def test_declines_what_cholesky_cannot_factor(self, h):
        assert gram_factor(h) is None


class TestInvertLowerTriangular:
    def test_identity(self):
        np.testing.assert_array_equal(invert_lower_triangular(np.eye(3)), np.eye(3))

    def test_2x2_forward_substitution(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]])
        expected = np.array([[0.5, 0.0], [-0.5, 1.0]])
        np.testing.assert_allclose(invert_lower_triangular(l), expected, atol=1e-15)

    def test_residual_on_worked_factor(self, worked_basis):
        l = ql_decompose(worked_basis).l
        inv = invert_lower_triangular(l)
        assert np.abs(l @ inv - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        l = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
        np.fill_diagonal(l, rng.uniform(0.5, 2.0, n))
        back = invert_lower_triangular(invert_lower_triangular(l))
        assert np.abs(back - l).max() <= 1e-10

    def test_result_exactly_lower_triangular(self):
        rng = np.random.default_rng(3)
        l = np.tril(rng.uniform(-1.0, 1.0, (8, 8)))
        np.fill_diagonal(l, rng.uniform(0.5, 2.0, 8))
        inv = invert_lower_triangular(l)
        assert np.all(np.triu(inv, 1) == 0.0)

    def test_singular_diagonal(self):
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularDiagonal) as exc:
            invert_lower_triangular(l)
        assert exc.value.index == 1

    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError, match="not lower triangular"):
            invert_lower_triangular(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_diagonal_is_exact(self):
        # the solves l x = b and l^T x = b are products with the inverse
        l = np.diag([2.0, 4.0, 0.5])
        b = np.array([[1.0, 3.0], [2.0, 6.0], [1.0, 1.0]])
        l_inv = invert_lower_triangular(l)
        np.testing.assert_array_equal(l_inv @ b, b / np.diag(l)[:, None])
        np.testing.assert_array_equal(l_inv.T @ b, b / np.diag(l)[:, None])


class TestCholeskySpd:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            cholesky_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-15
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_lapack_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        m = rng.uniform(-1.0, 1.0, (n + 5, n))
        a = m.T @ m + 0.1 * np.eye(n)
        ours = cholesky_spd(a)
        np.testing.assert_allclose(ours, np.linalg.cholesky(a), atol=1e-10)
        assert np.abs(ours @ ours.T - a).max() <= 1e-10 * np.abs(a).max()

    def test_not_positive_definite_reports_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky_spd(a)
        assert exc.value.index == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_gram_inverse_factor_equals_inverted_ql_factor(self, worked_basis):
        # the two factorization routes must produce the same triangle
        gram_inv = np.linalg.inv(worked_basis.T @ worked_basis)
        via_cholesky = cholesky_spd(gram_inv)
        via_ql = invert_lower_triangular(ql_decompose(worked_basis).l)
        np.testing.assert_allclose(via_cholesky, via_ql, atol=1e-10)


def least_squares_solve(a, b):
    """The pull-back L^-1 L^-T a^T b that cross_layer_target and the
    reduced path of quantize_matrix compute from the factor L of a
    (L^T L = a^T a, Q^T b = L^-T a^T b)."""
    l = solver_basis(a, 0.0).l
    return solve_triangular(l, solve_triangular(l, a.T @ b, lower=True, trans="T"),
                            lower=True)


class TestLeastSquares:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(least_squares_solve(np.eye(3), b), b)

    def test_consistent_square_system(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, (6, 6)) + 3 * np.eye(6)
        x0 = rng.uniform(-1.0, 1.0, 6)
        x = least_squares_solve(a, a @ x0)
        assert np.abs(x - x0).max() <= 1e-10

    def test_two_sample_mean(self):
        x = least_squares_solve(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
        assert x[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_orthogonality_and_lstsq_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        k = n + int(rng.integers(1, 12))
        a = rng.uniform(-1.0, 1.0, (k, n))
        b = rng.uniform(-1.0, 1.0, k)
        x = least_squares_solve(a, b)
        resid = a @ x - b
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(a.T @ resid).max() <= 1e-9 * scale
        oracle = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(x - oracle).max() <= 1e-9

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            least_squares_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


class TestL2Norm:
    @pytest.mark.parametrize("seed", range(5))
    def test_plain_sum_bits_kept(self, seed):
        a = np.random.default_rng(seed).standard_normal((40, 7))
        assert np.array_equal(l2_norm(a, axis=0), np.sqrt(np.sum(a ** 2, axis=0)))
        assert l2_norm(a[:, 0]) == np.sqrt(np.sum(a[:, 0] ** 2))

    def test_overflowing_squares_rescaled(self):
        a = np.array([[3e200, 3.0], [4e200, 4.0]])
        np.testing.assert_allclose(l2_norm(a, axis=0), [5e200, 5.0], rtol=1e-15)
        assert l2_norm(a, axis=0)[1] == 5.0
        assert l2_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)

    def test_a_norm_beyond_float64_is_inf(self):
        assert l2_norm(np.array([1.5e308, 1.5e308])) == np.inf


def lower_factor(x):
    """L with L^T L = x^T x from a Householder QR of the column-reversed
    x (the factor of ql_decompose, without its checks and warning)."""
    r = np.linalg.qr(x[:, ::-1], mode="r")[::-1, ::-1]
    return np.tril(r * np.sign(np.diag(r))[:, None])


def seeded_lower_factor(seed: int) -> np.ndarray:
    """n = 1-128, with cond(L) log-uniform in 1 - 1e13."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 129))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return lower_factor(np.logspace(0, -rng.uniform(0, 13), n)[:, None] * v.T)


def trcon_estimate(l):
    """1 / rcond from LAPACK's dtrcon, the estimate the gates were set on."""
    rcond, info = dtrcon(l, norm="1", uplo="L")
    assert info == 0
    return 1.0 / rcond if rcond > 0 else math.inf


def exact_cond(l) -> float:
    """_cond_estimate of l with its inverse from the kernel gram_factor
    uses, which returns inf or nan entries where l is singular or the
    inverse overflows, instead of raising."""
    return _cond_estimate(l, _lower_inverse(l))


def gram_cholesky_factor(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.random.default_rng(seed).standard_normal((2 * n + 8, n))
    return gram_factor(x.T @ x)[:2]


def relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestAgainstScipy:
    """The numpy kernels against scipy's LAPACK wrappers, the routines they
    replace: potrf, trcon and solve_triangular."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_factor_is_the_potrf_factor(self, seed):
        # np.linalg and scipy may link different OpenBLAS builds, which can
        # round the last bit of a few entries differently
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 301))
        x = rng.standard_normal((2 * n + 8, n))
        h = x.T @ x
        c, info = dpotrf(h[::-1, ::-1], lower=1, clean=1)
        assert info == 0
        assert relative_gap(gram_factor(h)[0], c.T[::-1, ::-1]) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, SOLVE_BLOCK - 1, SOLVE_BLOCK,
                                   SOLVE_BLOCK + 1, 2 * SOLVE_BLOCK + 3, 300])
    def test_solve_lower_matches_solve_triangular(self, n):
        # every solve with L is a product with the L^-1 gram_factor returns
        l, l_inv = gram_cholesky_factor(n, n)
        rng = np.random.default_rng(n)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            for trans in (False, True):
                want = solve_triangular(l, b, lower=True, trans="T" if trans else "N")
                got = l_inv.T @ b if trans else l_inv @ b
                assert got.shape == want.shape
                assert relative_gap(got, want) <= 1e-13

    @pytest.mark.parametrize("n", [1, 5, SOLVE_BLOCK, SOLVE_BLOCK + 1, 200])
    def test_inverse_matches_solve_triangular(self, n):
        l, _ = gram_cholesky_factor(n, 100 + n)
        want = solve_triangular(l, np.eye(n), lower=True)
        inv = invert_lower_triangular(l)
        assert relative_gap(inv, want) <= 1e-13
        assert np.all(np.triu(inv, 1) == 0.0)

    @pytest.mark.parametrize("decade", range(13))
    def test_estimate_on_the_gate_sweep(self, decade):
        # the QR factor and, where it exists, the Cholesky factor of every
        # instance TestGramRoute::test_agreement_sweep runs
        for seed in range(20):
            x, _ = conditioned_instance(1000 * decade + seed, decade)
            factors = [lower_factor(x)]
            c, info = dpotrf((x.T @ x)[::-1, ::-1], lower=1, clean=1)
            if info == 0:
                factors.append(np.ascontiguousarray(c.T[::-1, ::-1]))
            for l in factors:
                got, want = exact_cond(l), trcon_estimate(l)
                assert (got > GRAM_COND_MAX) == (want > GRAM_COND_MAX)
                assert (got > COND_WARN) == (want > COND_WARN)
                assert got == pytest.approx(np.linalg.cond(l, 1), rel=1e-10)

    @pytest.mark.parametrize("start", range(0, 200, 20))
    def test_estimate_on_seeded_factors(self, start):
        for seed in range(start, start + 20):
            l = seeded_lower_factor(seed)
            got, want = exact_cond(l), trcon_estimate(l)
            assert (got > GRAM_COND_MAX) == (want > GRAM_COND_MAX)
            assert (got > COND_WARN) == (want > COND_WARN)
            assert got == pytest.approx(np.linalg.cond(l, 1), rel=1e-10)

    @pytest.mark.parametrize("kind", ["signs", "integers"])
    def test_estimate_on_small_integer_factors(self, kind):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            if kind == "signs":
                l = np.tril(rng.choice([-1.0, 1.0], (n, n)), -1) + np.eye(n)
            else:
                l = (np.tril(rng.integers(-3, 4, (n, n)), -1)
                     + np.diag(rng.integers(1, 4, n))).astype(float)
            l += np.tril(rng.uniform(-1e-3, 1e-3, (n, n)))
            assert exact_cond(l) == pytest.approx(np.linalg.cond(l, 1), rel=1e-10)


class TestCondEstimate:
    def test_diagonal_is_the_entry_ratio(self):
        assert exact_cond(np.diag([1.0, 1e-2, 10.0])) == pytest.approx(1e3, rel=1e-15)

    @pytest.mark.parametrize("l", [
        np.diag([1.0, 0.0]),
        np.diag([1.0, np.inf]),
        np.array([[1.0, 0.0], [np.nan, 1.0]]),
        np.diag([1.0, 1e-300, 1e-300]) + np.tril(np.full((3, 3), 1e300), -1),
    ])
    def test_singular_non_finite_or_overflowing_is_inf(self, l):
        assert exact_cond(l) == math.inf


class TestPowerOfTwoScale:
    def test_brings_the_peak_into_one_to_two(self):
        for peak in (1e-300, 3e-5, 1.0, 1.5, 2.0, 7e160, 1.7e308):
            scale = power_of_two_scale(np.array([peak / 3, -peak]), np.zeros(2))
            assert math.frexp(scale)[0] == 0.5  # a power of two
            assert 1.0 <= peak / scale < 2.0

    def test_zero_data(self):
        assert power_of_two_scale(np.zeros(3)) == 0.5
