import numpy as np
import pytest
from scipy.linalg import solve_triangular

from latquant.linalg import (
    GRAM_COND_MAX,
    IllConditionedWarning,
    NotPositiveDefinite,
    RankDeficient,
    SingularDiagonal,
    cholesky_spd,
    gram_factor,
    invert_lower_triangular,
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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ql_decompose(np.array([[1.0], [np.nan]]))


class TestGramFactor:
    def test_worked_2x2_matches_ql(self, worked_basis):
        # cond(L) = 46 in the 1-norm, inside the gate
        l = gram_factor(worked_basis.T @ worked_basis)
        np.testing.assert_allclose(l, ql_decompose(worked_basis).l, rtol=1e-12)
        assert l[0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_ql_factor_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x = rng.standard_normal((2 * n + 8, n))
        l = gram_factor(x.T @ x)
        assert l is not None
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
