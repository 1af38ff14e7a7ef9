import itertools

import numpy as np
import pytest

from latquant import reduction
from latquant.lattice import (
    LatticeBasis,
    babai_from_target,
    babai_nearest_plane,
    round_half_even,
)
from latquant.linalg import RankDeficient, ql_decompose
from latquant.quantize import regularize, resolve_mu
from latquant.reduction import (
    IntegerOverflow,
    is_lll_reduced,
    lll_reduce,
    map_solution,
    unimodular_det,
)


def random_basis(seed, n_max=8, scale=1.0):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    k = n + int(rng.integers(0, n + 1))
    return rng.uniform(-scale, scale, (k, n))


class TestLllReduce:
    def test_orthogonal_basis_unchanged_up_to_signed_permutation(self):
        red = lll_reduce(np.diag([2.0, 3.0]))
        u = np.array([[int(x) for x in row] for row in red.u])
        assert sorted(np.abs(u).sum(axis=0).tolist()) == [1, 1]  # signed permutation
        assert abs(abs(unimodular_det(red.u)) - 1.0) <= 1e-12
        cols = {tuple(np.abs(red.basis_red[:, j]).tolist()) for j in range(2)}
        assert cols == {(2.0, 0.0), (0.0, 3.0)}

    def test_worked_basis_reduces_to_unit_columns(self, worked_basis):
        red = lll_reduce(worked_basis)
        for j in range(2):
            col = red.basis_red[:, j]
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
            assert sorted(np.abs(col).tolist()) == pytest.approx([0.0, 1.0], abs=1e-12)
        assert abs(abs(unimodular_det(red.u)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_transform_reconstructs_reduced_basis(self, seed):
        b = random_basis(seed)
        red = lll_reduce(b)
        u_float = np.array([[float(x) for x in row] for row in red.u])
        assert np.abs(b @ u_float - red.basis_red).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_reduced_conditions_hold(self, seed):
        b = random_basis(seed)
        for delta in (0.5, 0.99):
            red = lll_reduce(b, delta)
            assert is_lll_reduced(red.basis_red, delta)

    @pytest.mark.parametrize("seed", range(20))
    def test_diagonal_product_invariant(self, seed):
        # |det| of the lattice is basis independent
        b = random_basis(seed, n_max=5)
        before = float(np.prod(ql_decompose(b).diag))
        after = float(np.prod(ql_decompose(lll_reduce(b).basis_red).diag))
        assert after == pytest.approx(before, rel=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_lattice_preserved_exactly(self, seed):
        # every grid point of one basis is a grid point of the other
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        b = rng.integers(-4, 5, (n, n)).astype(float)
        while abs(np.linalg.det(b)) < 0.5:
            b = rng.integers(-4, 5, (n, n)).astype(float)
        red = lll_reduce(b)
        u = np.array([[int(x) for x in row] for row in red.u])
        u_inv = np.rint(np.linalg.inv(u)).astype(np.int64)
        assert np.array_equal(u @ u_inv, np.eye(n, dtype=np.int64))  # inverse is integer
        for z in itertools.product(range(-2, 3), repeat=n):
            z = np.array(z)
            np.testing.assert_allclose(b @ z, red.basis_red @ (u_inv @ z), atol=1e-9)

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=1.0)
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.25)

    def test_accepts_lattice_basis(self, worked_basis):
        red = lll_reduce(LatticeBasis(worked_basis))
        assert red.basis_red.shape == (2, 2)

    def test_large_finite_data(self, worked_basis):
        # the Gram-Schmidt dot products of ~1e160 data overflow; the
        # reduction runs scaled and finds the unscaled run's transform
        ref = lll_reduce(worked_basis)
        red = lll_reduce(1e160 * worked_basis)
        np.testing.assert_array_equal(red.u, ref.u)
        np.testing.assert_allclose(red.basis_red, 1e160 * ref.basis_red, rtol=0, atol=1e148)

    @pytest.mark.parametrize("seed", range(5))
    def test_power_of_two_scaling_changes_no_bit(self, seed):
        basis = random_basis(seed)
        ref = lll_reduce(basis)
        for factor in (2.0 ** -300, 2.0 ** 300):
            red = lll_reduce(factor * basis)
            np.testing.assert_array_equal(red.u, ref.u)
            np.testing.assert_array_equal(red.basis_red, factor * ref.basis_red)


def _gram_schmidt(b):
    """Unnormalized Gram-Schmidt of the columns of b, in order."""
    gs = np.array(b, dtype=float)
    for i in range(1, b.shape[1]):
        for j in range(i):
            gj = gs[:, j]
            gs[:, i] -= ((gs[:, i] @ gj) / (gj @ gj)) * gj
    return gs


def _lll_columns_full_redo(b, u, delta):
    """Reference LLL loop that recomputes Gram-Schmidt from the basis
    vectors: every coefficient as a dot product, the whole basis after
    every swap."""
    n = b.shape[1]
    gs = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            gj = gs[:, j]
            q = round_half_even((b[:, k] @ gj) / (gj @ gj))
            if q != 0:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
        proj = b[:, k].copy()
        for j in range(k):
            gj = gs[:, j]
            proj -= ((proj @ gj) / (gj @ gj)) * gj
        gk1 = gs[:, k - 1]
        mu_kk1 = (b[:, k] @ gk1) / (gk1 @ gk1)
        if proj @ proj >= (delta - mu_kk1 ** 2) * (gk1 @ gk1):
            gs[:, k] = proj
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            gs = _gram_schmidt(b)
            k = max(k - 1, 1)


def equivalence_lattice(seed):
    """n = 2..23; every third lattice has integer entries."""
    rng = np.random.default_rng(30_000 + seed)
    n = 2 + seed % 22
    k = n + int(rng.integers(0, n + 1))
    b = rng.uniform(-4.0, 4.0, (k, n))
    return np.rint(b) if seed % 3 == 0 else b


def lll40_lattice():
    """The lattice of perfbench's lll-40 workload: X = Z G with Z (160 x 40)
    and G (40 x 40) i.i.d. N(0, 1), regularized with mu = auto."""
    rng = np.random.default_rng(2508)
    z = rng.standard_normal((160, 40))
    x = z @ rng.standard_normal((40, 40))
    return regularize(x, resolve_mu(x, "auto"))


def conditioned_lattice(cond, n=16):
    """X = Z G, unregularized, with Z (4n x n) i.i.d. N(0, 1) and G of
    condition number cond."""
    rng = np.random.default_rng(int(np.log10(cond)))
    z = rng.standard_normal((4 * n, n))
    left, _, right = np.linalg.svd(rng.standard_normal((n, n)))
    return z @ (left @ np.diag(np.logspace(0, np.log10(cond), n)) @ right)


def reference_reduction(basis, delta, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(reduction, "_lll_columns", _lll_columns_full_redo)
        return lll_reduce(basis, delta)


class TestSwapUpdate:
    """The array kernel reduces exactly as a loop that recomputes
    Gram-Schmidt from the basis vectors does."""

    @staticmethod
    def assert_same_reduction(basis, delta, monkeypatch):
        fast = lll_reduce(basis, delta)
        slow = reference_reduction(basis, delta, monkeypatch)
        assert np.array_equal(fast.basis_red.view(np.uint64), slow.basis_red.view(np.uint64))
        assert fast.u.tolist() == slow.u.tolist()

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_lattices(self, seed, monkeypatch):
        self.assert_same_reduction(equivalence_lattice(seed), 0.99, monkeypatch)

    @pytest.mark.parametrize("delta", [0.5, 0.75, 0.99])
    def test_worked_basis(self, worked_basis, delta, monkeypatch):
        self.assert_same_reduction(worked_basis, delta, monkeypatch)

    def test_lll40_lattice(self, monkeypatch):
        self.assert_same_reduction(lll40_lattice(), 0.99, monkeypatch)

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_conditioned_lattices(self, cond, monkeypatch):
        self.assert_same_reduction(conditioned_lattice(cond), 0.99, monkeypatch)


class TestArrayKernel:
    @pytest.mark.parametrize("seed, delta", [(27, 0.5), (3, 0.75)])
    def test_exact_ties_reduce_either_way(self, seed, delta, monkeypatch):
        # integer lattices where a coefficient or a Lovasz test sits exactly
        # on its threshold: the kernel and the reference may round the tie
        # apart, and both results are reduced bases of the same lattice
        basis = equivalence_lattice(seed)
        det = abs(np.prod(ql_decompose(basis).diag))
        for red in (lll_reduce(basis, delta), reference_reduction(basis, delta, monkeypatch)):
            assert is_lll_reduced(red.basis_red, delta)
            assert abs(np.prod(ql_decompose(red.basis_red).diag)) == pytest.approx(det, rel=1e-9)

    def test_layer_width(self):
        rng = np.random.default_rng(96)
        x = rng.standard_normal((4 * 96, 96))
        red = lll_reduce(regularize(x, resolve_mu(x, "auto")))
        assert is_lll_reduced(red.basis_red, red.delta)
        assert abs(abs(unimodular_det(red.u)) - 1.0) <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ill_conditioned_lattice_raises_no_float_warning(self):
        red = lll_reduce(conditioned_lattice(1e6))
        assert is_lll_reduced(red.basis_red, red.delta)

    def test_dependent_columns_rejected(self):
        with pytest.raises(RankDeficient):
            lll_reduce([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])

    def test_input_factored_once(self, worked_basis, monkeypatch):
        # one factorization to start from, one to check the result: the
        # start is also the rank check
        calls = []
        factor = reduction._ql_factors

        def counting(x):
            calls.append(x)
            return factor(x)

        monkeypatch.setattr(reduction, "_ql_factors", counting)
        lll_reduce(worked_basis)
        assert len(calls) == 2

    def test_failed_check_restarts_from_current_basis(self, worked_basis, monkeypatch):
        ref = lll_reduce(worked_basis)
        passes, checks = [], []
        run_pass, check = reduction._lll_pass, reduction.is_lll_reduced

        def recording_pass(b, u, delta):
            passes.append(b.copy())
            return run_pass(b, u, delta)

        def failing_once(b, delta):
            checks.append(b)
            return len(checks) > 1 and check(b, delta)

        monkeypatch.setattr(reduction, "_lll_pass", recording_pass)
        monkeypatch.setattr(reduction, "is_lll_reduced", failing_once)
        red = lll_reduce(worked_basis)
        assert len(passes) == 2 and len(checks) == 2
        # the restart starts from the basis the first pass left, which the
        # kernel holds as rows in reduction order and divided by 4, the power
        # of two below the largest entry
        np.testing.assert_array_equal(passes[1], ref.basis_red[:, ::-1].T / 4)
        np.testing.assert_array_equal(red.basis_red, ref.basis_red)
        assert red.u.tolist() == ref.u.tolist()

    @pytest.mark.parametrize("basis", [np.diag([2.0, 3.0]), np.array([[3.0, 5.0], [1.0, 2.0]])])
    def test_check_that_never_passes_raises(self, basis, monkeypatch):
        # a pass that changes nothing and still fails the check cannot be
        # mended by a restart
        monkeypatch.setattr(reduction, "is_lll_reduced", lambda b, delta: False)
        with pytest.raises(RuntimeError, match="did not settle"):
            lll_reduce(basis)


def _is_lll_reduced_by_dot_products(basis_red, delta, tol=1e-9):
    """The reducedness check as dot products against classical Gram-Schmidt."""
    b = np.array(basis_red[:, ::-1], dtype=float)
    gs = _gram_schmidt(b)
    n = b.shape[1]
    norms2 = np.einsum("ij,ij->j", gs, gs)
    for i in range(n):
        for j in range(i):
            if abs((b[:, i] @ gs[:, j]) / norms2[j]) > 0.5 + tol:
                return False
    for k in range(1, n):
        mu = (b[:, k] @ gs[:, k - 1]) / norms2[k - 1]
        if norms2[k] < (delta - mu ** 2) * norms2[k - 1] - tol * norms2[k - 1]:
            return False
    return True


class TestIsLllReduced:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_dot_product_definition(self, seed):
        basis = random_basis(40_000 + seed, n_max=12)
        for delta in (0.5, 0.99):
            for b in (basis, lll_reduce(basis, delta).basis_red):
                assert is_lll_reduced(b, delta) == _is_lll_reduced_by_dot_products(b, delta)

    def test_rejects_the_worked_basis(self, worked_basis):
        assert not _is_lll_reduced_by_dot_products(worked_basis, 0.75)
        assert not is_lll_reduced(worked_basis, 0.75)

    # columns in reverse: the reduction orientation reads (1, 0) first, then
    # (mu, norm), so mu_10 = mu and B_1 = norm^2
    @pytest.mark.parametrize("mu, norm, reduced", [
        (0.6, 1.0, False),          # one |mu| > 1/2, the Lovasz condition holds
        (-0.6, 1.0, False),
        (0.5, 1.0, True),           # on the bound
        (0.5 + 5e-10, 1.0, True),   # within the tolerance
        (0.5 + 1e-8, 1.0, False),
        (0.4, 0.5, False),          # size-reduced, Lovasz fails
    ])
    def test_two_dimensional_cases(self, mu, norm, reduced):
        basis = np.array([[mu, 1.0], [norm, 0.0]])
        assert _is_lll_reduced_by_dot_products(basis, 0.99) is reduced
        assert is_lll_reduced(basis, 0.99) is reduced

    def test_large_finite_data(self, worked_basis):
        red = lll_reduce(worked_basis).basis_red
        assert is_lll_reduced(1e160 * red, 0.99)
        assert not is_lll_reduced(1e160 * worked_basis, 0.99)


class TestMapSolution:
    def test_identity(self):
        u = np.eye(3, dtype=object)
        np.testing.assert_array_equal(map_solution(u, [4, -1, 2]), [4, -1, 2])

    def test_swap(self):
        u = np.array([[0, 1], [1, 0]], dtype=object)
        np.testing.assert_array_equal(map_solution(u, [3, -2]), [-2, 3])

    def test_exact_for_wide_intermediates(self):
        u = np.array([[2 ** 40, 1], [0, 1]], dtype=object)
        assert not reduction._fits_int64(u, np.array([2 ** 20, 5]))
        out = map_solution(u, [2 ** 20, 5])
        assert out[0] == 2 ** 60 + 5

    def test_overflow_reported(self):
        u = np.array([[2 ** 40]], dtype=object)
        assert not reduction._fits_int64(u, np.array([2 ** 40]))
        with pytest.raises(IntegerOverflow):
            map_solution(u, [2 ** 40])

    def test_entries_past_the_float_range_take_the_exact_path(self):
        u = np.array([[10 ** 400, 1], [0, 1]], dtype=object)
        assert not reduction._fits_int64(u, np.array([0, 3]))
        np.testing.assert_array_equal(map_solution(u, [0, 3]), [3, 3])

    @pytest.mark.parametrize("seed", range(5))
    def test_int64_and_exact_paths_agree(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(1, 40, 2))
        u = rng.integers(-1000, 1001, (n, n)).astype(object)
        v_red = rng.integers(-2 ** 20, 2 ** 20, (m, n))
        assert reduction._fits_int64(u, v_red)
        fast = map_solution(u, v_red)
        monkeypatch.setattr(reduction, "_fits_int64", lambda u, v_red: False)
        exact = map_solution(u, v_red)
        assert fast.dtype == exact.dtype == np.int64
        np.testing.assert_array_equal(fast, exact)
        np.testing.assert_array_equal(map_solution(u, v_red[0]), exact[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            map_solution(np.eye(2, dtype=object), [1, 2, 3])


class TestUnimodularDet:
    def test_exact_small(self):
        u = np.array([[3, 5], [1, 2]], dtype=object)
        assert unimodular_det(u) == 1.0
        assert unimodular_det(np.array([[0, 1], [1, 0]], dtype=object)) == -1.0

    def test_exact_with_pivoting(self):
        u = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=object)
        assert unimodular_det(u) == -1.0

    def test_singular(self):
        assert unimodular_det(np.array([[1, 1], [1, 1]], dtype=object)) == 0.0

    def test_large_matrix_uses_triangular_product(self):
        rng = np.random.default_rng(3)
        n = 16
        u = np.eye(n, dtype=object)
        # random integer shear: determinant stays exactly 1
        for _ in range(40):
            i, j = rng.integers(0, n, 2)
            if i != j:
                u[:, i] = u[:, i] + int(rng.integers(-3, 4)) * u[:, j]
        assert abs(abs(unimodular_det(u)) - 1.0) <= 1e-6


class TestUnimodularCheck:
    """lll_reduce refuses a transform whose determinant is not +-1, decided
    on the residue modulo a prime where the float determinant is off."""

    def test_residue_matches_the_exact_determinant(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 8))
            u = np.array(rng.integers(-5, 6, (n, n)), dtype=object)
            if trial % 3 == 0:
                u[:, 0] = u[:, -1]  # singular
            if trial % 5 == 0:
                u = u * 10 ** 30  # past int64, so reduced as Python ints
            det = reduction._det_bareiss(u.tolist())
            assert reduction._det_mod_prime(u) == det % reduction._DET_PRIME

    def test_ill_conditioned_lattice_reduces(self, ill_conditioned_basis):
        red = lll_reduce(ill_conditioned_basis)
        assert red.u.shape == (17, 17)
        assert reduction._det_mod_prime(red.u) in (1, reduction._DET_PRIME - 1)
        assert is_lll_reduced(red.basis_red, red.delta)
        # basis_red = basis @ u up to the rounding of the column operations,
        # small against |basis| @ |u| (the entries of basis_red cancel to ~1e-5)
        exact = (np.array(ill_conditioned_basis, dtype=object) @ red.u).astype(float)
        scale = np.abs(ill_conditioned_basis) @ np.abs(red.u).astype(float)
        assert np.all(np.abs(red.basis_red - exact) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [3, 17])
    def test_determinant_two_raises(self, n, monkeypatch):
        lll_columns = reduction._lll_columns

        def doubling(b, u, delta):
            lll_columns(b, u, delta)
            u[:, 0] *= 2

        monkeypatch.setattr(reduction, "_lll_columns", doubling)
        basis = np.random.default_rng(n).standard_normal((n + 4, n))
        with pytest.raises(RuntimeError, match="non-unimodular"):
            lll_reduce(basis)


class TestPayoff:
    def test_worked_end_to_end(self, worked_basis):
        # the greedy sweep on the raw basis lands on a suboptimal point;
        # after reduction it finds the true optimum
        t = np.array([0.4, 0.4])
        raw = babai_from_target(LatticeBasis(worked_basis), t)
        np.testing.assert_allclose(worked_basis @ raw.v, [2.0, 1.0], atol=1e-12)
        assert raw.error_l2 == pytest.approx(np.sqrt(2.92), rel=1e-12)

        red = lll_reduce(worked_basis)
        sol = babai_from_target(LatticeBasis(red.basis_red), t)
        v = map_solution(red.u, sol.v)
        np.testing.assert_allclose(worked_basis @ v, [0.0, 0.0], atol=1e-12)
        assert sol.error_l2 == pytest.approx(np.sqrt(0.32), rel=1e-12)

    def test_reduction_statistics(self):
        # tracked statistics, not theorems: reduction should help the
        # absolute bound nearly always and the greedy error most of the time
        seeds = 150
        bound_better = 0
        babai_better = 0
        ratios = []
        for s in range(seeds):
            rng = np.random.default_rng(9_000 + s)
            n = int(rng.integers(2, 9))
            k = n + int(rng.integers(0, n + 1))
            x = rng.uniform(-1.0, 1.0, (k, n))
            w = rng.uniform(-2.0, 2.0, n)
            basis = LatticeBasis(x)
            before = babai_nearest_plane(basis, w)
            red = lll_reduce(x)
            lat = LatticeBasis(red.basis_red)
            if np.sum(lat.factors.diag ** 2) <= np.sum(basis.factors.diag ** 2) + 1e-12:
                bound_better += 1
            after = babai_from_target(lat, x @ w)
            if after.error_l2 <= before.error_l2 + 1e-12:
                babai_better += 1
            if before.error_l2 > 0:
                ratios.append(after.error_l2 / before.error_l2)
        assert bound_better / seeds >= 0.95
        # the >= 90% claim is pinned at 500 seeds in the acceptance suite;
        # this smaller window only sanity-checks the trend
        assert babai_better / seeds >= 0.85
        assert np.mean(ratios) < 1.0

    def test_stronger_delta_never_much_worse(self):
        # statistic: the worst-case diagonal ratio profile should not get
        # meaningfully worse as delta grows
        deltas = (0.5, 0.75, 0.99)
        profiles = {d: [] for d in deltas}
        for s in range(60):
            b = random_basis(20_000 + s, n_max=6)
            for d in deltas:
                diag = ql_decompose(lll_reduce(b, d).basis_red).diag
                running_min = np.minimum.accumulate(diag)
                profiles[d].append(float(np.max(diag / running_min)))
        for lo, hi in zip(deltas, deltas[1:]):
            worst = np.max(np.array(profiles[hi]) - np.array(profiles[lo]))
            assert worst <= 0.05  # measured headroom: regressions stay near 1e-3
            assert np.mean(profiles[hi]) <= np.mean(profiles[lo])
