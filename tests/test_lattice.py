import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquant.lattice import (
    DimensionTooLarge,
    LatticeBasis,
    absolute_error_bound,
    babai_from_target,
    babai_nearest_plane,
    brute_force_cvp,
    relative_error_factor,
    round_half_even,
    solve_cvp_exact,
)

SQRT29 = np.sqrt(29.0)


def test_round_half_even():
    assert round_half_even(0.5) == 0
    assert round_half_even(1.5) == 2
    assert round_half_even(2.5) == 2
    assert round_half_even(-0.5) == 0
    assert round_half_even(-1.5) == -2
    assert round_half_even(3.5) == 4
    assert round_half_even(-1.2) == -1


class TestBabai:
    def test_orthonormal_basis_is_coordinatewise_rounding(self):
        sol = babai_nearest_plane(LatticeBasis(np.eye(2)), np.array([0.4, 1.6]))
        np.testing.assert_array_equal(sol.v, [0, 2])
        assert sol.error_l2 == pytest.approx(np.sqrt(0.32), rel=1e-12)

    def test_worked_trace(self, worked_basis):
        basis = LatticeBasis(worked_basis)
        w = np.array([-1.2, 0.8])
        sol = babai_nearest_plane(basis, w)
        np.testing.assert_array_equal(sol.v, [-1, 1])
        assert sol.step_coeffs[0] == pytest.approx(-1.2, abs=1e-12)
        assert sol.step_coeffs[1] == pytest.approx(19.8 / 29.0, abs=1e-12)
        assert sol.error_l2 == pytest.approx(np.sqrt(2.92), rel=1e-12)
        np.testing.assert_allclose(worked_basis @ sol.v, [2.0, 1.0], atol=1e-12)

        # independent straight-line trace of the same sweep
        q, l = basis.factors.q, basis.factors.l
        t = worked_basis @ w
        c1 = (t @ q[:, 0]) / l[0, 0]
        v1 = round(c1)
        t = t - v1 * worked_basis[:, 0]
        c2 = (t @ q[:, 1]) / l[1, 1]
        v2 = round(c2)
        t = t - v2 * worked_basis[:, 1]
        assert (v1, v2) == (-1, 1)
        np.testing.assert_allclose(sol.residual, t, atol=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_integer_input_is_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        k = n + int(rng.integers(0, 5))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        w = rng.integers(-10, 11, n).astype(float)
        sol = babai_nearest_plane(basis, w)
        np.testing.assert_array_equal(sol.v, w.astype(np.int64))
        assert sol.error_l2 == 0.0

    def test_residual_recomputable(self, make_instance):
        x, w = make_instance(21)
        basis = LatticeBasis(x)
        sol = babai_nearest_plane(basis, w)
        np.testing.assert_allclose(sol.residual, x @ w - x @ sol.v, atol=1e-10)
        assert sol.error_l2 == pytest.approx(np.linalg.norm(sol.residual), rel=1e-12)


class TestBabaiFromTarget:
    def test_identity(self):
        sol = babai_from_target(LatticeBasis(np.eye(2)), np.array([0.4, 1.6]))
        np.testing.assert_array_equal(sol.v, [0, 2])

    def test_worked_target(self, worked_basis):
        sol = babai_from_target(LatticeBasis(worked_basis), np.array([0.4, 0.4]))
        np.testing.assert_array_equal(sol.v, [-1, 1])

    def test_single_column_ignores_off_span(self):
        basis = LatticeBasis(np.array([[1.0], [0.0]]))
        sol = babai_from_target(basis, np.array([2.3, 7.0]))
        np.testing.assert_array_equal(sol.v, [2])
        assert sol.step_coeffs[0] == pytest.approx(2.3, abs=1e-15)

    def test_matches_nearest_plane_on_in_span_targets(self, make_instance):
        x, w = make_instance(33)
        basis = LatticeBasis(x)
        a = babai_nearest_plane(basis, w)
        b = babai_from_target(basis, x @ w)
        np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize("seed", range(20))
    def test_off_span_insensitivity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        k = n + int(rng.integers(1, 6))  # strictly tall so off-span space exists
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        t = rng.uniform(-3.0, 3.0, k)
        z = rng.uniform(-5.0, 5.0, k)
        q = basis.factors.q
        z -= q @ (q.T @ z)  # project out the column span
        a = babai_from_target(basis, t)
        b = babai_from_target(basis, t + z)
        if not a.fragile and not b.fragile:
            np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize("seed", range(10))
    def test_later_coefficients_invariant_to_earlier_directions(self, seed):
        # adding any multiple of Q_i must not move <t, Q_j>/L_jj for j > i
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = n + int(rng.integers(0, 5))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        q, l = basis.factors.q, basis.factors.l
        t = rng.uniform(-2.0, 2.0, k)
        i = int(rng.integers(0, n - 1))
        t_shift = t + 3.7 * q[:, i]
        for j in range(i + 1, n):
            before = (t @ q[:, j]) / l[j, j]
            after = (t_shift @ q[:, j]) / l[j, j]
            assert abs(before - after) <= 1e-10


class TestBruteForce:
    def test_identity(self):
        sol = brute_force_cvp(LatticeBasis(np.eye(2)), np.array([0.4, 0.4]), radius=2)
        np.testing.assert_array_equal(sol.v, [0, 0])

    def test_worked_instance_optimum(self, worked_basis):
        # this basis generates the plain integer grid (|det| = 1, integer
        # entries), so the optimum is coordinatewise rounding of t
        sol = brute_force_cvp(LatticeBasis(worked_basis), np.array([0.4, 0.4]), radius=3)
        np.testing.assert_array_equal(sol.v, [0, 0])
        np.testing.assert_allclose(worked_basis @ sol.v, [0.0, 0.0], atol=1e-15)
        assert sol.error_l2 == pytest.approx(np.sqrt(0.32), rel=1e-12)

    def test_integer_target_is_exact(self, make_instance):
        x, _ = make_instance(4, n=3, k=5)
        basis = LatticeBasis(x)
        v0 = np.array([2, -1, 3])
        sol = brute_force_cvp(basis, x @ v0, radius=2)
        np.testing.assert_array_equal(sol.v, v0)
        assert sol.error_l2 <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_power_of_two_rescaling_changes_nothing_but_the_scale(self, seed):
        # distances are compared in scaled units, so optimum, tie-break and
        # certificate do not depend on the data's exponent, even where the
        # unscaled squared distances overflow
        rng = np.random.default_rng(seed)
        b = rng.integers(-3, 4, (5, 3)).astype(float) + np.eye(5, 3)
        t = rng.integers(-6, 7, 5) / 2.0
        ref = brute_force_cvp(LatticeBasis(b), t)
        for scale in (2.0 ** -60, 2.0 ** 40, 2.0 ** 600):
            sol = brute_force_cvp(LatticeBasis(scale * b), scale * t)
            np.testing.assert_array_equal(sol.v, ref.v)
            assert (sol.boundary_hit, sol.certified) == (ref.boundary_hit, ref.certified)
            assert sol.error_l2 == pytest.approx(scale * ref.error_l2, rel=1e-15)

    def test_large_finite_data(self, worked_basis):
        t = np.array([0.4, 0.4])
        ref = brute_force_cvp(LatticeBasis(worked_basis), t, radius=3)
        sol = brute_force_cvp(LatticeBasis(1e160 * worked_basis), 1e160 * t, radius=3)
        np.testing.assert_array_equal(sol.v, ref.v)
        assert sol.error_l2 == pytest.approx(1e160 * ref.error_l2, rel=1e-12)
        assert babai_from_target(LatticeBasis(1e160 * worked_basis), 1e160 * t).error_l2 \
            == pytest.approx(1e160 * np.sqrt(2.92), rel=1e-12)

    def test_dimension_guard(self):
        basis = LatticeBasis(np.eye(9))
        with pytest.raises(DimensionTooLarge):
            brute_force_cvp(basis, np.zeros(9))

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            brute_force_cvp(LatticeBasis(np.eye(2)), np.zeros(2), radius=0)

    def test_boundary_flag(self):
        # target 5 steps out with radius 1: the best in-box vector sits on the edge
        sol = brute_force_cvp(LatticeBasis(np.eye(2)), np.array([0.0, 0.0]), radius=1)
        assert not sol.boundary_hit
        far = brute_force_cvp(LatticeBasis(np.eye(1)), np.array([10.0]), radius=1)
        assert not far.boundary_hit  # center follows the least-squares solution
        assert far.v[0] == 10

    def test_lexicographic_tie_break(self):
        # target at the center of four grid cells: all of (0,0),(0,1),(1,0),(1,1) tie
        sol = brute_force_cvp(LatticeBasis(np.eye(2)), np.array([0.5, 0.5]), radius=2)
        assert sol.error_l2 == pytest.approx(np.sqrt(0.5), rel=1e-12)
        np.testing.assert_array_equal(sol.v, [0, 0])

    def test_certified_after_retry(self, worked_basis):
        basis = LatticeBasis(worked_basis)
        sol = solve_cvp_exact(basis, np.array([0.4, 0.4]))
        assert sol.certified and not sol.boundary_hit
        np.testing.assert_array_equal(sol.v, [0, 0])

    def test_oracle_dominates_greedy(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            k = min(n + int(rng.integers(0, 5)), 8)
            basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
            w = rng.uniform(-2.0, 2.0, n)
            greedy = babai_nearest_plane(basis, w)
            exact = solve_cvp_exact(basis, basis.basis @ w)
            assert exact.error_l2 <= greedy.error_l2 + 1e-12


class TestBounds:
    def test_absolute_identity(self):
        bound = absolute_error_bound(LatticeBasis(np.eye(3)).factors)
        assert bound.paper == pytest.approx(np.sqrt(3.0), rel=1e-15)
        assert bound.half_step == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)

    def test_absolute_worked_profile(self, worked_basis):
        bound = absolute_error_bound(LatticeBasis(worked_basis).factors)
        assert bound.paper == pytest.approx(np.sqrt(1.0 / 29.0 + 29.0), rel=1e-12)

    def test_absolute_single_column(self):
        bound = absolute_error_bound(LatticeBasis(np.array([[2.5], [0.0]])).factors)
        assert bound.paper == pytest.approx(2.5, rel=1e-15)

    def test_gamma_identity_n4(self):
        gamma = relative_error_factor(LatticeBasis(np.eye(4)).factors)
        assert gamma.gamma == pytest.approx(np.sqrt(5.0), rel=1e-15)

    def test_gamma_worked_profile(self, worked_basis):
        gamma = relative_error_factor(LatticeBasis(worked_basis).factors)
        assert gamma.gamma == pytest.approx(np.sqrt(843.0), rel=1e-12)

    def test_gamma_single_column(self):
        gamma = relative_error_factor(LatticeBasis(np.array([[7.0], [1.0]])).factors)
        assert gamma.gamma == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_bounds_of_large_profiles_stay_finite(self, worked_basis, scale):
        # the squares of the profile overflow; the bounds do not
        diag = LatticeBasis(worked_basis).factors.diag
        bound = absolute_error_bound(scale * diag)
        assert bound.paper == pytest.approx(scale * np.sqrt(1.0 / 29.0 + 29.0), rel=1e-12)
        assert bound.half_step == bound.paper / 2.0
        gamma = relative_error_factor(scale * diag)
        assert gamma.gamma == pytest.approx(np.sqrt(843.0), rel=1e-12)
        assert gamma.loose == pytest.approx(relative_error_factor(diag).loose, rel=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_absolute_bound_holds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        k = n + int(rng.integers(0, 9))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        w = rng.uniform(-3.0, 3.0, n)
        sol = babai_nearest_plane(basis, w)
        assert sol.error_l2 ** 2 <= np.sum(basis.factors.diag ** 2) + 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_gamma_bound_holds_vs_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6))
        k = n + int(rng.integers(0, 4))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        w = rng.uniform(-2.0, 2.0, n)
        greedy = babai_nearest_plane(basis, w)
        exact = solve_cvp_exact(basis, basis.basis @ w)
        gamma = relative_error_factor(basis.factors).gamma
        assert greedy.error_l2 <= gamma * exact.error_l2 + 1e-9
