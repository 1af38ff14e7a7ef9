import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latquant.lattice
from latquant.lattice import (
    LatticeBasis,
    absolute_error_bound,
    babai_from_target,
    babai_nearest_plane,
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
        sol = solve_cvp_exact(LatticeBasis(np.eye(2)), np.array([0.4, 0.4]))
        np.testing.assert_array_equal(sol.v, [0, 0])

    def test_worked_instance_optimum(self, worked_basis):
        # this basis generates the plain integer grid (|det| = 1, integer
        # entries), so the optimum is coordinatewise rounding of t
        sol = solve_cvp_exact(LatticeBasis(worked_basis), np.array([0.4, 0.4]))
        np.testing.assert_array_equal(sol.v, [0, 0])
        np.testing.assert_allclose(worked_basis @ sol.v, [0.0, 0.0], atol=1e-15)
        assert sol.error_l2 == pytest.approx(np.sqrt(0.32), rel=1e-12)

    def test_integer_target_is_exact(self, make_instance):
        x, _ = make_instance(4, n=3, k=5)
        basis = LatticeBasis(x)
        v0 = np.array([2, -1, 3])
        sol = solve_cvp_exact(basis, x @ v0)
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
        ref = solve_cvp_exact(LatticeBasis(b), t)
        for scale in (2.0 ** -60, 2.0 ** 40, 2.0 ** 600):
            sol = solve_cvp_exact(LatticeBasis(scale * b), scale * t)
            np.testing.assert_array_equal(sol.v, ref.v)
            assert (sol.boundary_hit, sol.certified) == (ref.boundary_hit, ref.certified)
            assert sol.error_l2 == pytest.approx(scale * ref.error_l2, rel=1e-15)

    def test_large_finite_data(self, worked_basis):
        t = np.array([0.4, 0.4])
        ref = solve_cvp_exact(LatticeBasis(worked_basis), t)
        sol = solve_cvp_exact(LatticeBasis(1e160 * worked_basis), 1e160 * t)
        np.testing.assert_array_equal(sol.v, ref.v)
        assert sol.error_l2 == pytest.approx(1e160 * ref.error_l2, rel=1e-12)
        assert babai_from_target(LatticeBasis(1e160 * worked_basis), 1e160 * t).error_l2 \
            == pytest.approx(1e160 * np.sqrt(2.92), rel=1e-12)

    def test_tie_goes_to_the_first_vector_searched(self):
        # target at the center of four grid cells: all of (0,0),(0,1),(1,0),(1,1)
        # tie, and the first in search order is Babai's, rounded ties to even
        sol = solve_cvp_exact(LatticeBasis(np.eye(2)), np.array([0.5, 0.5]))
        assert sol.error_l2 == pytest.approx(np.sqrt(0.5), rel=1e-12)
        np.testing.assert_array_equal(sol.v, [0, 0])
        sol = solve_cvp_exact(LatticeBasis(np.eye(2)), np.array([1.5, 0.5]))
        np.testing.assert_array_equal(sol.v, [2, 0])

    def test_certified_after_retry(self, worked_basis):
        basis = LatticeBasis(worked_basis)
        sol = solve_cvp_exact(basis, np.array([0.4, 0.4]))
        assert sol.certified and not sol.boundary_hit
        np.testing.assert_array_equal(sol.v, [0, 0])

    def test_matches_enumeration_of_a_box_that_holds_the_optimum(self):
        # outside the box of radius r around the rounded least-squares
        # coordinates c, ||B(c - v)|| >= sigma_min (r + 1/2); r is chosen so
        # that bound passes Babai's in-span distance, which the optimum's
        # does not exceed.  Singular values in [1, 4] keep the box small.
        improved = 0
        for seed in range(200):
            rng = np.random.default_rng(90_000 + seed)
            n = int(rng.integers(1, 6))
            k = n + int(rng.integers(0, 4))
            left, _ = np.linalg.qr(rng.normal(size=(k, n)))
            right, _ = np.linalg.qr(rng.normal(size=(n, n)))
            b = left @ np.diag(rng.uniform(1.0, 4.0, n)) @ right.T
            t = rng.uniform(-3.0, 3.0, k)
            basis = LatticeBasis(b)
            greedy = babai_from_target(basis, t)
            c = np.linalg.lstsq(b, t, rcond=None)[0]
            sigma_min = np.linalg.svd(b, compute_uv=False)[-1]
            r = max(1, math.ceil(np.linalg.norm(b @ (c - greedy.v)) / sigma_min - 0.5))
            box = np.rint(c) + np.array(list(itertools.product(range(-r, r + 1), repeat=n)))
            best = np.min(np.linalg.norm(t - box @ b.T, axis=1))
            sol = solve_cvp_exact(basis, t)
            assert sol.certified
            assert sol.error_l2 == pytest.approx(best, rel=1e-12, abs=1e-12)
            improved += sol.error_l2 < greedy.error_l2 - 1e-12
        assert improved >= 10  # Babai is not optimal on these

    def test_budget_stops_at_the_best_vector_so_far(self, worked_basis, monkeypatch):
        # two nodes reach the first leaf, Babai's vector, and no further
        monkeypatch.setattr(latquant.lattice, "NODE_BUDGET", 2)
        t = np.array([0.4, 0.4])
        sol = solve_cvp_exact(LatticeBasis(worked_basis), t)
        assert not sol.certified and not sol.boundary_hit
        np.testing.assert_array_equal(sol.v, babai_from_target(LatticeBasis(worked_basis), t).v)

    def test_oracle_dominates_greedy(self):
        # seeds 200.. take n = 9..24
        for seed in range(220):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6) if seed < 200 else rng.integers(9, 25))
            k = n + int(rng.integers(0, 5))
            if seed < 200:
                k = min(k, 8)
            basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
            w = rng.uniform(-2.0, 2.0, n)
            greedy = babai_nearest_plane(basis, w)
            exact = solve_cvp_exact(basis, basis.basis @ w)
            assert exact.certified
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

    @pytest.mark.parametrize("seed", range(35))
    def test_gamma_bound_holds_vs_oracle(self, seed):
        # seeds 25..34 take n = 9..24
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6) if seed < 25 else rng.integers(9, 25))
        k = n + int(rng.integers(0, 4))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        w = rng.uniform(-2.0, 2.0, n)
        greedy = babai_nearest_plane(basis, w)
        exact = solve_cvp_exact(basis, basis.basis @ w)
        gamma = relative_error_factor(basis.factors).gamma
        assert greedy.error_l2 <= gamma * exact.error_l2 + 1e-9
