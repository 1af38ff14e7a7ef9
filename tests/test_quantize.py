import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latquant.lattice
import latquant.linalg
import latquant.quantize
import latquant.reduction
from latquant.lattice import (
    SWEEP_BLOCK,
    IntegerOverflow,
    LatticeBasis,
    babai_from_target,
    babai_nearest_plane,
    fragile_indices,
    nearest_plane_rows,
    round_half_even,
)
from latquant.linalg import (
    RankDeficient,
    check_matrix,
    gram_factor,
    invert_lower_triangular,
    l2_norm,
    ql_decompose,
)
from latquant.quantize import (
    ALGORITHMS,
    QuantConfig,
    _cached_basis,
    _gptq_rows,
    clear_basis_memo,
    cross_layer_target,
    gptq_quantize,
    gptq_quantize_recursive,
    quantize_matrix,
    regularize,
    resolve_mu,
    scaled_quantize,
    solver_basis,
)
from latquant.reduction import map_solution

# every algorithm of the batch tests, aiming at the default target and at
# an off-span x_target
BATCH_CASES = [pytest.param(algorithm, off_span, id=algorithm + ("-x_target" if off_span else ""))
               for off_span in (False, True) for algorithm in ("gptq", "babai")]


def relu(a):
    return np.maximum(a, 0.0)


class TestQuantConfig:
    def test_defaults(self):
        cfg = QuantConfig()
        assert cfg.mu == 0.0 and cfg.alpha == 1.0 and cfg.algorithm == "gptq"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": -1.0},
            {"mu": "later"},
            {"alpha": 0.0},
            {"alpha": -2.0},
            {"mu": float("nan")},
            {"mu": float("inf")},
            {"alpha": float("inf")},
            {"alpha": float("nan")},
            {"tie_tol": -1.0},
            {"clamp": (3, 1)},
            {"algorithm": "rounding"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuantConfig(**kwargs)


class TestRegularize:
    def test_no_data_at_all(self):
        out = regularize(np.zeros((0, 2)), 1.0)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_gram_matrix_identity(self, make_instance):
        x, _ = make_instance(9)
        mu = 0.37
        xr = regularize(x, mu)
        lhs = xr.T @ xr
        rhs = x.T @ x + mu ** 2 * np.eye(x.shape[1])
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_fixes_rank_deficiency(self):
        xr = regularize(np.array([[1.0, 1.0]]), 0.5)
        assert xr.shape == (3, 2)
        ql_decompose(xr)  # must not raise

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            regularize(np.eye(2), 0.0)


class TestResolveMu:
    def test_auto_uses_mean_gram_diagonal(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        # diag(X^T X) = (4, 1), mean 2.5
        assert resolve_mu(x, "auto") == pytest.approx(np.sqrt(0.025), rel=1e-12)

    def test_passthrough(self):
        assert resolve_mu(np.eye(2), 0.25) == 0.25

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0])
    def test_rejects_negative_and_non_finite(self, mu):
        with pytest.raises(ValueError, match="finite"):
            resolve_mu(np.eye(2), mu)

    def test_auto_rejects_an_overflowing_gram_diagonal(self):
        with pytest.raises(ValueError, match="finite"):
            resolve_mu(np.full((2, 2), 1e200), "auto")


class TestGptq:
    def test_identity_is_elementwise_rounding(self):
        res = gptq_quantize(np.eye(4), np.array([0.2, -0.7, 3.5, 1.1]))
        np.testing.assert_array_equal(res.v, [0, -1, 4, 1])  # 3.5 -> 4: ties to even
        assert res.error_l2 == pytest.approx(np.sqrt(0.04 + 0.09 + 0.25 + 0.01), rel=1e-12)

    def test_worked_instance_matches_greedy_lattice_sweep(self, worked_basis):
        w = np.array([-1.2, 0.8])
        res = gptq_quantize(worked_basis, w)
        np.testing.assert_array_equal(res.v, [-1, 1])
        lattice = babai_nearest_plane(LatticeBasis(worked_basis), w)
        np.testing.assert_array_equal(res.v, lattice.v)
        assert res.error_l2 == pytest.approx(lattice.error_l2, rel=1e-12)

    def test_huge_mu_degenerates_to_plain_rounding(self, make_instance):
        x, w = make_instance(17)
        cfg = QuantConfig(mu=1e8 * np.abs(x).max())
        res = gptq_quantize(x, w, cfg)
        np.testing.assert_array_equal(res.v, np.rint(w).astype(np.int64))

    def test_huge_mu_works_on_rank_deficient_input(self):
        x = np.array([[1.0, 1.0, 1.0]])  # k = 1 < n = 3
        w = np.array([0.4, 1.6, -2.2])
        res = gptq_quantize(x, w, QuantConfig(mu=1e8))
        np.testing.assert_array_equal(res.v, [0, 2, -2])

    def test_rank_deficient_without_mu_raises(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient, match="regularize"):
            gptq_quantize(x, np.array([0.3, 0.4]))

    def test_stabilized_coordinates_are_exact(self, make_instance):
        x, w = make_instance(23)
        res = gptq_quantize(x, w)
        n = w.size
        history = res.w_history
        assert len(history) == n + 1
        for j in range(n + 1):
            for i in range(min(j, n)):
                assert history[j][i] == float(res.v[i])  # exact, no tolerance
        np.testing.assert_array_equal(history[-1], res.v.astype(float))

    def test_regularized_error_reported_separately(self, make_instance):
        x, w = make_instance(29)
        res = gptq_quantize(x, w, QuantConfig(mu=0.5))
        xr = regularize(x, 0.5)
        diff = w - res.v
        assert res.error_l2 == pytest.approx(np.linalg.norm(x @ diff), rel=1e-12)
        assert res.error_regularized == pytest.approx(np.linalg.norm(xr @ diff), rel=1e-12)
        assert res.error_regularized >= res.error_l2


class TestRecursiveVariants:
    def test_identity(self):
        for variant in ("gptq_rec", "babai_proj_rec"):
            res = gptq_quantize_recursive(np.eye(2), np.array([0.4, 1.6]), variant=variant)
            np.testing.assert_array_equal(res.v, [0, 2])

    def test_worked_instance_first_coefficient(self, worked_basis):
        w = np.array([-1.2, 0.8])
        res = gptq_quantize_recursive(worked_basis, w, variant="babai_proj_rec")
        np.testing.assert_array_equal(res.v, [-1, 1])
        # the data-space coefficient <t, Q_1>/L_11 collapses to w_1
        assert res.step_coeffs[0] == pytest.approx(w[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_sequential_loop(self, seed, make_instance):
        x, w = make_instance(seed, n_max=6, k_extra=6)
        ref = gptq_quantize(x, w)
        for variant in ("gptq_rec", "babai_proj_rec"):
            rec = gptq_quantize_recursive(x, w, variant=variant)
            if not ref.fragile and not rec.fragile:
                np.testing.assert_array_equal(rec.v, ref.v)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            gptq_quantize_recursive(np.eye(2), np.zeros(2), variant="babai")


class TestStructuralIdentities:
    @pytest.mark.parametrize("seed", range(20))
    def test_first_coefficient_identity(self, seed, make_instance):
        # <X w, Q_1> / L_11 == w_1
        x, w = make_instance(seed)
        f = ql_decompose(x)
        coeff = (x @ w) @ f.q[:, 0] / f.l[0, 0]
        assert abs(coeff - w[0]) <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_suffix_factor_identity(self, seed, make_instance):
        # inverting the trailing block of L equals the trailing block of L^-1
        x, _ = make_instance(seed, n_max=8)
        f = ql_decompose(x)
        if f.l.shape[0] < 2:
            return
        lhs = invert_lower_triangular(f.l[1:, 1:])
        rhs = f.l_inv[1:, 1:]
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("seed", range(20))
    def test_suffix_ql_is_suffix_of_ql(self, seed, make_instance):
        x, _ = make_instance(seed, n_max=8)
        if x.shape[1] < 2:
            return
        f = ql_decompose(x)
        f_suffix = ql_decompose(x[:, 1:])
        np.testing.assert_allclose(f_suffix.q, f.q[:, 1:], atol=1e-9)
        np.testing.assert_allclose(f_suffix.l, f.l[1:, 1:], atol=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_recursion_step_shifts_target_along_q1(self, seed, make_instance):
        # the suffix product differs from (X w - v_1 X_1) only along Q_1,
        # with coefficient (v_1 - w_1) / L~_11
        x, w = make_instance(seed)
        f = ql_decompose(x)
        lt = f.l_inv
        v1 = round_half_even(w[0])
        kappa = (v1 - w[0]) / lt[0, 0]
        w_next = w + kappa * lt[:, 0]
        d = x[:, 1:] @ w_next[1:] - (x @ w - v1 * x[:, 0])
        q1 = f.q[:, 0]
        parallel = float(d @ q1)
        orthogonal = d - parallel * q1
        assert np.linalg.norm(orthogonal) <= 1e-9 * np.linalg.norm(x)
        assert abs(parallel - kappa) <= 1e-9


class TestScaledQuantize:
    def test_alpha_one_matches_plain(self, make_instance):
        x, w = make_instance(31)
        a = scaled_quantize(x, w, QuantConfig(alpha=1.0))
        b = gptq_quantize(x, w)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.error_l2 == pytest.approx(b.error_l2, rel=1e-12)

    def test_half_grid(self):
        res = scaled_quantize(np.eye(2), np.array([0.3, 0.8]), QuantConfig(alpha=0.5))
        np.testing.assert_array_equal(res.v, [1, 2])
        np.testing.assert_allclose(res.values, [0.5, 1.0], atol=1e-15)

    @given(st.integers(0, 10_000), st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        k = n + int(rng.integers(0, 5))
        x = rng.uniform(-1.0, 1.0, (k, n))
        w = rng.uniform(-2.0, 2.0, n)
        alpha = 0.25
        base = scaled_quantize(x, w, QuantConfig(alpha=alpha))
        scaled = scaled_quantize(x, c * w, QuantConfig(alpha=c * alpha))
        if not base.fragile and not scaled.fragile:
            np.testing.assert_array_equal(base.v, scaled.v)

    def test_algorithm_dispatch(self, make_instance):
        x, w = make_instance(37)
        outs = {
            algo: scaled_quantize(x, w, QuantConfig(alpha=0.3, algorithm=algo)).v
            for algo in ("gptq", "gptq_rec", "babai", "babai_proj_rec")
        }
        ref = outs["gptq"]
        for v in outs.values():
            np.testing.assert_array_equal(v, ref)

    def test_clamp_applied_after_run(self):
        res = scaled_quantize(
            np.eye(3), np.array([5.4, -3.9, 0.2]), QuantConfig(clamp=(-2, 2))
        )
        np.testing.assert_array_equal(res.v, [2, -2, 0])
        np.testing.assert_allclose(res.values, [2.0, -2.0, 0.0], atol=1e-15)
        # clamping moved v away from the optimum; error is recomputed
        assert res.error_l2 == pytest.approx(np.linalg.norm([3.4, -1.9, 0.2]), rel=1e-12)


def assert_batch_is_stacked_single_rows(rng, x, weights, algorithm, off_span, **kwargs):
    """quantize_matrix gives every row of weights the bits of its m = 1
    solve, aiming at the default target or (off_span) at an x_target off
    the span of x drawn from rng."""
    x_target = x + 0.05 * rng.standard_normal(x.shape) if off_span else None
    cfg = QuantConfig(mu=0.1, alpha=0.3, algorithm=algorithm)
    v, rep = quantize_matrix(weights, x, cfg, x_target=x_target, **kwargs)
    rows = [quantize_matrix(w[None, :], x, cfg, x_target=x_target, **kwargs) for w in weights]
    np.testing.assert_array_equal(v, np.vstack([r[0] for r in rows]))
    np.testing.assert_array_equal(
        bits(rep.step_coeffs), bits(np.vstack([r[1].step_coeffs for r in rows])))


class TestQuantizeMatrix:
    def test_identical_rows_identical_outputs(self, make_instance):
        x, w = make_instance(41)
        weights = np.vstack([w, w, w])
        v, _ = quantize_matrix(weights, x)
        np.testing.assert_array_equal(v[0], v[1])
        np.testing.assert_array_equal(v[0], v[2])

    def test_identity_calibration(self):
        weights = np.array([[0.4, 1.6], [-0.7, 2.2]])
        v, rep = quantize_matrix(weights, np.eye(2), QuantConfig(alpha=1.0))
        np.testing.assert_array_equal(v, np.rint(weights).astype(np.int64))
        assert rep.total_error_l2 == pytest.approx(
            np.linalg.norm(weights - np.rint(weights)), rel=1e-12
        )

    def test_total_error_is_row_sum(self, make_instance):
        rng = np.random.default_rng(43)
        x = rng.uniform(-1.0, 1.0, (8, 3))
        weights = rng.uniform(-2.0, 2.0, (4, 3))
        v, rep = quantize_matrix(weights, x)
        row_errs = [gptq_quantize(x, weights[i]).error_l2 for i in range(4)]
        for i in range(4):
            np.testing.assert_array_equal(v[i], gptq_quantize(x, weights[i]).v)
        assert rep.total_error_l2 ** 2 == pytest.approx(
            sum(e ** 2 for e in row_errs), rel=1e-12
        )

    @pytest.mark.parametrize("algorithm, off_span", BATCH_CASES)
    def test_batch_matches_stacked_single_rows(self, algorithm, off_span):
        # the row-batched sweep gives every row the bits of its m = 1 solve
        rng = np.random.default_rng(47)
        x = rng.uniform(-1.0, 1.0, (10, 4))
        weights = rng.uniform(-2.0, 2.0, (16, 4))
        assert_batch_is_stacked_single_rows(rng, x, weights, algorithm, off_span)

    @pytest.mark.parametrize("algorithm, off_span", BATCH_CASES)
    def test_reduced_batch_matches_stacked_single_rows(self, algorithm, off_span):
        # the same on an LLL-reduced basis, where each row is pulled back
        rng = np.random.default_rng(53)
        x = rng.uniform(-1.0, 1.0, (12, 6)) @ rng.uniform(-1.0, 1.0, (6, 6))
        weights = rng.uniform(-2.0, 2.0, (16, 6))
        assert_batch_is_stacked_single_rows(rng, x, weights, algorithm, off_span,
                                            reduce_delta=0.99)

    @pytest.mark.parametrize("algorithm, off_span", BATCH_CASES)
    def test_batch_matches_stacked_single_rows_past_one_block(self, algorithm, off_span):
        # n > SWEEP_BLOCK: the block products, too, give every row the bits
        # of its m = 1 solve
        rng = np.random.default_rng(59)
        x = rng.uniform(-1.0, 1.0, (300, 150))
        weights = rng.uniform(-2.0, 2.0, (16, 150))
        assert_batch_is_stacked_single_rows(rng, x, weights, algorithm, off_span)

    @pytest.mark.parametrize("algorithm, off_span", BATCH_CASES)
    def test_reduced_batch_matches_stacked_single_rows_past_one_block(self, algorithm,
                                                                      off_span):
        # n = 80 keeps the 9 LLL reductions of a case to about 0.6 s
        rng = np.random.default_rng(61)
        x = rng.uniform(-1.0, 1.0, (160, 80))
        weights = rng.uniform(-2.0, 2.0, (8, 80))
        assert_batch_is_stacked_single_rows(rng, x, weights, algorithm, off_span,
                                            reduce_delta=0.99)

    def test_overflow_is_an_error_not_a_wrapped_value(self):
        x = np.array([[3.0, 5.0], [1.0, 2.0]])
        for algorithm in ALGORITHMS:
            with pytest.raises(IntegerOverflow):
                quantize_matrix(np.array([[1e19, 0.5]]), x, QuantConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ["gptq", "babai"])
    def test_target_on_reduced_basis_is_nearest_plane_from_the_target(self, algorithm):
        rng = np.random.default_rng(59)
        x = rng.uniform(-1.0, 1.0, (12, 5)) @ rng.uniform(-1.0, 1.0, (5, 5))
        x_target = x + 0.05 * rng.standard_normal(x.shape)
        weights = rng.uniform(-2.0, 2.0, (8, 5))
        cfg = QuantConfig(mu=0.1, alpha=0.3, algorithm=algorithm)
        v, _ = quantize_matrix(weights, x, cfg, reduce_delta=0.99, x_target=x_target)
        sb = solver_basis(x, cfg.mu, 0.99)
        lattice = LatticeBasis(sb.basis)
        for row, w in zip(v, weights):
            # the target is zero on the mu * I rows
            t_emb = np.concatenate([x_target @ w / cfg.alpha, np.zeros(5)])
            sol = babai_from_target(lattice, t_emb)
            assert sol.fragile == []
            np.testing.assert_array_equal(row, map_solution(sb.u, sol.v))

    def test_x_target_x_is_the_default_only_without_mu(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(-1.0, 1.0, (10, 4))
        weights = rng.uniform(-2.0, 2.0, (5, 4))
        v, rep = quantize_matrix(weights, x)
        v_t, rep_t = quantize_matrix(weights, x, x_target=x)
        np.testing.assert_array_equal(v_t, v)
        np.testing.assert_allclose(rep_t.row_errors, rep.row_errors, rtol=1e-12)
        # with a large mu the default target X_solver w is nearly mu * w, so
        # v = round(w); the x_target one is zero on the mu * I rows, so v = 0
        cfg = QuantConfig(mu=1e6)
        v, _ = quantize_matrix(weights, x, cfg)
        v_t, _ = quantize_matrix(weights, x, cfg, x_target=x)
        np.testing.assert_array_equal(v, np.rint(weights))
        np.testing.assert_array_equal(v_t, np.zeros_like(v_t))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            quantize_matrix(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(ValueError, match="shapes differ"):
            quantize_matrix(np.zeros((2, 2)), np.eye(2), x_target=np.eye(3, 2))


class TestCrossLayer:
    def test_same_lattice_reduces_to_single_layer(self, make_instance):
        x, w = make_instance(51)
        out = cross_layer_target(x, x, w)
        ref = gptq_quantize(x, w)
        np.testing.assert_array_equal(out.result.v, ref.v)
        assert np.abs(out.w_hat - w).max() <= 1e-10
        assert out.routes_agree
        assert out.off_span_residual <= 1e-10

    def test_rescaled_lattice(self):
        out = cross_layer_target(np.eye(2), 2.0 * np.eye(2), np.array([0.4, 1.6]))
        np.testing.assert_allclose(out.w_hat, [0.2, 0.8], atol=1e-12)
        np.testing.assert_array_equal(out.result.v, [0, 1])

    @pytest.mark.parametrize("seed", range(40))
    def test_route_equality_on_perturbed_lattices(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (8, 3))
        x_hat = x + 0.01 * rng.standard_normal((8, 3))
        w = rng.uniform(-2.0, 2.0, 3)
        out = cross_layer_target(x, x_hat, w)
        assert out.routes_agree
        assert out.off_span_residual > 0  # the target really is off-span

    @pytest.mark.parametrize("seed", range(15))
    def test_route_equality_survives_regularization(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(-1.0, 1.0, (6, 4))
        x_hat = x + 0.05 * rng.standard_normal((6, 4))
        w = rng.uniform(-2.0, 2.0, 4)
        out = cross_layer_target(x, x_hat, w, QuantConfig(mu=0.3))
        assert out.routes_agree

    def test_large_finite_data_stays_finite(self):
        # x_hat^T t and the squared norms of ~1e160 data overflow; the
        # coordinates and the norms themselves do not
        x = np.array([[3.0, 5.0], [1.0, 2.0]])
        w = np.array([0.4, 0.7])
        small, large = cross_layer_target(x, x, w), cross_layer_target(1e160 * x, 1e160 * x, w)
        np.testing.assert_array_equal(large.result.v, small.result.v)
        for got, want in ((large.result.error_l2, small.result.error_l2),
                          (large.projected_error, small.projected_error)):
            assert got == pytest.approx(1e160 * want, rel=1e-12)
        assert np.isfinite(large.off_span_residual)
        assert large.off_span_residual <= 1e-10 * large.result.error_l2
        assert large.routes_agree

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            cross_layer_target(np.eye(2), np.eye(3), np.zeros(2))

    def test_clamp_applies_to_the_result_after_the_routes_are_compared(self):
        rng = np.random.default_rng(73)
        x = rng.uniform(-1.0, 1.0, (10, 4))
        x_hat = x + 0.02 * rng.standard_normal(x.shape)
        w = np.array([3.1, -2.6, 0.4, 1.7])
        cfg = QuantConfig(mu=0.2, alpha=0.5, clamp=(-2, 2))
        free = cross_layer_target(x, x_hat, w, QuantConfig(mu=0.2, alpha=0.5))
        out = cross_layer_target(x, x_hat, w, cfg)
        assert np.abs(free.result.v).max() > 2  # the clamp moves something
        np.testing.assert_array_equal(out.result.v, np.clip(free.result.v, -2, 2))
        np.testing.assert_array_equal(out.result.values, 0.5 * out.result.v)
        t = x @ w
        assert out.result.error_l2 == pytest.approx(
            l2_norm(t - x_hat @ out.result.values), rel=1e-12)
        t_emb = np.concatenate([t / 0.5, np.zeros(4)])
        assert out.result.error_regularized == pytest.approx(
            0.5 * l2_norm(t_emb - regularize(x_hat, 0.2) @ out.result.v), rel=1e-12)
        # the routes are compared unclamped: the GPTQ route keeps its
        # out-of-range entries and still agrees
        np.testing.assert_array_equal(out.v_gptq_route, free.v_gptq_route)
        assert np.abs(out.v_gptq_route).max() > 2
        assert out.routes_agree


class TestCrossLayerMatrix:
    """quantize_matrix with x_target against per-row cross_layer_target on
    a 3-layer ReLU chain."""

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("algorithm", ["gptq", "babai"])
    def test_chain_matches_per_row_wrapper(self, algorithm, mu):
        rng = np.random.default_rng(79)
        n, alpha = 6, 0.25
        x = x_hat = rng.standard_normal((48, n))
        cfg = QuantConfig(mu=mu, alpha=alpha, algorithm=algorithm)
        for _ in range(3):
            weights = rng.standard_normal((n, n)) * np.sqrt(2.0 / n)
            v, rep = quantize_matrix(weights, x_hat, cfg, x_target=x)
            rows = [cross_layer_target(x, x_hat, w, cfg).result for w in weights]
            np.testing.assert_array_equal(v, np.array([r.v for r in rows]))
            np.testing.assert_allclose(rep.row_errors, [r.error_l2 for r in rows], rtol=1e-12)
            np.testing.assert_allclose(rep.row_errors_regularized,
                                       [r.error_regularized for r in rows], rtol=1e-12)
            if algorithm == "babai":  # the wrapper's sweep
                np.testing.assert_array_equal(rep.step_coeffs,
                                              np.array([r.step_coeffs for r in rows]))
            x, x_hat = relu(x @ weights.T), relu(x_hat @ (alpha * v).T)


def conditioned_instance(seed: int, decade: int, k: int = 64, n: int = 32):
    """x (k x n) with singular values log-spaced from 1 down to
    10^-decade, and four weight rows in [-8, 8]."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.logspace(0, -decade, n)) @ v.T, rng.uniform(-8.0, 8.0, (4, n))


def outcome(weights, x):
    """V and the step coefficients of quantize_matrix at mu = 0, or the
    index of its RankDeficient."""
    try:
        v, rep = quantize_matrix(weights, x)
    except RankDeficient as exc:
        return exc.index
    return v, rep.step_coeffs


class TestGramRoute:
    """quantize_matrix factors the Gram matrix, against the QR route
    (gram_factor switched off), over cond 1e0 - 1e12 at mu = 0."""

    @pytest.mark.filterwarnings("ignore::latquant.linalg.IllConditionedWarning")
    @pytest.mark.parametrize("decade", range(13))
    def test_agreement_sweep(self, decade, monkeypatch):
        for seed in range(20):
            x, weights = conditioned_instance(1000 * decade + seed, decade)
            gram_side = gram_factor(x.T @ x) is not None
            if decade <= 2:
                assert gram_side
            if decade >= 4:
                assert not gram_side
            got = outcome(weights, x)
            with monkeypatch.context() as m:
                m.setattr(latquant.quantize, "gram_factor", lambda h: None)
                want = outcome(weights, x)
            if not gram_side:
                # the same factor L: bit for bit, errors included
                assert type(got) is type(want)
                if isinstance(want, int):
                    assert got == want
                else:
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])
                continue
            (v, coeffs), (v_qr, coeffs_qr) = got, want
            assert np.abs(coeffs - coeffs_qr).max() <= 1e-10
            fragile = fragile_indices(coeffs.ravel()) + fragile_indices(coeffs_qr.ravel())
            solid = np.setdiff1d(np.arange(v.size), fragile)
            np.testing.assert_array_equal(v.ravel()[solid], v_qr.ravel()[solid])

    def test_duplicate_columns_still_rank_deficient(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        for call in (lambda: quantize_matrix(np.array([[0.4, 0.7]]), x),
                     lambda: cross_layer_target(x, x, np.array([0.4, 0.7]))):
            with pytest.raises(RankDeficient) as exc:
                call()
            assert exc.value.index == 0

    def test_no_qr_factorization_with_mu_auto(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ql_decompose(*args, **kwargs)

        for module in (latquant.linalg, latquant.lattice, latquant.quantize):
            monkeypatch.setattr(module, "ql_decompose", counting)
        rng = np.random.default_rng(67)
        x = rng.standard_normal((1024, 64))
        x_hat = x + 0.05 * rng.standard_normal((1024, 64))
        weights = rng.standard_normal((8, 64)) / 4
        cfg = QuantConfig(mu="auto", alpha=0.1)
        quantize_matrix(weights, x, cfg)
        cross_layer_target(x, x_hat, weights[0], cfg)
        assert calls == []

    @pytest.mark.parametrize("decade", [0, 6])
    def test_l_inv_is_the_inverse_of_l_bit_for_bit(self, decade):
        # n = 80 spans two diagonal blocks of the inverse; decade 0 takes
        # the Gram route, decade 6 the QR route
        x, _ = conditioned_instance(decade, decade, k=160, n=80)
        assert (gram_factor(x.T @ x) is not None) == (decade == 0)
        sb = solver_basis(x, 0.0)
        np.testing.assert_array_equal(sb.l_inv, invert_lower_triangular(sb.l))

    @pytest.mark.parametrize("call", ["gptq", "babai", "cross_layer_target", "x_target"])
    def test_each_factorization_is_inverted_once(self, call, monkeypatch):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((320, 80))
        weights = rng.standard_normal((3, 80))
        assert gram_factor(x.T @ x) is not None
        calls = []
        block_inverses = latquant.linalg._diagonal_block_inverses

        def counting(l):
            calls.append(l.shape)
            return block_inverses(l)

        monkeypatch.setattr(latquant.linalg, "_diagonal_block_inverses", counting)
        if call == "cross_layer_target":
            cross_layer_target(x, x + 0.01 * rng.standard_normal(x.shape), weights[0])
        elif call == "x_target":
            quantize_matrix(weights, x, x_target=x + 0.01 * rng.standard_normal(x.shape))
        else:
            quantize_matrix(weights, x, QuantConfig(algorithm=call))
        assert calls == [(80, 80)]


def bits(a):
    """The bytes of a as float64 or int64, for bit-for-bit comparisons."""
    return np.atleast_1d(np.asarray(a)).view(np.uint8)


def count_gram_factors(monkeypatch):
    """Count quantize's gram_factor calls; returns the list of call shapes."""
    calls = []

    def counting(h):
        calls.append(h.shape)
        return gram_factor(h)

    monkeypatch.setattr(latquant.quantize, "gram_factor", counting)
    return calls


def assert_same_cross_layer(got, want):
    for a, b in ((got.result.v, want.result.v), (got.result.values, want.result.values),
                 (got.result.error_l2, want.result.error_l2),
                 (got.result.error_regularized, want.result.error_regularized),
                 (got.result.step_coeffs, want.result.step_coeffs),
                 (got.w_hat, want.w_hat), (got.v_gptq_route, want.v_gptq_route),
                 (got.off_span_residual, want.off_span_residual),
                 (got.projected_error, want.projected_error)):
        np.testing.assert_array_equal(bits(a), bits(b))
    assert got.result.fragile == want.result.fragile
    assert got.result.w_history == want.result.w_history is None
    assert got.routes_agree == want.routes_agree


class TestBasisMemo:
    """cross_layer_target shares one factorization across calls on the
    same lattice, through the one-entry memo _cached_basis; no other entry
    point reads or fills it."""

    def fresh(self, monkeypatch, *args):
        clear_basis_memo()
        return cross_layer_target(*args)

    @pytest.mark.parametrize("mu", ["auto", 0.0])
    def test_relu_chain_is_bit_identical_to_a_fresh_factorization_per_row(
            self, mu, monkeypatch):
        rng = np.random.default_rng(83)
        n, alpha = 12, 0.25
        x = x_hat = rng.standard_normal((96, n))
        cfg = QuantConfig(mu=mu, alpha=alpha)
        factored = 0
        for _ in range(3):
            weights = rng.standard_normal((n, n)) * np.sqrt(2.0 / n)
            calls = count_gram_factors(monkeypatch)
            cached = [cross_layer_target(x, x_hat, w, cfg) for w in weights]
            factored += len(calls)
            for w, got in zip(weights, cached):
                assert_same_cross_layer(got, self.fresh(monkeypatch, x, x_hat, w, cfg))
            v = np.array([r.result.v for r in cached])
            x, x_hat = relu(x @ weights.T), relu(x_hat @ (alpha * v).T)
        assert factored == 3

    def test_in_place_change_of_x_hat_factors_again(self, monkeypatch):
        rng = np.random.default_rng(89)
        x = rng.standard_normal((40, 6))
        x_hat = x + 0.05 * rng.standard_normal(x.shape)
        w = rng.uniform(-2.0, 2.0, 6)
        cfg = QuantConfig(mu=0.3, alpha=0.5)
        calls = count_gram_factors(monkeypatch)
        before = cross_layer_target(x, x_hat, w, cfg)
        x_hat[3, 2] += 0.75
        after = cross_layer_target(x, x_hat, w, cfg)
        assert len(calls) == 2
        assert_same_cross_layer(after, self.fresh(monkeypatch, x, x_hat, w, cfg))
        assert not np.array_equal(after.w_hat, before.w_hat)

    def test_changed_mu_shape_or_order_factors_again(self, monkeypatch):
        rng = np.random.default_rng(97)
        x = rng.standard_normal((40, 6))
        x_hat = x + 0.05 * rng.standard_normal(x.shape)
        w = rng.uniform(-2.0, 2.0, 6)
        calls = count_gram_factors(monkeypatch)
        cases = [
            (x, x_hat, w, QuantConfig(mu=0.3)),
            # the same values in Fortran order
            (x, np.asfortranarray(x_hat), w, QuantConfig(mu=0.3)),
            (x, x_hat, w, QuantConfig(mu=0.3)),
            # the same bytes as a 20 x 12 matrix
            (x.reshape(20, 12), x_hat.reshape(20, 12), np.tile(w, 2), QuantConfig(mu=0.3)),
            (x, x_hat, w, QuantConfig(mu=resolve_mu(x_hat, "auto"))),
            (x, x_hat, w, QuantConfig(mu="auto")),
        ]
        for args in cases:  # each differs from the one before it
            calls.clear()
            got = cross_layer_target(*args)
            cross_layer_target(*args)  # the repeat is a hit
            assert len(calls) == 1
            assert_same_cross_layer(got, self.fresh(monkeypatch, *args))

    def test_a_64_row_layer_factors_once(self, monkeypatch):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((256, 64))
        x_hat = x + 0.05 * rng.standard_normal(x.shape)
        weights = rng.standard_normal((64, 64)) / 8
        calls = count_gram_factors(monkeypatch)
        for w in weights:
            cross_layer_target(x, x_hat, w, QuantConfig(mu="auto", alpha=1 / 16))
        assert calls == [(64, 64)]

    def test_the_memo_keeps_a_private_read_only_copy(self):
        x = np.random.default_rng(103).standard_normal((20, 5))
        sb = _cached_basis(x, 0.5)
        assert _cached_basis(x.copy(), 0.5) is sb
        assert not np.shares_memory(sb.x, x)
        for a in (sb.x, sb.x_solver, sb.basis, sb.l, sb.l_inv):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        x[0, 0] += 1.0
        assert _cached_basis(x, 0.5) is not sb

    def test_strided_input_is_not_memoized(self, monkeypatch):
        rng = np.random.default_rng(107)
        x = rng.standard_normal((30, 12))[:, ::2]
        calls = count_gram_factors(monkeypatch)
        for _ in range(2):
            cross_layer_target(x, x, rng.uniform(-2.0, 2.0, 6))
        assert len(calls) == 2
        assert latquant.quantize._last_basis is None
        # a strided x with the values and shape of the memoized F-ordered
        # one is not looked up: it gets the basis of its own products
        x_f = np.asfortranarray(x)
        sb_f = _cached_basis(x_f, 0.4)
        sb = _cached_basis(x, 0.4)
        assert len(calls) == 4
        assert sb is not sb_f and latquant.quantize._last_basis[2] is sb_f
        want = solver_basis(x, 0.4)
        for a, b in ((sb.x_solver, want.x_solver), (sb.l, want.l), (sb.l_inv, want.l_inv)):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_clear_basis_memo_releases_the_basis(self, monkeypatch):
        x = np.random.default_rng(113).standard_normal((20, 5))
        calls = count_gram_factors(monkeypatch)
        sb = _cached_basis(x, 0.5)
        clear_basis_memo()
        assert latquant.quantize._last_basis is None
        assert _cached_basis(x, 0.5) is not sb
        assert len(calls) == 2

    @pytest.mark.parametrize("call, names", [
        (lambda x, w: cross_layer_target(x, x, w, QuantConfig(mu="auto")), ["x", "x_hat"]),
        (lambda x, w: scaled_quantize(x, w, QuantConfig(mu="auto")), ["weights", "x"]),
    ])
    def test_each_matrix_is_validated_once_per_call(self, call, names, monkeypatch):
        # a memo miss and a hit alike take one check_matrix pass per input
        rng = np.random.default_rng(137)
        x = rng.standard_normal((30, 7))
        checked = []

        def counting(a, name="matrix", min_rows=1):
            checked.append(name)
            return check_matrix(a, name, min_rows)

        monkeypatch.setattr(latquant.quantize, "check_matrix", counting)
        for w in rng.uniform(-3.0, 3.0, (2, 7)):
            call(x, w)
        assert checked == names * 2

    def test_gptq_quantize_keeps_nothing(self, monkeypatch):
        # no caller repeats x through gptq_quantize, so it factors every
        # call and leaves the memo alone
        rng = np.random.default_rng(127)
        x = rng.standard_normal((30, 7))
        calls = count_gram_factors(monkeypatch)
        for w in rng.uniform(-3.0, 3.0, (3, 7)):
            gptq_quantize(x, w)
        assert len(calls) == 3
        assert latquant.quantize._last_basis is None

    @pytest.mark.parametrize("call", [
        scaled_quantize,
        lambda x, w: scaled_quantize(x, w, QuantConfig(algorithm="babai")),
        gptq_quantize_recursive,
    ], ids=["scaled_quantize-gptq", "scaled_quantize-babai", "gptq_quantize_recursive"])
    def test_one_row_wrappers_keep_nothing(self, call, monkeypatch):
        # the one-row wrappers of quantize_matrix factor on every call, even
        # with a memo entry for that x and mu, and leave the memo as it was
        rng = np.random.default_rng(127)
        x = rng.standard_normal((30, 7))
        _cached_basis(x, 0.0)
        memo = latquant.quantize._last_basis
        calls = count_gram_factors(monkeypatch)
        for w in rng.uniform(-3.0, 3.0, (3, 7)):
            call(x, w)
        assert len(calls) == 3
        assert latquant.quantize._last_basis is memo


def gptq_rows_outer(l_inv, w, history=None):
    """The parameter-space sweep as it was written before the kernel in
    quantize._gptq_rows: np.outer updates and v written back into w."""
    w = np.array(w, dtype=float)
    coeffs = np.empty_like(w)
    if history is not None:
        history.append(w[0].copy())
    for i in range(w.shape[1]):
        coeffs[:, i] = c = w[:, i].copy()
        v = np.rint(c)
        w[:, i + 1 :] += np.outer((v - c) / l_inv[i, i], l_inv[i + 1 :, i])
        w[:, i] = v
        if history is not None:
            history.append(w[0].copy())
    return w.astype(np.int64), coeffs


def nearest_plane_outer(l, p):
    """The nearest-plane sweep as it was written before the kernel in
    lattice.nearest_plane_rows."""
    p = np.array(p, dtype=float)
    v = np.empty_like(p)
    coeffs = np.empty_like(p)
    for i in range(p.shape[1]):
        coeffs[:, i] = c = p[:, i] / l[i, i]
        v[:, i] = np.rint(c)
        p[:, i + 1 :] -= np.outer(v[:, i], l[i + 1 :, i])
    return v.astype(np.int64), coeffs


def tie_heavy_lattice(seed: int, n: int):
    """An integer lower-triangular L with diagonal entries 1 or 2, and its
    inverse, which is exact in float64 (dyadic entries): on half-integer
    or integer inputs most coefficients are exact ties."""
    rng = np.random.default_rng(seed)
    l = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.diag(rng.integers(1, 3, n))
    return l.astype(float), np.linalg.inv(l)


def block_tie_lattice(seed: int, n: int):
    """L = [[D1, 0], [C, D2]] with D1, D2 diagonal with entries 1 or 2 and
    C integer in [-2, 2], and its inverse [[D1^-1, 0], [-D2^-1 C D1^-1,
    D2^-1]].  No entry of either has a denominator past 4, so on
    half-integer or integer inputs every sum either sweep takes is exact
    in float64, in any order, and most coefficients are exact ties."""
    rng = np.random.default_rng(seed)
    h = n // 2
    d = rng.integers(1, 3, n).astype(float)
    c = rng.integers(-2, 3, (n - h, h)).astype(float)
    l, l_inv = np.diag(d), np.diag(1.0 / d)
    l[h:, :h] = c
    l_inv[h:, :h] = -(c / d[h:, None]) / d[None, :h]
    return l, l_inv


class TestSweepKernels:
    """The two row kernels against the np.outer sweeps they replaced: up
    to SWEEP_BLOCK columns the same float operations, so the same bits;
    past it the block products sum in another order."""

    @pytest.mark.parametrize("m", [1, 512])
    def test_random_rows(self, m):
        rng = np.random.default_rng(113 + m)
        sb = solver_basis(rng.standard_normal((96, 24)), 0.2)
        w = rng.uniform(-8.0, 8.0, (m, 24))
        p = w @ sb.l.T
        for got, want in ((_gptq_rows(sb.l_inv, w), gptq_rows_outer(sb.l_inv, w)),
                          (nearest_plane_rows(sb.l, p), nearest_plane_outer(sb.l, p))):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(bits(got[1]), bits(want[1]))

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_integer_lattices(self, seed):
        l, l_inv = tie_heavy_lattice(seed, 12)
        rng = np.random.default_rng(127 + seed)
        w = rng.integers(-16, 17, (64, 12)) / 2
        p = rng.integers(-16, 17, (64, 12)).astype(float)
        got, want = _gptq_rows(l_inv, w), gptq_rows_outer(l_inv, w)
        assert fragile_indices(want[1].ravel())  # ties do occur
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(bits(got[1]), bits(want[1]))
        got, want = nearest_plane_rows(l, p), nearest_plane_outer(l, p)
        assert fragile_indices(want[1].ravel())
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(bits(got[1]), bits(want[1]))

    @pytest.mark.parametrize("m", [1, 300])
    @pytest.mark.parametrize("n", [SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 150])
    def test_block_edges(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        sb = solver_basis(rng.standard_normal((4 * n, n)), 0.2)
        w = rng.uniform(-8.0, 8.0, (m, n))
        p = w @ sb.l.T
        for got, want in ((_gptq_rows(sb.l_inv, w), gptq_rows_outer(sb.l_inv, w)),
                          (nearest_plane_rows(sb.l, p), nearest_plane_outer(sb.l, p))):
            if n <= SWEEP_BLOCK:
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(bits(got[1]), bits(want[1]))
                continue
            solid = np.ones(m * n, dtype=bool)
            solid[fragile_indices(got[1].ravel()) + fragile_indices(want[1].ravel())] = False
            np.testing.assert_array_equal(got[0].ravel()[solid], want[0].ravel()[solid])
            np.testing.assert_allclose(got[1], want[1], rtol=0,
                                       atol=1e-12 * np.max(np.abs(want[1])))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_lattices_past_one_block(self, seed):
        # exact arithmetic: the block products change no bit, ties included
        n = SWEEP_BLOCK + 16
        l, l_inv = block_tie_lattice(seed, n)
        np.testing.assert_array_equal(l @ l_inv, np.eye(n))
        rng = np.random.default_rng(139 + seed)
        w = rng.integers(-16, 17, (64, n)) / 2
        p = rng.integers(-16, 17, (64, n)).astype(float)
        for got, want in ((_gptq_rows(l_inv, w), gptq_rows_outer(l_inv, w)),
                          (nearest_plane_rows(l, p), nearest_plane_outer(l, p))):
            assert fragile_indices(want[1][:, SWEEP_BLOCK:].ravel())  # ties past the block
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(bits(got[1]), bits(want[1]))

    def test_history_run_past_one_block(self, make_instance):
        # gptq_quantize keeps w_history, so it sweeps as one block: the
        # history has the plain loop's bits, and v is the blocked solve's
        # off fragile coordinates
        x, w = make_instance(149, n=150, k=300)
        w = 4.0 * w
        res = gptq_quantize(x, w, QuantConfig(mu=0.1))
        v, rep = quantize_matrix(w[None, :], x, QuantConfig(mu=0.1))
        solid = np.ones(150, dtype=bool)
        solid[res.fragile + [j for _, j in rep.fragile]] = False
        np.testing.assert_array_equal(res.v[solid], v[0][solid])
        history: list[np.ndarray] = []
        v_outer, _ = gptq_rows_outer(solver_basis(x, 0.1).l_inv, w[None, :], history)
        np.testing.assert_array_equal(res.v, v_outer[0])
        assert len(res.w_history) == len(history) == 151
        for got, want in zip(res.w_history, history):
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_w_history_matches_entry_for_entry(self, seed, make_instance):
        x, w = make_instance(131 + seed, n=10)
        w = 4.0 * w
        res = gptq_quantize(x, w, QuantConfig(mu=0.1))
        history: list[np.ndarray] = []
        v, coeffs = gptq_rows_outer(solver_basis(x, 0.1).l_inv, w[None, :], history)
        np.testing.assert_array_equal(res.v, v[0])
        assert len(res.w_history) == len(history) == 11
        for got, want in zip(res.w_history, history):
            np.testing.assert_array_equal(bits(got), bits(want))


# Quantizes the layer in argv[1] (an .npz with w and x) with mu = auto and
# saves V, the fragile coordinates and the step coefficients to argv[2].
QUANTIZE_LAYER = """
import sys
import numpy as np
from latquant import QuantConfig, quantize_matrix
with np.load(sys.argv[1]) as layer:
    v, rep = quantize_matrix(layer["w"], layer["x"], QuantConfig(mu="auto"))
np.savez(sys.argv[2], v=v, fragile=np.array(rep.fragile, dtype=np.int64).reshape(-1, 2),
         coeffs=rep.step_coeffs)
"""


def test_v_off_fragile_coordinates_does_not_depend_on_blas_threads(tmp_path):
    # at n = 256 the block products of L^-1 are large enough for OpenBLAS to
    # split them over threads, which may change the coefficients' last bits
    rng = np.random.default_rng(41)
    np.savez(tmp_path / "layer.npz", x=rng.standard_normal((512, 256)),
             w=rng.normal(0.0, 4.0, (24, 256)))
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("OPENBLAS_", "OMP_", "MKL_"))}
    src = str(Path(latquant.quantize.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", QUANTIZE_LAYER, str(tmp_path / "layer.npz"), str(out)],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        with np.load(out) as run:
            runs.append((run["v"], run["fragile"], run["coeffs"]))
    (v1, fragile1, coeffs1), (v2, fragile2, coeffs2) = runs
    solid = np.ones(v1.shape, dtype=bool)
    for r, j in np.vstack([fragile1, fragile2]):
        solid[r, j] = False
    np.testing.assert_array_equal(v1[solid], v2[solid])
    np.testing.assert_allclose(coeffs1, coeffs2, rtol=0, atol=1e-9)
