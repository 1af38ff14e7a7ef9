"""Acceptance gate: the release-blocking properties, each at a pinned
tolerance, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import json
import time

import jsonschema
import numpy as np
import pytest

from latquant.cli import main
from latquant.lattice import (
    LatticeBasis,
    babai_from_target,
    babai_nearest_plane,
    relative_error_factor,
    round_half_even,
    solve_cvp_exact,
)
from latquant.linalg import cholesky_spd, invert_lower_triangular, ql_decompose
from latquant.matio import parse_matrix_csv, serialize_matrix_csv
from latquant.quantize import (
    QuantConfig,
    cross_layer_target,
    gptq_quantize,
    gptq_quantize_recursive,
)
from latquant.reduction import lll_reduce
from latquant.report import REPORT_SCHEMA

WORKED = np.array([[3.0, 5.0], [1.0, 2.0]])


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def equivalence_instance(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, 33))
    k = int(rng.integers(n, 4 * n + 1))
    return rng.uniform(-1.0, 1.0, (k, n)), rng.uniform(-1.0, 1.0, n)


@pytest.fixture(scope="module")
def equivalence_sweep():
    """One shared pass over the 1000 random instances: solver outputs,
    fragile counts, greedy errors and diag(L) profiles."""
    t0 = time.perf_counter()
    agree = fragile_instances = 0
    errors2 = []
    profiles2 = []
    for seed in range(1000):
        x, w = equivalence_instance(seed)
        ref = gptq_quantize(x, w)
        outs = [
            ref,
            gptq_quantize_recursive(x, w, variant="gptq_rec"),
            gptq_quantize_recursive(x, w, variant="babai_proj_rec"),
        ]
        basis = LatticeBasis(x)
        greedy = babai_nearest_plane(basis, w)
        fragile = set(greedy.fragile)
        for out in outs:
            fragile.update(out.fragile)
        if fragile:
            fragile_instances += 1
        elif all(np.array_equal(out.v, ref.v) for out in outs) and np.array_equal(
            greedy.v, ref.v
        ):
            agree += 1
        errors2.append(greedy.error_l2 ** 2)
        profiles2.append(float(np.sum(basis.factors.diag ** 2)))
    elapsed = time.perf_counter() - t0
    return {
        "agree": agree,
        "fragile_instances": fragile_instances,
        "errors2": np.array(errors2),
        "profiles2": np.array(profiles2),
        "elapsed": elapsed,
    }


def test_criterion_1_solver_equivalence(equivalence_sweep):
    s = equivalence_sweep
    ok = (
        s["agree"] == 1000 - s["fragile_instances"]
        and s["fragile_instances"] == 0
        and s["elapsed"] < 60.0
    )
    gate(
        "criterion 1 (solver equivalence, 1000 instances)",
        ok,
        f"agree={s['agree']}/1000 fragile_instances={s['fragile_instances']} "
        f"elapsed={s['elapsed']:.1f}s",
    )


def test_criterion_2_inverse_factor_identity():
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(2, 21))
        k = n + int(rng.integers(0, n + 1))
        # controlled singular values keep the Gram matrix comfortably invertible
        u, _ = np.linalg.qr(rng.standard_normal((k, n)))
        vt = np.linalg.qr(rng.standard_normal((n, n)))[0]
        x = u @ np.diag(rng.uniform(1.0, 10.0, n)) @ vt
        via_cholesky = cholesky_spd(np.linalg.inv(x.T @ x))
        via_ql = invert_lower_triangular(ql_decompose(x).l)
        rel = np.abs(via_cholesky - via_ql).max() / np.abs(via_ql).max()
        worst = max(worst, rel)
    gate(
        "criterion 2 (triangular-inverse identity, 200 instances)",
        worst <= 1e-8,
        f"worst relative deviation {worst:.2e} <= 1e-8",
    )


def test_criterion_3_absolute_bound(equivalence_sweep):
    s = equivalence_sweep
    violations = int(np.sum(s["errors2"] > s["profiles2"]))
    margin = float(np.max(s["errors2"] / s["profiles2"]))
    gate(
        "criterion 3 (absolute error bound, 1000 instances)",
        violations == 0,
        f"violations={violations} worst error^2/bound^2={margin:.3f}",
    )


def test_criterion_4_relative_bound():
    violations = 0
    uncertified = 0
    for seed in range(200):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(1, 6))
        k = n + int(rng.integers(0, 4))
        basis = LatticeBasis(rng.uniform(-1.0, 1.0, (k, n)))
        w = rng.uniform(-2.0, 2.0, n)
        greedy = babai_nearest_plane(basis, w)
        exact = solve_cvp_exact(basis, basis.basis @ w)
        if exact.boundary_hit or not exact.certified:
            uncertified += 1
            continue
        gamma = relative_error_factor(basis.factors).gamma
        if greedy.error_l2 > gamma * exact.error_l2 + 1e-9:
            violations += 1

    basis = LatticeBasis(WORKED)
    t = np.array([0.4, 0.4])
    ratio = (
        babai_from_target(basis, t).error_l2
        / solve_cvp_exact(basis, t).error_l2
    )
    gamma = relative_error_factor(basis.factors).gamma
    worked_ok = (
        ratio == pytest.approx(np.sqrt(2.92 / 0.32), rel=1e-9)
        and gamma == pytest.approx(np.sqrt(843.0), rel=1e-9)
        and ratio <= gamma
    )
    gate(
        "criterion 4 (relative error bound vs exhaustive oracle)",
        violations == 0 and uncertified == 0 and worked_ok,
        f"violations={violations} uncertified={uncertified} "
        f"worked ratio={ratio:.4f} <= gamma={gamma:.4f}",
    )


def test_criterion_5_regularization_limit():
    exact = 0
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        n = int(rng.integers(2, 17))
        # half the instances have fewer samples than features
        k = int(rng.integers(1, n)) if seed % 2 else n + int(rng.integers(0, n))
        x = rng.uniform(-1.0, 1.0, (k, n))
        w = rng.uniform(-4.0, 4.0, n)
        cfg = QuantConfig(mu=1e8 * float(np.abs(x).max()))
        res = gptq_quantize(x, w, cfg)
        expected = np.array([round_half_even(c) for c in w])
        if np.array_equal(res.v, expected):
            exact += 1
    gate(
        "criterion 5 (huge-mu limit is plain rounding, 100 instances)",
        exact == 100,
        f"exact matches {exact}/100 (includes rank-deficient k < n)",
    )


def test_criterion_6_recursion_step_geometry():
    worst_orth = worst_coeff = 0.0
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(2, 13))
        k = n + int(rng.integers(0, 2 * n))
        x = rng.uniform(-1.0, 1.0, (k, n))
        w = rng.uniform(-2.0, 2.0, n)
        f = ql_decompose(x)
        lt = f.l_inv
        v1 = round_half_even(w[0])
        kappa = (v1 - w[0]) / lt[0, 0]
        w_next = w + kappa * lt[:, 0]
        d = x[:, 1:] @ w_next[1:] - (x @ w - v1 * x[:, 0])
        q1 = f.q[:, 0]
        parallel = float(d @ q1)
        worst_orth = max(
            worst_orth,
            float(np.linalg.norm(d - parallel * q1)) / np.linalg.norm(x),
        )
        worst_coeff = max(worst_coeff, abs(parallel - kappa))
    gate(
        "criterion 6 (recursion step moves target along Q1 only, 200 instances)",
        worst_orth <= 1e-9 and worst_coeff <= 1e-9,
        f"worst orthogonal component {worst_orth:.2e}, "
        f"worst coefficient deviation {worst_coeff:.2e}",
    )


def test_criterion_7_reduction_payoff():
    basis = LatticeBasis(WORKED)
    t = np.array([0.4, 0.4])
    before = babai_from_target(basis, t)
    red = lll_reduce(WORKED)
    after = babai_from_target(LatticeBasis(red.basis_red), t)
    worked_ok = before.error_l2 == pytest.approx(np.sqrt(2.92), rel=1e-9) and (
        after.error_l2 == pytest.approx(np.sqrt(0.32), rel=1e-9)
    )

    improved = 0
    ratios = []
    for seed in range(500):
        rng = np.random.default_rng(70_000 + seed)
        n = int(rng.integers(2, 9))
        k = n + int(rng.integers(0, n + 1))
        x = rng.uniform(-1.0, 1.0, (k, n))
        w = rng.uniform(-2.0, 2.0, n)
        lat = LatticeBasis(x)
        pre = babai_nearest_plane(lat, w)
        post = babai_from_target(LatticeBasis(lll_reduce(x).basis_red), x @ w)
        if post.error_l2 <= pre.error_l2 + 1e-12:
            improved += 1
        ratios.append(post.error_l2 / pre.error_l2 if pre.error_l2 > 0 else 1.0)
    mean_ratio = float(np.mean(ratios))
    gate(
        "criterion 7 (reduction payoff: worked fixture + 500 instances)",
        worked_ok and improved / 500 >= 0.90 and mean_ratio < 1.0,
        f"worked {before.error_l2:.4f}->{after.error_l2:.4f}, "
        f"improved {improved / 5:.1f}% (>=90), mean ratio {mean_ratio:.4f} (<1)",
    )


def test_criterion_8_cross_layer_routes():
    agree = 0
    fragile_instances = 0
    for seed in range(200):
        rng = np.random.default_rng(60_000 + seed)
        x = rng.uniform(-1.0, 1.0, (8, 3))
        x_hat = x + 0.01 * rng.standard_normal((8, 3))
        w = rng.uniform(-2.0, 2.0, 3)
        out = cross_layer_target(x, x_hat, w)
        if out.result.fragile:
            fragile_instances += 1
        elif out.routes_agree:
            agree += 1
    gate(
        "criterion 8 (cross-layer route equality, 200 instances)",
        agree == 200 - fragile_instances,
        f"agree={agree}/200 fragile_instances={fragile_instances}",
    )


def test_criterion_9_cli_gate(tmp_path, capsys):
    report = tmp_path / "compare.json"
    code = main(["compare", "--random", "8,16", "--seeds", "100",
                 "--report", str(report)])
    capsys.readouterr()  # drop the per-instance chatter
    data = json.loads(report.read_text())
    jsonschema.validate(data, REPORT_SCHEMA)
    compare_ok = code == 0 and data["agreement"] is True

    rng = np.random.default_rng(80_000)
    mismatches = 0
    for _ in range(10_000):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        bits = rng.integers(0, 2 ** 64, (rows, cols), dtype=np.uint64)
        m = bits.view(np.float64)
        m[~np.isfinite(m)] = rng.uniform(-1e300, 1e300, int((~np.isfinite(m)).sum()))
        back = parse_matrix_csv(serialize_matrix_csv(m))
        if not np.array_equal(back.view(np.uint64), m.view(np.uint64)):
            mismatches += 1
    gate(
        "criterion 9 (CLI agreement gate + CSV round-trip fuzz)",
        compare_ok and mismatches == 0,
        f"compare exit={code} agreement={data['agreement']}, "
        f"fuzz mismatches={mismatches}/10000",
    )
