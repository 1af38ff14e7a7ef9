import dataclasses
import json
import re

import jsonschema
import numpy as np
import pytest

import latquant.cli
import latquant.lattice
import latquant.linalg
import latquant.quantize
from latquant.cli import main
from latquant.lattice import LatticeBasis, babai_from_target
from latquant.linalg import GRAM_COND_MAX
from latquant.matio import load_matrix_csv, save_matrix_csv
from latquant.quantize import (
    ALGORITHMS,
    QuantConfig,
    compare_algorithms,
    quantize_matrix,
    scaled_quantize,
)
from latquant.reduction import DEFAULT_DELTA, lll_reduce, map_solution
from latquant.report import REPORT_SCHEMA


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, matrix):
    save_matrix_csv(path, np.asarray(matrix, dtype=float))
    return str(path)


def read_report(path):
    text = path.read_text()
    data = json.loads(text)
    jsonschema.validate(data, REPORT_SCHEMA)
    return data, text


class TestQuantize:
    def test_identity_calibration(self, workdir, capsys):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        code = main(["quantize", "--weights", weights, "--calib", calib])
        assert code == 0
        assert (workdir / "V.csv").read_text() == "0,2\n"
        data, _ = read_report(workdir / "report.json")
        assert "v" not in data
        assert data["algorithm"] == "gptq"
        assert data["fragile_count"] == 0
        assert data["error_l2"] <= data["bound_abs_paper"]

    def test_matrix_report_uses_V(self, workdir):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[0.4, 1.6], [2.2, -0.7]])
        assert main(["quantize", "--weights", weights, "--calib", calib]) == 0
        data, _ = read_report(workdir / "report.json")
        assert "v" not in data and "V" not in data
        assert load_matrix_csv(workdir / "V.csv").tolist() == [[0, 2], [2, -1]]
        assert data["m"] == 2

    def test_gptq_and_babai_write_identical_files(self, workdir):
        rng = np.random.default_rng(5)
        calib = write(workdir / "X.csv", rng.uniform(-1, 1, (9, 4)))
        weights = write(workdir / "W.csv", rng.uniform(-2, 2, (3, 4)))
        out_a = str(workdir / "A.csv")
        out_b = str(workdir / "B.csv")
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--algo", "gptq", "--out", out_a,
                     "--report", str(workdir / "ra.json")]) == 0
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--algo", "babai", "--out", out_b,
                     "--report", str(workdir / "rb.json")]) == 0
        data, _ = read_report(workdir / "ra.json")
        assert data["fragile_count"] == 0
        assert (workdir / "A.csv").read_bytes() == (workdir / "B.csv").read_bytes()

    def test_recursive_algorithms_accepted(self):
        # the recursive references stay in the library (and compare)
        for algo in ("gptq_rec", "babai_proj_rec"):
            res = scaled_quantize(np.eye(3), np.array([0.4, 1.6, -0.9]),
                                  QuantConfig(algorithm=algo))
            np.testing.assert_array_equal(res.v, [0, 2, -1])

    @pytest.mark.parametrize("algo", ["gptq-rec", "babai-proj-rec"])
    def test_recursive_algorithms_refused(self, workdir, capsys, algo):
        calib = write(workdir / "X.csv", np.eye(3))
        weights = write(workdir / "W.csv", [[0.4, 1.6, -0.9]])
        with pytest.raises(SystemExit) as exc:
            main(["quantize", "--weights", weights, "--calib", calib, "--algo", algo])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: latquant quantize")
        assert f"invalid choice: '{algo}'" in err
        assert not (workdir / "V.csv").exists() and not (workdir / "report.json").exists()

    def test_rank_deficient_exits_3(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[1.0, 1.0], [2.0, 2.0]])
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        code = main(["quantize", "--weights", weights, "--calib", calib, "--mu", "0"])
        assert code == 3
        assert "regulariz" in capsys.readouterr().err

    def test_mu_fixes_rank_deficiency(self, workdir):
        calib = write(workdir / "X.csv", [[1.0, 1.0], [2.0, 2.0]])
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--mu", "auto"]) == 0

    def test_malformed_csv_exits_2(self, workdir, capsys):
        (workdir / "X.csv").write_text("1,2\n3,oops\n")
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        assert main(["quantize", "--weights", weights, "--calib", "X.csv"]) == 2
        assert "bad CSV" in capsys.readouterr().err

    def test_missing_file_exits_2(self, workdir, capsys):
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        assert main(["quantize", "--weights", weights, "--calib", "nope.csv"]) == 2

    def test_clamp(self, workdir):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[5.4, -3.9]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--clamp=-2:2"]) == 0
        assert (workdir / "V.csv").read_text() == "2,-2\n"

    def test_reduce_path(self, workdir):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[-1.2, 0.8]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--reduce", "lll"]) == 0
        data, _ = read_report(workdir / "report.json")
        assert data["algorithm"] == "gptq+lll"
        # the reduced basis finds the optimum this greedy run misses
        assert data["error_l2"] == pytest.approx(np.sqrt(0.32), rel=1e-12)
        v = load_matrix_csv(workdir / "V.csv")[0]
        np.testing.assert_allclose(np.array([[3.0, 5.0], [1.0, 2.0]]) @ v, [0.0, 0.0],
                                   atol=1e-12)

    def test_reduce_path_honours_algo_on_matrices(self, workdir):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (12, 5)) @ rng.uniform(-2, 2, (5, 5))
        w = rng.uniform(-3, 3, (6, 5))
        calib, weights = write(workdir / "X.csv", x), write(workdir / "W.csv", w)
        outputs = {}
        for algo in ("gptq", "babai"):
            assert main(["quantize", "--weights", weights, "--calib", calib,
                         "--alpha", "0.5", "--reduce", "lll", "--algo", algo,
                         "--out", f"V_{algo}.csv", "--report", f"r_{algo}.json"]) == 0
            data, _ = read_report(workdir / f"r_{algo}.json")
            assert data["algorithm"] == f"{algo}+lll"
            assert data["fragile_count"] == 0
            outputs[algo] = (workdir / f"V_{algo}.csv").read_bytes()
        assert outputs["gptq"] == outputs["babai"]
        # the same answer, row by row, from nearest plane on the reduced basis
        reduced = lll_reduce(x, DEFAULT_DELTA)
        lat = LatticeBasis(reduced.basis_red)
        expected = [map_solution(reduced.u, babai_from_target(lat, x @ (row / 0.5)).v)
                    for row in w]
        np.testing.assert_array_equal(load_matrix_csv(workdir / "V_gptq.csv"), expected)

    def test_overflow_exits_2_without_writing(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[1e19, 0.5]])
        assert main(["quantize", "--weights", weights, "--calib", calib]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "int64" in err
        assert "Traceback" not in err
        assert not (workdir / "V.csv").exists()

    @pytest.mark.parametrize("option", [["--mu", "nan"], ["--mu", "inf"],
                                        ["--alpha", "inf"], ["--alpha", "nan"]])
    def test_non_finite_mu_or_alpha_exits_2_without_writing(self, workdir, capsys, option):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[0.4, 0.7]])
        assert main(["quantize", "--weights", weights, "--calib", calib, *option]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err
        assert not (workdir / "report.json").exists()
        assert not (workdir / "V.csv").exists()

    @pytest.mark.parametrize("calib, weights, options", [
        # weights / alpha overflows
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]], [[0.4, 0.7]], ["--alpha", "1e-320"]),
        # weights / alpha is finite, the reduced basis's coordinates of the
        # target are not
        ([[1e20, 2e20], [3e20, 4e20], [5e20, 7e20]], [[1e-10, 1e-10]],
         ["--alpha", "1e-300", "--reduce", "lll"]),
    ])
    def test_tiny_alpha_exits_2_without_writing(self, workdir, capsys, calib, weights,
                                                options):
        # refused before any sweep; a RuntimeWarning would fail the test
        calib, weights = write(workdir / "X.csv", calib), write(workdir / "W.csv", weights)
        assert main(["quantize", "--weights", weights, "--calib", calib, *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha = " in err
        assert not (workdir / "report.json").exists()
        assert not (workdir / "V.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_error_writes_no_report(self, workdir, capsys):
        # alpha = 1e300 on the README's X (scaled by 1e10): the true error,
        # ~3.6e309, and the bound, ~5.4e310, exceed float64
        calib = write(workdir / "X.csv", [[3e10, 5e10], [1e10, 2e10]])
        weights = write(workdir / "W.csv", [[0.4e300, 0.7e300]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--alpha", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not (workdir / "report.json").exists()
        assert not (workdir / "V.csv").exists()

    def test_large_finite_data_has_finite_errors_and_bounds(self, workdir):
        # the squares of ~1e160 overflow; the norms and bounds themselves do not
        small = write(workdir / "X1.csv", [[3.0, 5.0], [1.0, 2.0]])
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        weights = write(workdir / "W.csv", [[0.4, 0.7]])
        assert main(["quantize", "--weights", weights, "--calib", small,
                     "--report", "small.json", "--out", "V1.csv"]) == 0
        assert main(["quantize", "--weights", weights, "--calib", calib]) == 0
        data, _ = read_report(workdir / "report.json")
        ref, _ = read_report(workdir / "small.json")
        assert (workdir / "V.csv").read_text() == (workdir / "V1.csv").read_text()
        for key in ("error_l2", "error_regularized", "bound_abs_paper", "bound_abs_halfstep"):
            assert data[key] == pytest.approx(1e160 * ref[key], rel=1e-12)
        assert data["bound_abs_paper"] == pytest.approx(1e160 * np.sqrt(29 + 1 / 29), rel=1e-12)
        assert data["gamma_bound"] == pytest.approx(ref["gamma_bound"], rel=1e-12)

    def test_reduce_lll_on_large_finite_data(self, workdir, capsys):
        # LLL and the pull-back of ~1e160 data run scaled: the unscaled
        # run's V, errors 1e160 times its own
        small = write(workdir / "X1.csv", [[3.0, 5.0], [1.0, 2.0]])
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        weights = write(workdir / "W.csv", [[0.4, 0.7]])
        assert main(["quantize", "--weights", weights, "--calib", small, "--reduce", "lll",
                     "--report", "small.json", "--out", "V1.csv"]) == 0
        assert main(["quantize", "--weights", weights, "--calib", calib, "--reduce", "lll"]) == 0
        assert "error" not in capsys.readouterr().err
        assert (workdir / "V.csv").read_text() == (workdir / "V1.csv").read_text()
        data, _ = read_report(workdir / "report.json")
        ref, _ = read_report(workdir / "small.json")
        for key in ("error_l2", "error_regularized", "bound_abs_paper"):
            assert data[key] == pytest.approx(1e160 * ref[key], rel=1e-12)

    def test_summary_prints_the_reported_bound(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[-1.2, 0.8], [0.3, 2.6], [1.7, -0.4]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--alpha", "0.5"]) == 0
        data, _ = read_report(workdir / "report.json")
        out = capsys.readouterr().out
        printed = re.search(r"\(bound ([^)]+)\)", out).group(1)
        assert float(printed) == data["bound_abs_paper"]
        printed = re.search(r"max_row_ratio=([^,]+),", out).group(1)
        assert float(printed) == data["quality"]["row_ratio_max"]
        # sum of L_ii^2 is 29 + 1/29; three rows on the half grid
        expected = 0.5 * np.sqrt(3) * np.sqrt(29 + 1 / 29)
        assert data["bound_abs_paper"] == pytest.approx(expected, rel=1e-12)

    def test_bound_covers_total_error_for_matrix_runs(self, workdir):
        # the reported bound is the per-row guarantee scaled by alpha*sqrt(m)
        rng = np.random.default_rng(13)
        calib = write(workdir / "X.csv", rng.uniform(-1, 1, (7, 3)))
        weights = write(workdir / "W.csv", rng.uniform(-4, 4, (5, 3)))
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--alpha", "2.5"]) == 0
        data, _ = read_report(workdir / "report.json")
        assert data["error_l2"] <= data["bound_abs_paper"]
        assert data["bound_abs_halfstep"] == pytest.approx(
            data["bound_abs_paper"] / 2.0, rel=1e-12
        )

    def test_report_reals_have_full_precision(self, workdir):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[-1.2, 0.8]])
        assert main(["quantize", "--weights", weights, "--calib", calib]) == 0
        data, text = read_report(workdir / "report.json")
        assert data["error_l2"] == pytest.approx(np.sqrt(2.92), rel=1e-14)
        digits = re.search(r'"error_l2":([-0-9.eE+]+)', text).group(1)
        mantissa = re.sub(r"[-.]|[eE].*", "", digits).lstrip("0")
        assert len(mantissa) >= 15


class TestCompare:
    def test_random_instances_agree(self, workdir, capsys):
        report = str(workdir / "r.json")
        code = main(["compare", "--random", "6,12", "--seeds", "20",
                     "--report", report])
        assert code == 0
        data, _ = read_report(workdir / "r.json")
        assert data["agreement"] is True
        assert data["algorithm"] == "compare"
        assert "v" not in data and "V" not in data
        out = capsys.readouterr().out
        assert "seed=0" in out and "agreement=True" in out

    def test_file_based_trivial(self, workdir):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        report = str(workdir / "r.json")
        assert main(["compare", "--weights", weights, "--calib", calib,
                     "--report", report]) == 0
        data, _ = read_report(workdir / "r.json")
        assert data["agreement"] is True and data["v"] == [0, 2]

    def test_exact_tie_is_fragile_but_not_disagreement(self, workdir):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[2.5, 0.3]])
        report = str(workdir / "r.json")
        assert main(["compare", "--weights", weights, "--calib", calib,
                     "--report", report]) == 0
        data, _ = read_report(workdir / "r.json")
        assert data["fragile_count"] >= 1
        assert data["agreement"] is True

    def test_needs_inputs(self, workdir, capsys):
        assert main(["compare"]) == 2

    def test_file_based_run_factors_x_once(self, workdir, monkeypatch):
        # four solvers per row and the report's bounds share one
        # factorization; the recursive references factor only suffixes
        rng = np.random.default_rng(11)
        calib = write(workdir / "X.csv", rng.uniform(-1, 1, (12, 5)))
        weights = write(workdir / "W.csv", rng.uniform(-2, 2, (4, 5)))
        calls = []
        gram_factor = latquant.quantize.gram_factor

        def counting(h):
            calls.append(h.shape)
            return gram_factor(h)

        monkeypatch.setattr(latquant.quantize, "gram_factor", counting)
        assert main(["compare", "--weights", weights, "--calib", calib,
                     "--report", str(workdir / "r.json")]) == 0
        assert calls == [(5, 5)]

    @pytest.mark.parametrize("x, weights, mu, alpha", [
        (np.random.default_rng(5).uniform(-1, 1, (30, 9)),
         np.random.default_rng(6).uniform(-2, 2, (12, 9)), "auto", 0.5),
        # exact ties: fragile coordinates in some rows, not in others
        (np.eye(4), [[2.5, 0.3, -1.5, 0.2], [0.1, 0.2, 0.3, 0.4], [3.5, 0.5, 0.5, 1.0]],
         "0", 1.0),
    ])
    def test_file_based_rows_match_the_one_row_solver(self, workdir, capsys, x, weights,
                                                      mu, alpha):
        calib = write(workdir / "X.csv", x)
        wfile = write(workdir / "W.csv", weights)
        assert main(["compare", "--weights", wfile, "--calib", calib, "--mu", mu,
                     "--alpha", str(alpha), "--report", "r.json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        x, weights = load_matrix_csv(calib), load_matrix_csv(wfile)
        cfg = QuantConfig(mu=mu if mu == "auto" else float(mu), alpha=alpha)
        runs, fragile, agree, _ = compare_algorithms(weights, x, cfg)
        for r, w in enumerate(weights):
            union = set()
            for algo in ALGORITHMS:
                one = scaled_quantize(x, w, dataclasses.replace(cfg, algorithm=algo))
                v, rep = runs[algo]
                np.testing.assert_array_equal(v[r], one.v)
                assert rep.step_coeffs[r].tobytes() == one.step_coeffs.tobytes()
                assert [j for i, j in rep.fragile if i == r] == one.fragile
                union.update(one.fragile)
            assert fragile[r] == sorted(union) and agree[r] is True
            assert lines[r] == f"instance {r}: agree=True fragile={len(union)}"
        # the report's row is solved alone: the errors of an m-row product
        # may round differently from those of the one-row product
        data, _ = read_report(workdir / "r.json")
        ref = scaled_quantize(x, weights[-1], cfg)
        assert data["v"] == ref.v.tolist()
        assert data["step_coeffs"] == ref.step_coeffs.tolist()
        assert data["error_l2"] == ref.error_l2
        assert data["error_regularized"] == ref.error_regularized
        assert data["fragile_count"] == sum(map(len, fragile))

    def test_has_no_delta_option(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--random", "3,5", "--delta", "0.75"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta" in capsys.readouterr().err


class TestDeltaOption:
    """--delta outside (0.25, 1) is refused where argparse reads it, before
    a command prints or writes anything, with lll_reduce's message."""

    def test_bounds_prints_nothing(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--calib", calib, "--reduce", "lll", "--delta", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --delta: delta must be in (0.25, 1), got 2.0" in captured.err

    @pytest.mark.parametrize("delta", ["7", "0.25", "1", "nan", "-inf"])
    def test_quantize_without_reduce_writes_nothing(self, workdir, capsys, delta):
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[0.4, 1.6]])
        with pytest.raises(SystemExit) as exc:
            main(["quantize", "--weights", weights, "--calib", calib, f"--delta={delta}"])
        assert exc.value.code == 2
        assert "delta must be in (0.25, 1)" in capsys.readouterr().err
        assert not (workdir / "V.csv").exists() and not (workdir / "report.json").exists()

    @pytest.mark.parametrize("command", ["oracle", "reduce"])
    def test_other_commands(self, workdir, capsys, command):
        calib = write(workdir / "X.csv", np.eye(2))
        target = ["--target", write(workdir / "T.csv", [[0.4, 0.4]])] * (command == "oracle")
        with pytest.raises(SystemExit) as exc:
            main([command, "--calib", calib, *target, "--delta", "0.2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "got 0.2" in captured.err
        assert main([command, "--calib", calib, *target, "--delta", "0.5"]) == 0


class TestBounds:
    def _parse(self, out, key):
        return float(re.search(rf"{key}\s*=\s*([-0-9.eE+]+)", out).group(1))

    def test_identity_4(self, workdir, capsys):
        calib = write(workdir / "X.csv", np.eye(4))
        assert main(["bounds", "--calib", calib]) == 0
        out = capsys.readouterr().out
        assert self._parse(out, "bound_abs_paper") == pytest.approx(2.0, rel=1e-12)
        assert self._parse(out, "gamma_bound") == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_worked_basis_with_reduction(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        assert main(["bounds", "--calib", calib, "--reduce", "lll"]) == 0
        out = capsys.readouterr().out
        gammas = [float(g) for g in re.findall(r"gamma_bound\s*=\s*([-0-9.eE+]+)", out)]
        papers = [float(g) for g in re.findall(r"bound_abs_paper\s*=\s*([-0-9.eE+]+)", out)]
        assert gammas[0] == pytest.approx(np.sqrt(843.0), rel=1e-12)
        # unit columns: flat profile, gamma = sqrt(1 + 2)
        assert gammas[1] == pytest.approx(np.sqrt(3.0), rel=1e-9)
        assert papers[1] < papers[0]

    def test_reduction_of_large_finite_data(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        assert main(["bounds", "--calib", calib, "--reduce", "lll"]) == 0
        out = capsys.readouterr().out
        gammas = [float(g) for g in re.findall(r"gamma_bound\s*=\s*([-0-9.eE+]+)", out)]
        assert gammas == [pytest.approx(29.03446228191599, rel=1e-12),
                          pytest.approx(np.sqrt(3), rel=1e-12)]

    def test_reduce_never_hurts_paper_bound_on_fixtures(self, workdir, capsys):
        fixtures = [
            np.eye(3),
            np.array([[3.0, 5.0], [1.0, 2.0]]),
            np.array([[1.0, 0.0], [0.7, 0.1]]),
            np.random.default_rng(0).uniform(-1, 1, (6, 4)),
            np.random.default_rng(1).uniform(-1, 1, (5, 5)),
        ]
        for i, m in enumerate(fixtures):
            calib = write(workdir / f"F{i}.csv", m)
            assert main(["bounds", "--calib", calib, "--reduce", "lll"]) == 0
            out = capsys.readouterr().out
            papers = [float(g) for g in
                      re.findall(r"bound_abs_paper\s*=\s*([-0-9.eE+]+)", out)]
            assert papers[1] <= papers[0] * (1 + 1e-12)


class TestOracle:
    def test_worked_instance(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        report = str(workdir / "r.json")
        code = main(["oracle", "--calib", calib, "--target", target,
                     "--report", report])
        assert code == 0
        out = capsys.readouterr().out
        opt = float(re.search(r"optimum_error\s*=\s*([-0-9.eE+]+)", out).group(1))
        bab = float(re.search(r"babai_error\s*=\s*([-0-9.eE+]+)", out).group(1))
        ratio = float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", out).group(1))
        assert opt == pytest.approx(np.sqrt(0.32), rel=1e-12)
        assert bab == pytest.approx(np.sqrt(2.92), rel=1e-12)
        assert ratio == pytest.approx(np.sqrt(2.92 / 0.32), rel=1e-12)
        data, _ = read_report(workdir / "r.json")
        assert data["oracle_error"] == pytest.approx(np.sqrt(0.32), rel=1e-12)
        assert ratio <= data["gamma_bound"]

    def test_identity_ratio_one(self, workdir, capsys):
        calib = write(workdir / "X.csv", np.eye(2))
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        assert main(["oracle", "--calib", calib, "--target", target]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", out).group(1)) == 1.0

    def test_reduction_makes_greedy_exact_here(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        assert main(["oracle", "--calib", calib, "--target", target,
                     "--reduce", "lll"]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", out).group(1)) == 1.0

    def test_weights_derived_target(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[-1.2, 0.8]])
        assert main(["oracle", "--calib", calib, "--weights", weights]) == 0

    def test_large_finite_data(self, workdir, capsys):
        # every squared distance of ~1e160 data overflows; the search compares
        # them scaled, and the optimum is the unscaled one times 1e160
        small = write(workdir / "X1.csv", [[3.0, 5.0], [1.0, 2.0]])
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        weights = write(workdir / "W.csv", [[0.4, 0.7]])
        assert main(["oracle", "--calib", small, "--weights", weights]) == 0
        ref = float(re.search(r"optimum_error\s*=\s*([-0-9.eE+]+)", capsys.readouterr().out)
                    .group(1))
        assert main(["oracle", "--calib", calib, "--weights", weights,
                     "--report", "r.json"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        opt = float(re.search(r"optimum_error\s*=\s*([-0-9.eE+]+)", captured.out).group(1))
        ratio = float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", captured.out).group(1))
        gamma = float(re.search(r"gamma_bound\s*=\s*([-0-9.eE+]+)", captured.out).group(1))
        assert np.isfinite(opt) and opt == pytest.approx(1e160 * ref, rel=1e-12)
        assert ratio <= gamma
        data, _ = read_report(workdir / "r.json")
        assert np.isfinite(data["error_l2"]) and data["oracle_error"] == opt

    def test_large_finite_data_on_the_reduced_basis(self, workdir, capsys):
        small = write(workdir / "X1.csv", [[3.0, 5.0], [1.0, 2.0]])
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        weights = write(workdir / "W.csv", [[0.4, 0.7]])
        assert main(["oracle", "--calib", small, "--weights", weights, "--reduce", "lll",
                     "--report", "small.json"]) == 0
        assert main(["oracle", "--calib", calib, "--weights", weights, "--reduce", "lll",
                     "--report", "r.json"]) == 0
        assert capsys.readouterr().err == ""
        data, _ = read_report(workdir / "r.json")
        ref, _ = read_report(workdir / "small.json")
        assert data["v"] == ref["v"]
        assert data["oracle_error"] == pytest.approx(1e160 * ref["oracle_error"], rel=1e-12)

    def test_identity_past_eight_dimensions(self, workdir, capsys):
        calib = write(workdir / "X.csv", np.eye(9))
        target = write(workdir / "T.csv", [np.zeros(9)])
        assert main(["oracle", "--calib", calib, "--target", target]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", out).group(1)) == 1.0

    @pytest.mark.parametrize("options", [[], ["--reduce", "lll"]])
    def test_factors_once(self, workdir, monkeypatch, options):
        rng = np.random.default_rng(3)
        calib = write(workdir / "X.csv", rng.uniform(-1, 1, (8, 5)))
        weights = write(workdir / "W.csv", rng.uniform(-2, 2, (1, 5)))
        calls = []
        gram_factor = latquant.quantize.gram_factor

        def counting(h):
            calls.append(h.shape)
            return gram_factor(h)

        def refused(*args, **kwargs):
            raise AssertionError("the oracle factors only through solver_basis")

        monkeypatch.setattr(latquant.quantize, "gram_factor", counting)
        for module in (latquant.linalg, latquant.lattice, latquant.quantize, latquant.cli):
            monkeypatch.setattr(module, "ql_decompose", refused)
        monkeypatch.setattr(latquant.lattice.LatticeBasis, "__init__", refused)
        assert main(["oracle", "--calib", calib, "--weights", weights, *options]) == 0
        assert calls == [(5, 5)]

    def test_budget_stops_the_search_with_a_warning(self, workdir, capsys, monkeypatch):
        # the worked basis with a budget of 2 nodes: the search returns
        # Babai's vector, the first leaf, and says it did not finish
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        monkeypatch.setattr(latquant.lattice, "NODE_BUDGET", 2)
        assert main(["oracle", "--calib", calib, "--target", target]) == 0
        captured = capsys.readouterr()
        assert "warning: the search stopped after 2 nodes" in captured.err
        assert float(re.search(r"ratio\s*=\s*([-0-9.eE+]+)", captured.out).group(1)) == 1.0

    def test_has_no_radius_option(self, workdir, capsys):
        calib = write(workdir / "X.csv", np.eye(2))
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--calib", calib, "--target", target, "--radius", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --radius" in capsys.readouterr().err

    def test_weights_width_mismatch_exits_2(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        weights = write(workdir / "W.csv", [[0.4, 0.7, 0.1]])
        assert main(["oracle", "--calib", calib, "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weights have 3 columns, calibration has 2\n"

    def test_overflowing_target_exits_2(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[1e300, 1e300], [1e300, -1e300]])
        weights = write(workdir / "W.csv", [[1e10, 0.0]])
        assert main(["oracle", "--calib", calib, "--weights", weights]) == 2
        assert capsys.readouterr().err == "error: t contains non-finite entries\n"

    def test_overflowing_coordinates_name_an_oracle_option(self, workdir, capsys):
        # X = 1e-200 I puts the target's least-squares coordinates at 1e350;
        # oracle takes no --alpha, so the advice names what it does take
        calib = write(workdir / "X.csv", 1e-200 * np.eye(2))
        target = write(workdir / "T.csv", [[1e150, 0.0]])
        assert main(["oracle", "--calib", calib, "--target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the target's coordinates on the lattice overflow the "
                                "float range; scale the target down or pass a larger --mu\n")
        assert main(["oracle", "--calib", calib, "--target", target, "--mu", "1"]) == 0

    def test_needs_target_or_weights(self, workdir):
        calib = write(workdir / "X.csv", np.eye(2))
        assert main(["oracle", "--calib", calib]) == 2


class TestReduce:
    def test_writes_basis_and_transform(self, workdir, capsys):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        assert main(["reduce", "--calib", calib]) == 0
        reduced = load_matrix_csv(workdir / "reduced.csv")
        u = load_matrix_csv(workdir / "unimodular.csv")
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-9
        np.testing.assert_allclose(
            np.array([[3.0, 5.0], [1.0, 2.0]]) @ u, reduced, atol=1e-9
        )
        out = capsys.readouterr().out
        assert "sum L_ii^2" in out

    def test_ill_conditioned_lattice(self, workdir, capsys, ill_conditioned_basis):
        # an exact unimodular transform whose float determinant reads 1.0000052
        x = ill_conditioned_basis
        calib = write(workdir / "X.csv", x)
        assert main(["reduce", "--calib", calib]) == 0
        reduced = load_matrix_csv(workdir / "reduced.csv")
        u = load_matrix_csv(workdir / "unimodular.csv")
        # equal up to rounding, small against |X| @ |u| (reduced cancels to ~1e-5)
        assert np.all(np.abs(x @ u - reduced) <= 1e-13 * (np.abs(x) @ np.abs(u)))
        write(workdir / "W.csv", np.ones((2, x.shape[1])))
        assert main(["quantize", "--weights", "W.csv", "--calib", calib,
                     "--reduce", "lll"]) == 0
        assert main(["bounds", "--calib", calib, "--reduce", "lll"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_large_finite_data(self, workdir, capsys):
        # the transform is the unscaled one; sum L_ii^2 (~3e321) reads inf
        small = write(workdir / "X1.csv", [[3.0, 5.0], [1.0, 2.0]])
        calib = write(workdir / "X.csv", [[3e160, 5e160], [1e160, 2e160]])
        assert main(["reduce", "--calib", small, "--out-unimodular", "u1.csv"]) == 0
        assert main(["reduce", "--calib", calib]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "sum L_ii^2: inf -> inf" in captured.out
        assert (workdir / "unimodular.csv").read_text() == (workdir / "u1.csv").read_text()

    @pytest.mark.parametrize("x", [[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [[1.0, 2.0]]])
    def test_dependent_columns_exit_3_without_a_mu_hint(self, workdir, capsys, x):
        # reduce takes no --mu, so the hint the other subcommands give
        # would send the user to an option it rejects
        calib = write(workdir / "X.csv", x)
        assert main(["reduce", "--calib", calib]) == 3
        err = capsys.readouterr().err
        assert "linearly independent" in err
        assert "mu" not in err
        assert not (workdir / "reduced.csv").exists()


@pytest.mark.parametrize("command", [
    ["quantize", "--weights", "W.csv"], ["bounds"], ["oracle", "--weights", "W.csv"],
])
def test_mu_hint_on_subcommands_that_take_mu(workdir, capsys, command):
    calib = write(workdir / "X.csv", [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    write(workdir / "W.csv", [[0.4, 1.6]])
    assert main([*command, "--calib", calib, "--mu", "0"]) == 3
    assert "hint: pass --mu > 0 (or --mu auto)" in capsys.readouterr().err


class TestReportSchemaV2:
    """Every report-writing command validates against the schema (version
    3 now); quantize drops the step coefficients and V, which V.csv holds,
    and explains the run instead."""

    @pytest.mark.parametrize("m, options, cfg, delta", [
        (1, [], QuantConfig(), None),
        (4, [], QuantConfig(), None),
        (4, ["--reduce", "lll"], QuantConfig(), DEFAULT_DELTA),
        (3, ["--algo", "babai", "--alpha", "0.25"],
         QuantConfig(alpha=0.25, algorithm="babai"), None),
        (5, ["--mu", "auto", "--alpha", "3.0"], QuantConfig(mu="auto", alpha=3.0), None),
    ])
    def test_quantize_summarises_instead_of_listing_coefficients(self, workdir, m, options,
                                                                 cfg, delta):
        rng = np.random.default_rng(29 + m)
        x = rng.uniform(-1, 1, (10, 4)) @ rng.uniform(-2, 2, (4, 4))
        w = rng.uniform(-3, 3, (m, 4))
        calib, weights = write(workdir / "X.csv", x), write(workdir / "W.csv", w)
        assert main(["quantize", "--weights", weights, "--calib", calib, *options]) == 0
        data, _ = read_report(workdir / "report.json")
        assert data["schema_version"] == 3
        assert "step_coeffs" not in data
        assert "v" not in data and "V" not in data

        cond = data["conditioning"]
        assert cond["mu"] == data["mu"]
        assert cond["route"] == "cholesky" and cond["cond_1"] <= GRAM_COND_MAX
        assert 0 < cond["l_diag_min"] <= cond["l_diag_max"]
        quality = data["quality"]
        assert quality["row_ratio_median"] <= quality["row_ratio_max"] <= 1.0
        timings = data["timings_ms"]
        assert timings["factor"] + timings["solve"] <= data["wall_time_ms"] * (1 + 1e-9)

        # the same numbers from the library's report on the same inputs
        v_mat, rep = quantize_matrix(load_matrix_csv(weights), load_matrix_csv(calib), cfg,
                                     delta)
        v_csv = load_matrix_csv(workdir / "V.csv")
        assert v_csv.shape == (m, 4)
        assert np.array_equal(v_csv, v_mat)
        assert cond["l_diag_min"] == rep.l_diag.min()
        assert cond["l_diag_max"] == rep.l_diag.max()
        assert cond["cond_1"] == rep.cond
        ratios = rep.row_errors_regularized / cfg.alpha / np.linalg.norm(rep.l_diag)
        assert quality["row_ratio_max"] == pytest.approx(ratios.max(), rel=1e-12)
        assert quality["row_ratio_median"] == pytest.approx(np.median(ratios), rel=1e-12)

    @pytest.mark.parametrize("scale, route", [(10 * GRAM_COND_MAX, "qr"),
                                              (GRAM_COND_MAX / 10, "cholesky")])
    def test_route_follows_the_gram_gate(self, workdir, scale, route):
        # diagonal L, so its 1-norm condition number is the ratio of the entries
        calib = write(workdir / "X.csv", [[1.0, 0.0], [0.0, 1.0 / scale], [0.0, 0.0]])
        weights = write(workdir / "W.csv", [[0.4, 1.6], [-2.2, 0.7]])
        assert main(["quantize", "--weights", weights, "--calib", calib]) == 0
        data, _ = read_report(workdir / "report.json")
        assert data["conditioning"]["route"] == route
        assert data["conditioning"]["cond_1"] == pytest.approx(scale, rel=1e-12)
        assert data["conditioning"]["l_diag_min"] == pytest.approx(1.0 / scale, rel=1e-15)
        assert data["quality"]["row_ratio_max"] <= 1.0

    def test_clamped_runs_report_the_pre_guarantee_ratio(self, workdir):
        # a clamp moves v off the solve, so the ratio may pass 1
        calib = write(workdir / "X.csv", np.eye(2))
        weights = write(workdir / "W.csv", [[5.4, -3.9]])
        assert main(["quantize", "--weights", weights, "--calib", calib,
                     "--clamp=-2:2"]) == 0
        data, _ = read_report(workdir / "report.json")
        assert data["quality"]["row_ratio_max"] == pytest.approx(
            np.hypot(3.4, 1.9) / np.sqrt(2), rel=1e-12)

    def test_compare_keeps_the_coefficients(self, workdir):
        assert main(["compare", "--random", "5,9", "--seeds", "3",
                     "--report", "r.json"]) == 0
        data, _ = read_report(workdir / "r.json")
        assert data["schema_version"] == 3
        assert len(data["step_coeffs"]) == 5
        for key in ("conditioning", "quality", "timings_ms"):
            assert key not in data

    def test_oracle_keeps_the_coefficients(self, workdir):
        calib = write(workdir / "X.csv", [[3.0, 5.0], [1.0, 2.0]])
        target = write(workdir / "T.csv", [[0.4, 0.4]])
        assert main(["oracle", "--calib", calib, "--target", target,
                     "--report", "r.json"]) == 0
        data, _ = read_report(workdir / "r.json")
        assert data["schema_version"] == 3
        assert data["step_coeffs"] == pytest.approx([-1.2, 19.8 / 29.0], abs=1e-12)
