"""Smoke runs of the experiment scripts and of the benchmark's chain job at
a small size."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["run_equivalence_sweep.py", "run_lll_payoff.py"])
def test_script_runs(script):
    proc = run_script(script, "--instances", "20", "--max-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_equivalence_sweep_crosses_the_sweep_block():
    # babai_nearest_plane runs the blocked kernel past n = 64, gptq_quantize
    # the one-block sweep; every non-fragile instance must still agree
    proc = run_script("run_equivalence_sweep.py", "--min-n", "60", "--max-n", "100",
                      "--instances", "3")
    assert proc.returncode == 0, proc.stderr
    agree, checked = re.search(r"agreement: (\d+)/(\d+)", proc.stdout).groups()
    assert agree == checked != "0"
    assert int(re.search(r"past one sweep block \(n > 64\): (\d+)", proc.stdout)[1]) > 0


def test_lll_payoff_runs_at_larger_n():
    proc = run_script("run_lll_payoff.py", "--instances", "5", "--max-n", "48")
    assert proc.returncode == 0, proc.stderr
    assert "instances: 5  (n <= 48" in proc.stdout


# Runs the script named by argv[1] as __main__ with the rest of argv, and
# prints how many times latquant.quantize called gram_factor.
COUNT_GRAM_FACTORS = """
import runpy, sys
import latquant.quantize
calls = []
gram_factor = latquant.quantize.gram_factor
def counting(h):
    calls.append(h.shape)
    return gram_factor(h)
latquant.quantize.gram_factor = counting
sys.argv = sys.argv[1:]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    print("gram_factor calls:", len(calls))
"""


def test_chain_job_runs(tmp_path, monkeypatch):
    # perfbench/chain_job.py quantizes a ReLU chain row by row through
    # cross_layer_target; its output must pass the benchmark's own check
    pytest.importorskip("scipy")  # perfbench/checks.py is scipy-based
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)

    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((64, 8))
    weights = [np.sqrt(2.0 / 8) * rng.standard_normal((8, 8)) for _ in range(3)]
    alpha = float(np.sqrt(2.0 / 8) / 2)
    np.savez(tmp_path / "in.npz", x0=x0, alpha=alpha,
             **{f"w{i + 1}": w for i, w in enumerate(weights)})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", COUNT_GRAM_FACTORS, str(ROOT / "perfbench" / "chain_job.py"),
         "--inputs", str(tmp_path / "in.npz"), "--out", str(tmp_path / "out.npz")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # one factorization per layer: the rows of a layer share its lattice
    assert proc.stdout.splitlines()[-1] == "gram_factor calls: 3"
    with np.load(tmp_path / "out.npz") as out:
        vs = [out[f"v{i + 1}"] for i in range(3)]
        errors = out["error_l2"]
    problems, err_rel = checks.check_chain(x0, weights, alpha, vs, errors)
    assert problems == []
    assert 0 < err_rel < 1


def test_stage_memory_runs(tmp_path):
    rng = np.random.default_rng(5)
    for name, shape in (("W.csv", (6, 4)), ("X.csv", (20, 4))):
        np.savetxt(tmp_path / name, rng.standard_normal(shape), delimiter=",")
    proc = run_script("stage_memory.py", "--weights", str(tmp_path / "W.csv"),
                      "--calib", str(tmp_path / "X.csv"), "--alpha", "0.25",
                      "--out", str(tmp_path / "V.csv"))
    assert proc.returncode == 0, proc.stderr
    stages = [line.split()[0] for line in proc.stdout.splitlines()[:-1]]
    assert stages == ["start", "imports", "parse", "factor", "solve", "write"]
    peaks = [float(re.search(r"VmHWM +([\d.]+) MB", line)[1])
             for line in proc.stdout.splitlines()[:-1]]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert np.loadtxt(tmp_path / "V.csv", delimiter=",").shape == (6, 4)


def test_stage_memory_reduces(tmp_path):
    # --reduce lll: the factor stage LLL-reduces, and V is that of
    # quantize_matrix with the default delta
    from latquant import QuantConfig, load_matrix_csv, quantize_matrix
    from latquant.reduction import DEFAULT_DELTA

    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 4))
    np.savetxt(tmp_path / "X.csv", x, delimiter=",")
    np.savetxt(tmp_path / "W.csv", rng.standard_normal((6, 4)), delimiter=",")
    proc = run_script("stage_memory.py", "--weights", str(tmp_path / "W.csv"),
                      "--calib", str(tmp_path / "X.csv"), "--alpha", "0.25",
                      "--out", str(tmp_path / "V.csv"), "--reduce", "lll")
    assert proc.returncode == 0, proc.stderr
    stages = [line.split()[0] for line in proc.stdout.splitlines()[:-1]]
    assert stages == ["start", "imports", "parse", "factor", "solve", "write"]
    v, _ = quantize_matrix(load_matrix_csv(tmp_path / "W.csv"), load_matrix_csv(tmp_path / "X.csv"),
                           QuantConfig(mu="auto", alpha=0.25), reduce_delta=DEFAULT_DELTA)
    assert np.abs(v).max() > 0
    np.testing.assert_array_equal(load_matrix_csv(tmp_path / "V.csv"), v)


def test_stage_memory_prints_traced_peaks(tmp_path):
    rng = np.random.default_rng(6)
    for name, shape in (("W.csv", (6, 4)), ("X.csv", (20, 4))):
        np.savetxt(tmp_path / name, rng.standard_normal(shape), delimiter=",")
    proc = run_script("stage_memory.py", "--weights", str(tmp_path / "W.csv"),
                      "--calib", str(tmp_path / "X.csv"), "--alpha", "0.25", "--traced")
    assert proc.returncode == 0, proc.stderr
    traced = {line.split()[0]: float(re.search(r"traced \+([\d.]+) MiB", line)[1])
              for line in proc.stdout.splitlines() if "traced" in line}
    assert list(traced) == ["parse", "factor", "solve", "write"]
    # a chunk of the parse (256 KiB) is the largest buffer at this size
    assert all(0 <= peak < 1.0 for peak in traced.values())


def test_stage_memory_falls_back_without_proc(monkeypatch):
    stage_memory = load_script("stage_memory.py")

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(stage_memory, "open", no_proc, raising=False)
    peak, rss = stage_memory.memory_mb()
    assert peak > 0 and rss is None


def run_py_output(workload, job_s, err_rel, correct=True, failed=0):
    """The last two stdout lines of one perfbench/run.py run, with a line
    of other output before them."""
    result = {"correct": correct, "attempted": 40, "failed": failed,
              "metrics": {"job_s_p50": {"value": job_s, "unit": "s"},
                          "err_rel": {"value": err_rel, "unit": "ratio"}}}
    return "\n".join(["absent from latquant: none",
                      json.dumps({"workload": workload, "env": {"nproc": 2}}),
                      json.dumps(result)])


def test_bench_pairs_summary_on_canned_runs():
    bench_pairs = load_script("bench_pairs.py")
    better = {"job_s_p50": "lower", "err_rel": "lower"}
    pairs = []
    for i in range(10):
        parent = bench_pairs.parse_results(run_py_output("chain-3", 0.50 + 0.01 * i, 0.176))
        # the change wins nine pairs of ten; its third run fails a check
        change = bench_pairs.parse_results(run_py_output(
            "chain-3", 0.60 if i == 0 else 0.44 + 0.001 * i, 0.176, correct=i != 2))
        pairs.append((parent["chain-3"], change["chain-3"]))
    lines = bench_pairs.summarize(pairs, better)
    assert lines[0] == "  change run 3: correct=False failed=0 of 40"
    job = next(line for line in lines if "job_s_p50" in line)
    # parent: 0.50 .. 0.59, median 0.545, quartiles 0.5225 and 0.5675
    assert "parent 0.545 [0.5225, 0.5675]" in job
    assert "wins 9/10" in job and "beyond parent IQR" in job
    err = next(line for line in lines if "err_rel" in line)
    assert "wins 0/10" in err and "gap +0 within parent IQR" in err


@pytest.mark.parametrize("change_s, claim, regression", [
    # nine wins in ten, the gap (0.0995) past the parent's IQR (0.045)
    ([0.60] + [0.44 + 0.001 * i for i in range(1, 10)], True, "ok"),
    # ten wins, but the gap (0.01) inside the IQR
    ([0.49 + 0.01 * i for i in range(10)], False, "ok"),
    # eight wins: the gap alone is not a claim
    ([0.60, 0.60] + [0.40] * 8, False, "ok"),
    # a median 0.14 s worse, past 0.2 x 0.545 s
    ([0.685 + 0.001 * i for i in range(10)], False, "worse"),
    # 0.08 s worse, inside the margin (0.109) and the IQR (0.045)
    ([0.625 + 0.001 * i for i in range(10)], False, "ok"),
])
def test_bench_pairs_verdicts_on_canned_runs(change_s, claim, regression):
    bench_pairs = load_script("bench_pairs.py")
    pairs = [(bench_pairs.parse_results(run_py_output("chain-3", 0.50 + 0.01 * i, 0.1))["chain-3"],
              bench_pairs.parse_results(run_py_output("chain-3", c, 0.1))["chain-3"])
             for i, c in enumerate(change_s)]
    _, metrics = bench_pairs.compare(pairs, {"job_s_p50": "lower"}, {"job_s_p50": 0.2})
    job = metrics["job_s_p50"]
    assert (job["claim"], job["regression"]) == (claim, regression)
    line = bench_pairs.summarize(pairs, {"job_s_p50": "lower"}, {"job_s_p50": 0.2})[0]
    assert line.endswith(f"claim {'yes' if claim else 'no'}  regression {regression}")


def test_bench_pairs_unresolved_when_the_parent_spreads_past_the_bound():
    bench_pairs = load_script("bench_pairs.py")
    parent = [0.4, 0.5, 0.6, 0.7, 0.8]  # IQR 0.2 against a margin of 0.06
    # the same runs: no change, and no telling
    assert bench_pairs.verdicts(parent, parent, "lower", 0.1)["regression"] == "unresolved"
    # every change run beats every parent run: resolved despite the spread
    assert bench_pairs.verdicts(parent, [0.1, 0.2, 0.3, 0.3, 0.35], "lower",
                                0.1)["regression"] == "ok"
    # higher is better: the median 0.1 lower is worse past 0.1 x 0.6
    got = bench_pairs.verdicts(parent, [v - 0.1 for v in parent], "higher", 0.1)
    assert (got["gap"], got["regression"]) == (pytest.approx(-0.1), "worse")
    # ties count for neither side, and without a bound there is no verdict
    got = bench_pairs.verdicts([1.0] * 10, [1.0] * 10, "lower", None)
    assert (got["wins"], got["claim"], got["regression"]) == (0, False, None)


def test_bench_pairs_alternates_which_side_runs_first(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # where the summary file is written
    bench_pairs = load_script("bench_pairs.py")
    order = []

    def fake_run_once(checkout, workload, seed, seconds):
        assert seconds == 36  # the benchmark's run length, not an option
        order.append(checkout.name)
        job_s = 0.5 if checkout.name == "parent" else 0.4
        return bench_pairs.parse_results(run_py_output(workload, job_s, 0.1))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 36, "end_to_end": [{"name": "job_s_p50", "better": "lower"}]}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "chain-3", "--seed", "1", "--pairs", "3"]) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "chain-3:"
    assert "wins 3/3" in out


def test_bench_pairs_writes_its_summary(monkeypatch, capsys, tmp_path):
    bench_pairs = load_script("bench_pairs.py")

    def fake_run_once(checkout, workload, seed, seconds):
        job_s = 0.5 if checkout.name == "parent" else 0.7
        return bench_pairs.parse_results(run_py_output(workload, job_s, 0.1,
                                                       correct=checkout.name == "parent"))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 36, "end_to_end": [
            {"name": "job_s_p50", "better": "lower", "bound": 0.25},
            {"name": "err_rel", "better": "lower", "bound": 0.1}]}))
    assert bench_pairs.main(["parent", "change", "--workload", "chain-3", "--seed", "7",
                             "--pairs", "2"]) == 0
    summary = json.loads((tmp_path / "BENCH_chain-3-s7.json").read_text())
    assert (summary["workload"], summary["seed"], summary["pairs"]) == ("chain-3", 7, 2)
    assert summary["failed_runs"] == ["change run 1: correct=False failed=0 of 40",
                                      "change run 2: correct=False failed=0 of 40"]
    job = summary["metrics"]["job_s_p50"]
    assert job["parent"]["values"] == [0.5, 0.5] and job["change"]["median"] == 0.7
    assert (job["wins"], job["claim"], job["regression"]) == (0, False, "worse")
    assert summary["metrics"]["err_rel"]["regression"] == "ok"
    assert "regression worse" in capsys.readouterr().out


def test_src_lines_counts_code_and_docstrings_but_not_comments(tmp_path, capsys):
    src_lines = load_script("src_lines.py")
    (tmp_path / "a.py").write_text(
        '"""A module.\n\nIts docstring counts."""\n'  # 2 lines, the blank one not
        "\n"
        "# a comment\n"
        "    # an indented comment\n"
        "x = 1  # a trailing comment: the code counts\n"
        's = "# in a string"\n'
        "   \n")
    (tmp_path / "b.py").write_text("def f():\n    return 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "4", "b.py", "2", "total", "6"]


def test_compare_outputs_reports_a_tampered_output(tmp_path):
    compare_outputs = load_script("compare_outputs.py").compare_outputs
    report = {"schema_version": 3, "error_l2": 1.5, "fragile_count": 0,
              "wall_time_ms": 10.0, "timings_ms": {"parse": 1.0}}
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        (d / "V.csv").write_text("1,-2\n0,3\n")
        (d / "report.json").write_text(json.dumps(report))
        np.savez(d / "chain_out.npz", v1=np.array([[1, -2]]), error_l2=np.array([0.25]))
    assert set(compare_outputs(*dirs).values()) == {"identical"}

    # timings are ignored; 0.0 is not 0; one entry of V and one array differ
    (dirs[1] / "V.csv").write_text("1,-2\n0,4\n")
    (dirs[1] / "report.json").write_text(json.dumps(
        {**report, "fragile_count": 0.0, "wall_time_ms": 11.0, "timings_ms": {"parse": 2.0}}))
    np.savez(dirs[1] / "chain_out.npz", v1=np.array([[1, -2]]), error_l2=np.array([-0.25]))
    assert compare_outputs(*dirs) == {
        "V.csv": "differs",
        "chain_out.npz": "differs: error_l2",
        "report.json": "keys differ: fragile_count",
    }
