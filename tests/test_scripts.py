"""Smoke runs of the experiment scripts and of the benchmark's chain job at
a small size."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_equivalence_sweep.py", "run_lll_payoff.py"])
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--instances", "20", "--max-n", "6"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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
        [sys.executable, "-B", str(ROOT / "perfbench" / "chain_job.py"),
         "--inputs", str(tmp_path / "in.npz"), "--out", str(tmp_path / "out.npz")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(tmp_path / "out.npz") as out:
        vs = [out[f"v{i + 1}"] for i in range(3)]
        errors = out["error_l2"]
    problems, err_rel = checks.check_chain(x0, weights, alpha, vs, errors)
    assert problems == []
    assert 0 < err_rel < 1
