"""The benchmark's output checks pass on latquant's outputs and fail when one
entry of V moves by +-1.  Small versions of the three workloads run
latquant in-process; the tracer runs in a subprocess.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import chain_job  # noqa: E402
import workloads  # noqa: E402
from latquant.cli import main as cli_main  # noqa: E402
from tracer import layer_metrics  # noqa: E402


class SmallGptq(workloads.Gptq512):
    n, k, m = 8, 32, 6


class SmallLll(workloads.Lll40):
    n, k, m = 14, 56, 6


class SmallChain(workloads.Chain3):
    n, k = 8, 128


def run_job(wl, outdir: Path) -> None:
    outdir.mkdir()
    main = cli_main if wl.mode == "cli" else chain_job.main
    assert main(wl.args(outdir)) == 0


def move_entry(wl, outdir: Path, delta: int) -> None:
    """Move one entry of a row the reference does not skip."""
    row = int(np.setdiff1d(np.arange(6), getattr(wl, "fragile", []))[0])
    if wl.mode == "cli":
        v = np.loadtxt(outdir / "V.csv", delimiter=",", dtype=np.int64, ndmin=2)
        v[row, 1] += delta
        np.savetxt(outdir / "V.csv", v, fmt="%d", delimiter=",")
    else:
        with np.load(outdir / "chain_out.npz") as out:
            data = dict(out)
        data["v2"][row, 1] += delta
        np.savez(outdir / "chain_out.npz", **data)


@pytest.mark.parametrize("cls", [SmallGptq, SmallLll, SmallChain])
@pytest.mark.parametrize("seed", [0, 1])
def test_checks_pass_on_latquant_output(cls, seed, tmp_path):
    wl = cls(seed, tmp_path, SRC)
    run_job(wl, tmp_path / "job")
    problems, err_rel = wl.check(tmp_path / "job")
    assert problems == []
    assert 0 < err_rel < 1


@pytest.mark.parametrize("cls", [SmallGptq, SmallLll, SmallChain])
@pytest.mark.parametrize("delta", [1, -1])
def test_checks_fail_on_moved_entry(cls, delta, tmp_path):
    wl = cls(0, tmp_path, SRC)
    run_job(wl, tmp_path / "job")
    move_entry(wl, tmp_path / "job", delta)
    problems, _ = wl.check(tmp_path / "job")
    assert any("differ from the reference" in p for p in problems)


def test_error_recomputation_catches_a_wrong_report(tmp_path):
    wl = SmallGptq(0, tmp_path, SRC)
    run_job(wl, tmp_path / "job")
    path = tmp_path / "job" / "report.json"
    report = json.loads(path.read_text())
    report["error_l2"] *= 1 + 1e-6
    path.write_text(json.dumps(report))
    problems, _ = wl.check(tmp_path / "job")
    assert any(p.startswith("error_l2") for p in problems)


@pytest.mark.parametrize("cls", [SmallLll, SmallChain])
def test_tracer_counts_calls(cls, tmp_path):
    wl = cls(0, tmp_path, SRC)
    outdir = tmp_path / "job"
    outdir.mkdir()
    spans = outdir / "spans.json"
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, str(here / "tracer.py"), str(spans), wl.mode,
                    *wl.args(outdir)], check=True, env={"PYTHONPATH": str(SRC)},
                   capture_output=True)
    assert wl.check(outdir)[0] == []
    metrics = layer_metrics(json.loads(spans.read_text()), job_s=10.0)
    if cls is SmallLll:
        # the reduction's input check, the reduced lattice, unimodular_det
        assert metrics["linalg.ql_decompose.calls"] == 3
        assert metrics["reduction.lll_reduce.s"] > 0
        assert 0 < metrics["reduction.sum_l2_ratio"] <= 1
        assert metrics["report.bytes"] > 0
        assert metrics["matio.bytes_read"] == wl.x_csv.stat().st_size + wl.w_csv.stat().st_size
    else:
        calls = wl.layers * wl.n
        assert metrics["linalg.ql_decompose.calls"] == calls
        assert metrics["linalg.ql_decompose.unique_ratio"] == wl.layers / calls
        assert metrics["quantize.cross_layer_target.self_s"] > 0
    assert 0 < metrics["cli.untraced_s"] < 10.0
