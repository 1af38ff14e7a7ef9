"""latquant runs on numpy alone: no module of it imports scipy, and no run
loads it.  scipy stays a test dependency, the reference the kernels in
latquant.linalg are checked against."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latquant

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latquant"


def scipy_imports(argv, cwd) -> list[str]:
    """Modules named scipy* that `python -X importtime argv` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "latquant" in names  # the log is there and saw the package
    return [name for name in names if name.startswith("scipy")]


@pytest.mark.parametrize("argv", [
    ["-c", "import latquant"],
    ["-m", "latquant", "--help"],
    ["-m", "latquant", "quantize", "--weights", "W.csv", "--calib", "X.csv"],
    ["-m", "latquant", "oracle", "--weights", "W.csv", "--calib", "X.csv"],
], ids=["import", "help", "quantize", "oracle"])
def test_no_scipy_module_is_loaded(argv, tmp_path):
    (tmp_path / "X.csv").write_text("3.0,5.0\n1.0,2.0\n")
    (tmp_path / "W.csv").write_text("0.4,0.7\n")
    assert scipy_imports(argv, tmp_path) == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []


def test_every_exported_name_resolves():
    assert [name for name in latquant.__all__ if not hasattr(latquant, name)] == []
