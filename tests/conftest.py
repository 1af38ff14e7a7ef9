import numpy as np
import pytest

import latquant.quantize

# Integer basis of the plain square grid in the plane: columns (3,1) and
# (5,2), determinant 1.  Small enough to trace by hand, skew enough to
# make the greedy solver miss the optimum.
WORKED = np.array([[3.0, 5.0], [1.0, 2.0]])


@pytest.fixture(autouse=True)
def fresh_basis_memo(monkeypatch):
    """Every test starts with an empty basis memo (quantize._cached_basis),
    so no factorization carries over from an earlier test."""
    monkeypatch.setattr(latquant.quantize, "_last_basis", None)


@pytest.fixture
def worked_basis() -> np.ndarray:
    return WORKED.copy()


@pytest.fixture
def make_instance():
    """Seeded random (X, w) generator: k x n uniform[-1, 1] calibration
    plus a weight row."""

    def _make(seed: int, n: int | None = None, k: int | None = None,
              n_max: int = 8, k_extra: int = 8):
        rng = np.random.default_rng(seed)
        if n is None:
            n = int(rng.integers(2, n_max + 1))
        if k is None:
            k = n + int(rng.integers(0, k_extra + 1))
        return rng.uniform(-1.0, 1.0, (k, n)), rng.uniform(-1.0, 1.0, n)

    return _make


@pytest.fixture
def ill_conditioned_basis() -> np.ndarray:
    """X 25 x 17 with cond ~3e10 (singular values 1 .. ~1e-11 between two
    random rotations).  Its LLL transform has entries up to 79500, its
    inverse up to 165025, and determinant 1, which the float determinant
    read as 1.0000052."""
    rng = np.random.default_rng(1000)
    n = int(rng.integers(14, 32))
    k = n + int(rng.integers(0, n))
    s = np.logspace(0, -rng.uniform(8, 12), n)
    rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (rng.standard_normal((k, n)) @ (rotation * s)
            @ np.linalg.qr(rng.standard_normal((n, n)))[0])
