"""Single-object JSON run reports with a published schema.

Every CLI run that quantizes something writes one JSON object with a
fixed key vocabulary (REPORT_SCHEMA, version SCHEMA_VERSION, which every
report carries as schema_version); optional keys are omitted rather than
set to null.  The report is rendered by one json.dumps call: reals in
Python's shortest round-trip repr, numpy values as the Python values they
hold, and a non-finite real refused, since JSON has no inf or nan.

Version 2 made step_coeffs optional: compare and oracle write their
n-value list, quantize writes none (its m * n coefficients were most of
a layer's report; quantize_matrix(...)[1].step_coeffs has them).  A
quantize report instead explains its run in three small objects:
conditioning (the resolved mu, the factor route, min/max L_ii and the
1-norm condition number cond_1 of L), quality (the max and median over
rows of the regularized error over the per-row bound alpha * ||diag L||,
at most 1 for unclamped runs) and timings_ms (parse, factor and solve).

Version 3 took V (and v) out of quantize reports: V.csv holds the same
integers, which were nearly all of a layer's report (631 KB of 632 KB
at 512 x 512).  compare and oracle still write v and step_coeffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 3


def _reals(*names: str) -> dict:
    """Schema properties: each name a real >= 0."""
    return {name: {"type": "number", "minimum": 0} for name in names}


def _object(properties: dict, optional=()) -> dict:
    """Schema of an object with exactly these properties, all required
    but those named in optional."""
    return {"type": "object", "additionalProperties": False,
            "required": [key for key in properties if key not in optional],
            "properties": properties}


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "latquant run report",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "schema_version", "algorithm", "n", "k", "m", "mu", "alpha", "delta",
        "error_l2", "error_regularized", "bound_abs_paper",
        "bound_abs_halfstep", "gamma_bound", "fragile_count", "wall_time_ms",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "algorithm": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 0},
        "m": {"type": "integer", "minimum": 1},
        "mu": {"type": "number", "minimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "delta": {"type": "number"},
        "v": {"type": "array", "items": {"type": "integer"}},
        "error_l2": {"type": "number", "minimum": 0},
        "error_regularized": {"type": "number", "minimum": 0},
        "bound_abs_paper": {"type": "number", "minimum": 0},
        "bound_abs_halfstep": {"type": "number", "minimum": 0},
        "gamma_bound": {"type": "number", "minimum": 0},
        "step_coeffs": {"type": "array", "items": {"type": "number"}},
        "fragile_count": {"type": "integer", "minimum": 0},
        "agreement": {"type": "boolean"},
        "oracle_error": {"type": "number", "minimum": 0},
        "wall_time_ms": {"type": "number", "minimum": 0},
        # cond_1 is omitted where it overflowed
        "conditioning": _object(
            {**_reals("mu", "l_diag_min", "l_diag_max", "cond_1"),
             "route": {"enum": ["cholesky", "qr"]}},
            optional=("cond_1",)),
        "quality": _object(_reals("row_ratio_max", "row_ratio_median")),
        "timings_ms": _object(_reals("parse", "factor", "solve")),
    },
}

# A report's keys, in the order it writes them.
_KEY_ORDER = tuple(REPORT_SCHEMA["properties"])


@dataclass
class Report:
    algorithm: str
    n: int
    k: int
    m: int
    mu: float
    alpha: float
    delta: float
    error_l2: float
    error_regularized: float
    bound_abs_paper: float
    bound_abs_halfstep: float
    gamma_bound: float
    fragile_count: int
    wall_time_ms: float
    step_coeffs: list[float] | None = None
    v: list[int] | None = None
    agreement: bool | None = None
    oracle_error: float | None = None
    conditioning: dict | None = None
    quality: dict | None = None
    timings_ms: dict | None = None

    def to_dict(self) -> dict:
        raw = {**self.__dict__, "schema_version": SCHEMA_VERSION}
        return {key: raw[key] for key in _KEY_ORDER if raw[key] is not None}

    def to_json(self) -> str:
        """The report as one line of JSON.  JSON has no inf or nan, so a
        non-finite real raises ValueError."""
        try:
            return json.dumps(self.to_dict(), allow_nan=False, separators=(",", ":"),
                              default=_plain)
        except ValueError:
            raise ValueError("cannot render a non-finite real as JSON") from None


def _plain(value):
    """The Python value of a numpy scalar or array, for json.dumps."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot render {type(value)!r} as JSON")
