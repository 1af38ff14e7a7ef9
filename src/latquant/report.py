"""Single-object JSON run reports with a published schema.

Every CLI run that quantizes something writes one JSON object with a
fixed key vocabulary (REPORT_SCHEMA, version SCHEMA_VERSION, which every
report carries as schema_version); optional keys are omitted rather than
set to null.  Reals are rendered with 17 significant digits so the values
round-trip exactly.

Version 2 made step_coeffs optional: compare and oracle write their
n-value list, quantize writes none (its m * n coefficients were most of
a layer's report; quantize_matrix(...)[1].step_coeffs has them).  A
quantize report instead explains its run in three small objects:
conditioning (the resolved mu, the factor route, min/max L_ii and the
1-norm condition number cond_1 of L), quality (the max and median over
rows of the regularized error over the per-row bound alpha * ||diag L||,
at most 1 for unclamped runs) and timings_ms (parse, factor and solve).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 2

_KEY_ORDER = (
    "schema_version", "algorithm", "n", "k", "m", "mu", "alpha", "delta", "v", "V",
    "error_l2", "error_regularized", "bound_abs_paper", "bound_abs_halfstep",
    "gamma_bound", "step_coeffs", "fragile_count", "agreement",
    "oracle_error", "wall_time_ms", "conditioning", "quality", "timings_ms",
)


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
    # v (single row) and V (matrix) are mutually exclusive.
    "not": {"required": ["v", "V"]},
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
        "V": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
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
    V: list[list[int]] | None = None
    agreement: bool | None = None
    oracle_error: float | None = None
    conditioning: dict | None = None
    quality: dict | None = None
    timings_ms: dict | None = None

    def to_dict(self) -> dict:
        raw = {**self.__dict__, "schema_version": SCHEMA_VERSION}
        return {key: raw[key] for key in _KEY_ORDER if raw[key] is not None}

    def to_json(self) -> str:
        return render_json(self.to_dict())


def _format_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot render the non-finite real {float(x)!r} as JSON")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"  # keep JSON type stable across round-trips
    return s


def render_json(value) -> str:
    """JSON with reals at 17 significant digits (bools checked before
    ints; numpy scalars welcome).  JSON has no inf or nan, so a
    non-finite real raises ValueError."""
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{render_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + _render_items(value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_real(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value)!r} as JSON")


def _render_items(items) -> str:
    """The comma-joined items of a list: in one join when all are exactly
    float, in one repr of the list without its spaces and brackets when
    all are exactly int (which excludes bool and numpy integers, whose
    repr names the type), else one by one."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return ",".join(map(_format_real, items))
    if kinds == {int}:
        return repr(list(items)).replace(" ", "")[1:-1]
    return ",".join(render_json(v) for v in items)
