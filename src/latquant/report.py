"""Single-object JSON run reports with a published schema.

Every CLI run that quantizes something writes one JSON object with a
fixed key vocabulary (REPORT_SCHEMA); optional keys are omitted rather
than set to null.  Reals are rendered with 17 significant digits so the
values round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_KEY_ORDER = (
    "algorithm", "n", "k", "m", "mu", "alpha", "delta", "v", "V",
    "error_l2", "error_regularized", "bound_abs_paper", "bound_abs_halfstep",
    "gamma_bound", "step_coeffs", "fragile_count", "agreement",
    "oracle_error", "wall_time_ms",
)

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "latquant run report",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "algorithm", "n", "k", "m", "mu", "alpha", "delta",
        "error_l2", "error_regularized", "bound_abs_paper",
        "bound_abs_halfstep", "gamma_bound", "step_coeffs",
        "fragile_count", "wall_time_ms",
    ],
    # v (single row) and V (matrix) are mutually exclusive.
    "not": {"required": ["v", "V"]},
    "properties": {
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
    step_coeffs: list[float]
    fragile_count: int
    wall_time_ms: float
    v: list[int] | None = None
    V: list[list[int]] | None = None
    agreement: bool | None = None
    oracle_error: float | None = None

    def to_dict(self) -> dict:
        raw = self.__dict__
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
    float or all exactly int (which excludes bool), else one by one."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return ",".join(map(_format_real, items))
    if kinds == {int}:
        return ",".join(map(str, items))
    return ",".join(render_json(v) for v in items)
