import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquant.report import REPORT_SCHEMA, SCHEMA_VERSION, Report, render_json

CONDITIONING = {"mu": 0.0, "route": "cholesky", "l_diag_min": 0.19,
                "l_diag_max": 5.39, "cond_1": 46.0}
QUALITY = {"row_ratio_max": 0.23, "row_ratio_median": 0.23}
TIMINGS = {"parse": 0.5, "factor": 0.25, "solve": 0.75}


def make_report(**overrides):
    base = dict(
        algorithm="gptq", n=2, k=2, m=1, mu=0.0, alpha=1.0, delta=0.99,
        error_l2=1.25, error_regularized=1.25,
        bound_abs_paper=5.0, bound_abs_halfstep=2.5, gamma_bound=29.0,
        step_coeffs=[-1.2, 0.6827], fragile_count=0, wall_time_ms=1.5,
    )
    base.update(overrides)
    return Report(**base)


class TestReport:
    def test_base_keys_validate(self):
        data = json.loads(make_report(v=[0, 2]).to_json())
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["v"] == [0, 2]

    def test_optionals_omitted(self):
        data = json.loads(make_report().to_json())
        for key in ("v", "V", "agreement", "oracle_error"):
            assert key not in data
        jsonschema.validate(data, REPORT_SCHEMA)

    def test_key_order_matches_contract(self):
        data = json.loads(make_report(
            v=[1], agreement=True, oracle_error=0.5, conditioning=CONDITIONING,
            quality=QUALITY, timings_ms=TIMINGS).to_json())
        jsonschema.validate(data, REPORT_SCHEMA)
        assert list(data) == [
            "schema_version", "algorithm", "n", "k", "m", "mu", "alpha",
            "delta", "v", "error_l2", "error_regularized", "bound_abs_paper",
            "bound_abs_halfstep", "gamma_bound", "step_coeffs",
            "fragile_count", "agreement", "oracle_error", "wall_time_ms",
            "conditioning", "quality", "timings_ms",
        ]

    def test_every_report_carries_the_schema_version(self):
        data = json.loads(make_report().to_json())
        assert data["schema_version"] == SCHEMA_VERSION == 2
        for version in (None, 1):
            if version is None:
                del data["schema_version"]
            else:
                data["schema_version"] = version
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(data, REPORT_SCHEMA)

    def test_step_coeffs_are_optional(self):
        data = json.loads(make_report(step_coeffs=None).to_json())
        assert "step_coeffs" not in data
        jsonschema.validate(data, REPORT_SCHEMA)

    def test_cond_is_the_one_optional_key_of_the_summaries(self):
        conditioning = {k: v for k, v in CONDITIONING.items() if k != "cond_1"}
        jsonschema.validate(json.loads(make_report(conditioning=conditioning).to_json()),
                            REPORT_SCHEMA)
        for key, full in (("conditioning", conditioning), ("quality", QUALITY),
                          ("timings_ms", TIMINGS)):
            for drop in full:
                part = {k: v for k, v in full.items() if k != drop}
                data = json.loads(make_report(**{key: part}).to_json())
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(data, REPORT_SCHEMA)
            data = json.loads(make_report(**{key: {**full, "extra": 1.0}}).to_json())
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(data, REPORT_SCHEMA)

    def test_schema_rejects_an_unknown_route(self):
        data = json.loads(make_report(conditioning={**CONDITIONING, "route": "svd"}).to_json())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, REPORT_SCHEMA)

    def test_schema_rejects_both_v_and_V(self):
        data = json.loads(make_report(v=[1]).to_json())
        data["V"] = [[1]]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, REPORT_SCHEMA)

    def test_schema_rejects_unknown_keys(self):
        data = json.loads(make_report().to_json())
        data["extra"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, REPORT_SCHEMA)


class TestRenderJson:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_reals_round_trip_bit_exact(self, x):
        back = json.loads(render_json({"x": x}))["x"]
        assert np.float64(back).view(np.uint64) == np.float64(x).view(np.uint64)

    def test_reals_stay_reals(self):
        # whole-number floats keep a decimal point so types survive a round trip
        assert render_json(2.0) == "2.0"
        assert isinstance(json.loads(render_json(2.0)), float)

    def test_bools_are_not_ints(self):
        assert render_json({"agreement": True}) == '{"agreement":true}'

    def test_numpy_scalars_and_arrays(self):
        out = render_json({"v": np.array([1, -2]), "e": np.float64(0.5)})
        assert json.loads(out) == {"v": [1, -2], "e": 0.5}

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reals(self, x):
        # JSON has no inf or nan; Python's json would write invalid text
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"mu": [0.5, np.float64(x)]})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json(object())


def render_one_by_one(value):
    """render_json with every list rendered item by item."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{render_one_by_one(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(render_one_by_one(v) for v in value) + "]"
    return render_json(value)


def rendering(render, value):
    try:
        return render(value)
    except ValueError as exc:
        return ("ValueError", str(exc))


_REALS = st.one_of(
    st.floats(width=64),  # nan and inf included: both renderings must refuse them
    st.sampled_from([-0.0, 0.0, 1e16, 1e16 + 2, 5e-324, -5e-324, 1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.sampled_from([2 ** 63, -(2 ** 63) - 1, 10 ** 30]))
_ITEMS = st.one_of(
    _REALS, _INTS, st.booleans(),
    _REALS.map(np.float64), st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


class TestBulkRender:
    """Lists of exactly float or exactly int render in one join; the text
    must be what rendering item by item gives."""

    @given(st.one_of(st.lists(_REALS), st.lists(_INTS), st.lists(st.booleans()),
                     st.lists(_ITEMS), st.lists(st.lists(_INTS), max_size=3)))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_item_by_item(self, items):
        assert rendering(render_json, items) == rendering(render_one_by_one, items)
        record = {"step_coeffs": items, "n": 2}
        assert rendering(render_json, record) == rendering(render_one_by_one, record)

    @pytest.mark.parametrize("items", [
        [], [-0.0, 1e16, 5e-324], [2 ** 64, -(2 ** 70), 0], [True, False],
        [1, True], [1, 2.0], [np.float64(0.5), 0.25], [np.int64(3), 4],
        [np.bool_(True)], (1.5, 2.5),
        # the one repr of an int list: a tuple, one item, int64's extremes, V
        (7,), (3, -4), [-(2 ** 63), 2 ** 63 - 1], [[1, -2], [3, 4]], [[]],
    ])
    def test_worked_cases(self, items):
        assert render_json(items) == render_one_by_one(items)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_items(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            render_json([0.5, float(bad), 1.5])
