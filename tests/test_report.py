import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquant.report import REPORT_SCHEMA, Report, render_json


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
        data = json.loads(make_report(v=[1], agreement=True, oracle_error=0.5).to_json())
        assert list(data) == [
            "algorithm", "n", "k", "m", "mu", "alpha", "delta", "v",
            "error_l2", "error_regularized", "bound_abs_paper",
            "bound_abs_halfstep", "gamma_bound", "step_coeffs",
            "fragile_count", "agreement", "oracle_error", "wall_time_ms",
        ]

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
