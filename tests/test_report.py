import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquant.report import REPORT_SCHEMA, SCHEMA_VERSION, Report

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
        assert data["schema_version"] == SCHEMA_VERSION == 3
        for version in (None, 1, 2):
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
        # schema 3 has no V: a matrix's integers live in V.csv alone
        data = json.loads(make_report(v=[1]).to_json())
        without_v = {k: v for k, v in data.items() if k != "v"}
        for report in ({**data, "V": [[1]]}, {**without_v, "V": [[1]]}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, REPORT_SCHEMA)

    def test_schema_rejects_unknown_keys(self):
        data = json.loads(make_report().to_json())
        data["extra"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, REPORT_SCHEMA)


def render(value, key="step_coeffs"):
    """The text Report.to_json gives value in one of its fields."""
    return make_report(**{key: value}).to_json()


def rendered(value, key="step_coeffs"):
    """The value Report.to_json gives back for value in one of its fields."""
    return json.loads(render(value, key))[key]


class TestRenderJson:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_reals_round_trip_bit_exact(self, x):
        back = rendered(x, "error_l2")
        assert np.float64(back).view(np.uint64) == np.float64(x).view(np.uint64)

    def test_reals_stay_reals(self):
        # whole-number floats keep a decimal point so types survive a round trip
        assert '"error_l2":2.0,' in render(2.0, "error_l2")
        assert isinstance(rendered(2.0, "error_l2"), float)

    def test_bools_are_not_ints(self):
        assert '"agreement":true' in render(True, "agreement")
        assert '"agreement":true' in render(np.bool_(True), "agreement")

    def test_numpy_scalars_and_arrays(self):
        assert rendered(np.array([1, -2]), "v") == [1, -2]
        assert rendered(np.float64(0.5), "mu") == 0.5
        assert rendered(np.float32(0.5), "mu") == 0.5
        assert rendered(np.int64(7), "fragile_count") == 7
        assert rendered({"mu": np.float64(0.25), "route": "qr"}, "conditioning") == {
            "mu": 0.25, "route": "qr"}

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reals(self, x):
        # JSON has no inf or nan; Python's json would write invalid text
        with pytest.raises(ValueError, match="non-finite"):
            render({"mu": 0.5, "l_diag_min": np.float64(x)}, "conditioning")
        with pytest.raises(ValueError, match="non-finite"):
            render(float(x), "error_l2")

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render(object())


_REALS = st.one_of(
    st.floats(width=64),  # nan and inf included: the rendering must refuse them
    st.sampled_from([-0.0, 0.0, 1e16, 1e16 + 2, 5e-324, -5e-324, 1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.sampled_from([2 ** 63, -(2 ** 63) - 1, 10 ** 30]))
_ITEMS = st.one_of(
    _REALS, _INTS, st.booleans(),
    _REALS.map(np.float64), st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def same_values(back, items) -> bool:
    """Whether back holds items' values with their JSON types: bit for bit
    for reals, exactly for integers, bools as bools."""
    if isinstance(items, (list, tuple)):
        return (isinstance(back, list) and len(back) == len(items)
                and all(same_values(b, i) for b, i in zip(back, items)))
    if isinstance(items, (bool, np.bool_)):
        return back is bool(items)
    if isinstance(items, (int, np.integer)):
        return type(back) is int and back == int(items)
    return (type(back) is float
            and np.float64(back).view(np.uint64) == np.float64(items).view(np.uint64))


def has_non_finite(items) -> bool:
    if isinstance(items, (list, tuple)):
        return any(map(has_non_finite, items))
    return isinstance(items, (float, np.floating)) and not np.isfinite(items)


class TestBulkRender:
    """A list field renders to the values of its items, whatever mix of
    Python and numpy types it holds, and refuses a non-finite item."""

    def check(self, items):
        if has_non_finite(items):
            with pytest.raises(ValueError, match="non-finite"):
                render(items)
        else:
            assert same_values(rendered(items), items)

    @given(st.one_of(st.lists(_REALS), st.lists(_INTS), st.lists(st.booleans()),
                     st.lists(_ITEMS), st.lists(st.lists(_INTS), max_size=3)))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_item_by_item(self, items):
        self.check(items)

    @pytest.mark.parametrize("items", [
        [], [-0.0, 1e16, 5e-324], [2 ** 64, -(2 ** 70), 0], [True, False],
        [1, True], [1, 2.0], [np.float64(0.5), 0.25], [np.int64(3), 4],
        [np.bool_(True)], (1.5, 2.5),
        (7,), (3, -4), [-(2 ** 63), 2 ** 63 - 1], [[1, -2], [3, 4]], [[]],
    ])
    def test_worked_cases(self, items):
        self.check(items)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_items(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            render([0.5, float(bad), 1.5])
        with pytest.raises(ValueError, match="non-finite"):
            render(np.array([0.5, bad]))
