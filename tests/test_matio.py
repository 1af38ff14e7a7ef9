from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquant import matio
from latquant.matio import (
    ParseError,
    RaggedRows,
    load_matrix_csv,
    parse_matrix_csv,
    save_matrix_csv,
    serialize_matrix_csv,
)


class TestParse:
    def test_basic(self):
        m = parse_matrix_csv(b"1,2\n3,4\n")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self):
        m = parse_matrix_csv(b"x,y\n1,2\n", expect_header=True)
        np.testing.assert_array_equal(m, [[1.0, 2.0]])

    def test_no_trailing_newline(self):
        m = parse_matrix_csv("1,2\n3,4")
        assert m.shape == (2, 2)

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows) as exc:
            parse_matrix_csv(b"1,2\n3\n")
        assert exc.value.line == 2

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix_csv(b"1,2\n3,abc\n")
        assert (exc.value.line, exc.value.col) == (2, 2)
        assert exc.value.token == "abc"

    def test_rejects_non_finite(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_csv(b"1,inf\n")
        with pytest.raises(ParseError):
            parse_matrix_csv(b"nan\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_matrix_csv(b"")
        with pytest.raises(ParseError, match="empty"):
            parse_matrix_csv(b"header\n", expect_header=True)

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_matrix_csv(b"1,2\n\xff\xfe\n")

    def test_crlf_tolerated(self):
        m = parse_matrix_csv(b"1,2\r\n3,4\r\n")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


# Tokens float() treats in every way it can: accepted as they are, with
# surrounding space, underscores or non-ASCII digits, non-finite or
# overflowing to inf, and refused.
_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from([
        "0", "-0.0", "5e-324", "1e-400", " 1.5", "2.5 ", "\t3", "1_0", "1__0",
        "\u0661\u0662", "\uff13", "nan", "-inf", "inf", "Infinity", "1e400",
        "-1e400", "", " ", "abc", "0x10", "1,5", "1\r5", "\r", "+.5", "1e",
    ]),
)


@st.composite
def csv_texts(draw):
    """CSV text with blank lines, CRLF or stray CR endings, ragged rows
    and an optional header; returns (text, expect_header)."""
    ncols = draw(st.integers(1, 4))
    width = st.sampled_from([ncols] * 6 + [ncols - 1, ncols + 1])
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        else:
            fields = draw(width)
            lines.append(",".join(draw(st.lists(_TOKENS, min_size=fields, max_size=fields))))
    endings = st.sampled_from(["\n", "\n", "\r\n", "\r\r\n"])
    text = "".join(line + draw(endings) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    header = draw(st.booleans())
    if header:
        text = "a,b\n" + text
    return text, header


def outcome(parse, text, header):
    """What a parser makes of text: the value bits, or the error's details."""
    try:
        m = parse(text, expect_header=header)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, exc.token, str(exc))
    except RaggedRows as exc:
        return ("RaggedRows", exc.line, str(exc))
    return ("ok", m.shape, m.view(np.uint64).tolist())


def parse_per_field(text, expect_header=False):
    with mock.patch.object(matio, "_parse_bulk", lambda lines: None):
        return parse_matrix_csv(text, expect_header=expect_header)


class TestBulkParse:
    """The bulk path against the per-field loop it falls back to."""

    @given(csv_texts(), st.booleans())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_per_field_loop(self, case, as_bytes):
        text, header = case
        data = text.encode("utf-8") if as_bytes else text
        assert outcome(parse_matrix_csv, data, header) == outcome(parse_per_field, data, header)

    @pytest.mark.parametrize("text", [
        "1,2\n\n3,4\n",        # blank line: ragged at line 2
        "1,2\n3,4,\n",          # empty trailing field
        "1,2\n3\r4,5\n",       # stray CR inside a line
        "1,2\r\n3,nan\r\n",   # non-finite value
        "1,1e400\n",            # overflows to inf
        "1, 2\n 3,4 \n",        # surrounding spaces are accepted
        "1_0,\u0661\n",         # underscores and non-ASCII digits too
        "1,2\n3,x\n5\n",       # the first error in line order wins
        "1,2\n3\n5,y\n",
    ])
    @pytest.mark.parametrize("header", [False, True])
    def test_worked_cases(self, text, header):
        assert outcome(parse_matrix_csv, text, header) == outcome(parse_per_field, text, header)

    def test_valid_input_skips_the_per_field_loop(self):
        text = serialize_matrix_csv(np.arange(12.0).reshape(3, 4) / 7)
        with mock.patch.object(matio, "_parse_fields", side_effect=AssertionError):
            m = parse_matrix_csv(text)
        assert m.shape == (3, 4)


class TestSerialize:
    def test_floats_use_shortest_form(self):
        text = serialize_matrix_csv(np.array([[1.0, 0.1], [-0.0, 2.5]]))
        assert text == "1.0,0.1\n-0.0,2.5\n"

    def test_integer_matrix_plain(self):
        text = serialize_matrix_csv(np.array([[0, 2], [-3, 4]], dtype=np.int64))
        assert text == "0,2\n-3,4\n"

    def test_object_integers(self):
        text = serialize_matrix_csv(np.array([[2 ** 70]], dtype=object))
        assert text == f"{2 ** 70}\n"

    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=4,
            ).map(tuple),
            min_size=1, max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_bit_exact(self, rows):
        m = np.array(rows, dtype=float)
        back = parse_matrix_csv(serialize_matrix_csv(m))
        assert back.shape == m.shape
        # bitwise equality, including signed zeros and denormals
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

    def test_round_trip_extreme_values(self):
        m = np.array([[5e-324, -5e-324, 1.7976931348623157e308],
                      [-0.0, 2.2250738585072014e-308, 1e16 + 1]])
        back = parse_matrix_csv(serialize_matrix_csv(m))
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array([[0.4, 1.6], [-2.25, 3.0]])
        save_matrix_csv(path, m)
        back = load_matrix_csv(path)
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
