import tracemalloc
from decimal import Decimal
from pathlib import Path
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

needs_extended = pytest.mark.skipif(
    not matio._EXTENDED, reason="long double is not x87 extended precision here")


class TestParse:
    def test_basic(self):
        m = parse_matrix_csv(b"1,2\n3,4\n")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

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
    """CSV text with blank lines, CRLF or stray CR endings and ragged
    rows."""
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
    return text


def outcome(parse, text):
    """What a parser makes of text: the value bits, or the error's details."""
    try:
        m = parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, exc.token, str(exc))
    except RaggedRows as exc:
        return ("RaggedRows", exc.line, str(exc))
    return ("ok", m.shape, m.view(np.uint64).tolist())


def parse_per_field(text):
    with mock.patch.object(matio, "_convert", return_value=False):
        return parse_matrix_csv(text)


class TestBulkParse:
    """The bulk path against the line loop it falls back to."""

    @given(csv_texts(), st.booleans())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_per_field_loop(self, text, as_bytes):
        data = text.encode("utf-8") if as_bytes else text
        assert outcome(parse_matrix_csv, data) == outcome(parse_per_field, data)

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
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_worked_cases(self, text, as_bytes):
        data = text.encode("utf-8") if as_bytes else text
        assert outcome(parse_matrix_csv, data) == outcome(parse_per_field, data)

    @needs_extended
    def test_valid_input_skips_the_per_field_loop(self):
        text = serialize_matrix_csv(np.arange(12.0).reshape(3, 4) / 7)
        with mock.patch.object(matio, "_convert_lines", side_effect=AssertionError):
            m = parse_matrix_csv(text)
        assert m.shape == (3, 4)


def load_text(path):
    """load_matrix_csv as a parser of text: writes the text to path first."""
    def load(text):
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return load_matrix_csv(path)
    return load


@st.composite
def csv_bytes(draw):
    """csv_texts as UTF-8 bytes, now and then with a byte that is not
    UTF-8 or a cut multi-byte sequence spliced in."""
    data = draw(csv_texts()).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xd9", b"\xe2\x82"])) + data[at:]
    return data


class TestStreamedLoad:
    """load_matrix_csv reads the file CHUNK_BYTES at a time; it must agree
    with parse_matrix_csv on the whole bytes, values and errors alike."""

    @given(csv_bytes(), st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 20]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_parse_of_the_whole_bytes(self, tmp_path_factory, data, chunk):
        load = load_text(tmp_path_factory.getbasetemp() / "stream.csv")
        with mock.patch.object(matio, "CHUNK_BYTES", chunk):
            assert outcome(load, data) == outcome(parse_matrix_csv, data)

    # as_text: the whole-text parse takes the data decoded, not as bytes
    @pytest.mark.parametrize("data, as_text, want", [
        (b"1,2\r\n3,4\r\n", False, [[1, 2], [3, 4]]),             # CR | LF at 4 bytes
        ("1_0,\u0661\n2,3\n".encode(), False, [[10, 1], [2, 3]]),  # 0xD9 | 0xA1 at 5 bytes
        (b"1,2\n3,4\n5,\xff\n", False, ("ParseError", 3)),        # invalid UTF-8 past chunk 2
        (b"a,b\n1,2\n3,4\n", True, ("ParseError", 1)),             # a header line is data
        (b"1,2\n\n3,4\n", False, ("RaggedRows", 2)),               # a blank middle line
        (b"1,2\n3,4", False, [[1, 2], [3, 4]]),                    # no trailing newline
        (b"", False, ("ParseError", 1)),                          # an empty file
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 7])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, data, as_text, want, chunk):
        monkeypatch.setattr(matio, "CHUNK_BYTES", chunk)
        got = outcome(load_text(tmp_path / "m.csv"), data)
        assert got == outcome(parse_matrix_csv, data.decode() if as_text else data)
        if isinstance(want, tuple):
            assert got[:2] == want
        else:
            assert got == outcome(parse_matrix_csv, serialize_matrix_csv(np.array(want, float)))

    def test_valid_file_is_not_read_whole(self, tmp_path, monkeypatch):
        # Every byte the loader takes comes through read() on the handle
        # Path.open gives it, at most CHUNK_BYTES a call: a whole-file read,
        # through that handle, Path.read_bytes or any other way, fails.
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.arange(12.0).reshape(3, 4) / 7)
        monkeypatch.setattr(matio, "CHUNK_BYTES", 16)
        reads, open_file = [], Path.open

        class Spy:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def read(self, size=-1):
                reads.append(len(data := self.f.read(size)))
                return data

            def seek(self, *args):
                return self.f.seek(*args)

        monkeypatch.setattr(Path, "open", lambda self, *args, **kw: Spy(open_file(self, *args, **kw)))
        assert load_matrix_csv(path).shape == (3, 4)
        assert sum(reads) >= path.stat().st_size > 16 >= max(reads)

    def test_peak_memory_is_the_array_and_a_few_chunks(self, tmp_path, monkeypatch):
        # The bound: the output array plus 8 chunks.  Reading the whole
        # file would hold its bytes, its text and its lines at once, about
        # 3 x 515 kB here, over 60 chunks of 16 KiB.
        chunk = 1 << 14
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.random.default_rng(7).standard_normal((400, 64)) / 7)
        assert path.stat().st_size > 30 * chunk
        monkeypatch.setattr(matio, "CHUNK_BYTES", chunk)
        tracemalloc.start()
        try:
            m = load_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes + 8 * chunk

    def test_an_error_on_the_last_line_is_raised_from_the_stream(self, tmp_path, monkeypatch):
        # The same bound as for a valid file: the line loop raises from the
        # last chunk, and the file is not read again to name the line.
        chunk = 1 << 14
        path = tmp_path / "m.csv"
        text = serialize_matrix_csv(np.random.default_rng(7).standard_normal((400, 64)) / 7)
        path.write_text(text[: text.rindex(",") + 1] + "abc\n")
        assert path.stat().st_size > 30 * chunk
        monkeypatch.setattr(matio, "CHUNK_BYTES", chunk)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.line, exc.value.col, exc.value.token) == (400, 64, "abc")
        assert peak < 400 * 64 * 8 + 8 * chunk

    def test_the_first_bad_line_outranks_a_later_undecodable_byte(self, tmp_path):
        data = b"1,2\nx,4\n5,\xff\n"
        for parse in (parse_matrix_csv, load_text(tmp_path / "m.csv")):
            with pytest.raises(ParseError) as exc:
                parse(data)
            assert (exc.value.line, exc.value.col, exc.value.token) == (2, 1, "x")

    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_line_count_that_changed_is_refused(self, tmp_path, monkeypatch, off):
        # as when the file grows or shrinks between the counting pass and
        # the parse: no row may be returned unfilled
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.arange(12.0).reshape(6, 2))
        count_lines = matio._count_lines
        monkeypatch.setattr(matio, "_count_lines", lambda f: count_lines(f) + off)
        with pytest.raises(ParseError, match="changed"):
            load_matrix_csv(path)


def convert(text):
    """_convert on text, whose lines each end in a newline and hold as many
    fields as the first: the values, or None where it declines."""
    dest = np.full((text.count("\n"), text.split("\n", 1)[0].count(",") + 1), np.nan)
    return dest if matio._convert(text.encode("utf-8"), dest) else None


def per_token(text):
    """float() on every field of text's lines."""
    return np.array([[float(t) for t in line.split(",")] for line in text.split("\n")[:-1]])


def bits(m):
    return m.view(np.uint64).tolist()


def midpoint(m54, shift):
    """The decimal string of the odd 54-bit m54 * 2**shift, a value halfway
    between two doubles."""
    assert m54 % 2 and 2 ** 53 <= m54 < 2 ** 54
    return format(Decimal(m54) * Decimal(2) ** shift, "f")


_MID = midpoint(12345678901234567, -3)  # 1543209862654320.875, 19 digits


def nudge(token, step):
    """token with step added to its 19th digit, the last one here."""
    digits = int(token.replace(".", "")) + step
    return f"{str(digits)[:-3]}.{str(digits)[-3:]}"


# Tokens that only the gate's alphabet builds: well formed or not.
_GATE_TOKENS = st.one_of(
    st.text("0123456789.-+eE", max_size=8),
    st.from_regex(r"-?[0-9]{0,21}(\.[0-9]{0,21})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
)


@st.composite
def gate_texts(draw):
    """Lines of gate tokens, now and then ragged, or raw bytes of the
    gate's alphabet, always ending in a newline."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text("0123456789.-+eE,\n", max_size=40)) + "\n"
    ncols = draw(st.integers(1, 4))
    width = st.sampled_from([ncols] * 8 + [ncols - 1, ncols + 1])
    lines = [",".join(draw(st.lists(_GATE_TOKENS, min_size=w, max_size=w)))
             for w in draw(st.lists(width, min_size=1, max_size=4))]
    return "\n".join(lines) + "\n"


@needs_extended
class TestConvert:
    """The array converter against float() on every token."""

    @given(gate_texts())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_declines_or_matches_float(self, text):
        got = convert(text)
        if got is not None:
            assert bits(got) == bits(per_token(text))

    @pytest.mark.parametrize("token", [
        _MID, nudge(_MID, -1), nudge(_MID, 1),                     # a midpoint, +-1 in digit 19
        midpoint(2 ** 53 + 1, 0), midpoint(2 ** 53 + 1, -1),       # 9007199254740993, ...496.5
        midpoint(5 ** 23, 23), "1e23", "-1e23",                     # 10**23 is a midpoint
        "-1133.249616525335", "376.463540996511", "252451963850604757e3",  # round to one
        "0", "-0", "-0.0", "0e5", "-.0e-3", "5.", "-.5", "1E+2",
        "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e400",
        "9223372036854775806", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "99999999999999999999", "1" + "0" * 30,
        "1e27", "1e28", "1e-27", "1e-28", "15e26", "0." + "0" * 26 + "1", "0." + "0" * 27 + "1",
        "1e9223372036854775807", "1e-9223372036854775808", "1e99999999999999999999",
    ])
    def test_worked_cases(self, token):
        text = f"{token},-{token.lstrip('-')}\n"
        assert bits(convert(text)) == bits(per_token(text))

    @pytest.mark.parametrize("token, mant, e10", [
        ("-1133.249616525335", 1133249616525335, -12),
        ("376.463540996511", 376463540996511, -12),
        ("252451963850604757e3", 252451963850604757, 3),
    ])
    def test_the_traps_are_real(self, token, mant, e10):
        # Among the worked cases: each extended result is a float64
        # midpoint, and rounding it on misses float()'s value.
        ext = np.longdouble(mant)
        ext = ext * matio._POW10[e10] if e10 >= 0 else ext / matio._POW10[-e10]
        assert float(ext) != abs(float(token))

    @pytest.mark.parametrize("token", [
        "-", ".", "-.", "1e", "1e+", "1e-", "--1", "1-2", "1+2", "+1", "1.2.3",
        "e5", ".e1", "1e5e3", "1e5.3", "1e+-3", "",
    ])
    def test_declines_what_float_refuses(self, token):
        assert convert(f"1,{token}\n") is None
        text = f"1,{token}\n"
        assert outcome(parse_matrix_csv, text) == outcome(parse_per_field, text)

    def test_power_table_is_exact(self):
        assert [int(p) for p in matio._POW10] == [10 ** k for k in range(28)]

    def test_valid_text_skips_the_line_loop(self):
        text = serialize_matrix_csv(np.random.default_rng(3).standard_normal((50, 7)) * 1e-3)
        with mock.patch.object(matio, "_convert_lines", side_effect=AssertionError):
            m = parse_matrix_csv(text)
        assert bits(m) == bits(per_token(text))


def test_without_extended_precision_the_line_loop_gives_the_same_bits(monkeypatch):
    text = serialize_matrix_csv(np.random.default_rng(4).standard_normal((30, 6)) * 1e5)
    text += "1e23,-0.0,5e-324,9223372036854775808,1e-28,-1133.249616525335\n"
    fast = parse_matrix_csv(text)
    monkeypatch.setattr(matio, "_EXTENDED", False)
    assert convert(text) is None
    assert bits(parse_matrix_csv(text)) == bits(fast) == bits(per_token(text))


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

    @pytest.mark.parametrize("matrix", [
        np.array([[np.iinfo(np.int64).min, -1, 0], [1, 7, np.iinfo(np.int64).max]]),
        np.array([[-3, 5, -12, 0]]),  # one row
        np.array([[-3], [5], [-12]]),  # one column
        np.array([[-8, 8], [-1, 0]], dtype=np.int8),
        np.array([[0, np.iinfo(np.uint64).max]], dtype=np.uint64),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((2, 0), dtype=np.int64),
        np.array([[2 ** 63, -(2 ** 64) - 1], [np.int64(5), -7]], dtype=object),
    ], ids=["int64-extremes", "one-row", "one-column", "int8", "uint64", "no-rows",
            "no-columns", "object-past-2^63"])
    def test_integer_rows_match_the_per_entry_formatter(self, matrix):
        # the formatter integer matrices went through before the one repr
        want = "".join(",".join(map(str, map(int, row))) + "\n" for row in matrix.tolist())
        assert serialize_matrix_csv(matrix) == want

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
