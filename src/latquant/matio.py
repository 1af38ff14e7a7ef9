"""CSV matrix I/O with bit-exact float round-tripping.

Format: UTF-8, comma-separated fields, '.' decimal point, newline row
separator, no ragged rows.  Serialization writes the shortest decimal
string that parses back to the same double, so parse(serialize(m)) == m
bitwise for every finite matrix.

Parsing fills a preallocated array one line at a time, with Python's own
float() on every field, and checks finiteness once at the end.
load_matrix_csv streams the file: it counts the lines in one pass, then
reads CHUNK_BYTES at a time, decodes each chunk's complete lines and
carries the partial last line into the next chunk, so it holds the array
and a few chunks, never the whole text.  parse_matrix_csv runs the same
line loop over text in memory.  The grammar is the same either way.
Only when the loop fails (invalid UTF-8, a token float() refuses, a wrong
field count or a non-finite value) does the per-field loop run over the
whole text, re-read from the start for a file, and only to raise
ParseError or RaggedRows at the first bad line and field.  Both loops
call float() on the same tokens, so they accept the same grammar and
produce the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice
from pathlib import Path
from typing import BinaryIO

import numpy as np

# Bytes load_matrix_csv reads at a time: 256 KiB parses as fast as 1 MiB
# and holds a quarter of the text and lines at once.
CHUNK_BYTES = 1 << 18


class ParseError(ValueError):
    def __init__(self, line: int, col: int, token: str, reason: str = "not a number"):
        self.line = line
        self.col = col
        self.token = token
        super().__init__(f"line {line}, field {col}: {reason}: {token!r}")


class RaggedRows(ValueError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"line {line} has a different number of fields")


def parse_matrix_csv(text: bytes | str, expect_header: bool = False) -> np.ndarray:
    """Parse CSV text into a 2-D float64 matrix.

    Line and field positions in errors are 1-based, counting the header
    line when present.  Non-finite values are rejected.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text[: exc.start].count(b"\n") + 1
            raise ParseError(line, 0, repr(exc.object[exc.start : exc.start + 4]),
                             "invalid UTF-8") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    start = 1 if expect_header else 0
    if len(lines) <= start:
        raise ParseError(1, 1, "", "empty input")

    body = lines[start:]
    out = _parse_bulk(iter(body), len(body))
    return out if out is not None else _parse_fields(body, start + 1)


def _parse_bulk(lines: Iterator[str], nrows: int) -> np.ndarray | None:
    """The line loop: nrows lines into one preallocated array, or None
    when a line needs the per-field parser or there are not nrows lines."""
    out, ncols, count = None, 0, 0
    for line in lines:
        fields = line.rstrip("\r").split(",")
        if out is None:
            ncols = len(fields)
            out = np.empty((nrows, ncols))
        if len(fields) != ncols or count == nrows:
            return None
        try:
            out[count] = np.fromiter(map(float, fields), float, count=ncols)
        except ValueError:
            return None
        count += 1
    if out is None or count != nrows or not np.isfinite(out).all():
        return None
    return out


def _parse_fields(lines: list[str], first_lineno: int) -> np.ndarray:
    """The per-field parser: raises at the first bad line and field."""
    rows: list[list[float]] = []
    ncols: int | None = None
    for lineno0, line in enumerate(lines, start=first_lineno):
        fields = line.rstrip("\r").split(",")
        if ncols is None:
            ncols = len(fields)
        elif len(fields) != ncols:
            raise RaggedRows(lineno0)
        row = []
        for colno0, tok in enumerate(fields, start=1):
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(lineno0, colno0, tok) from None
            if not math.isfinite(value):
                raise ParseError(lineno0, colno0, tok, "non-finite value")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float)


def serialize_matrix_csv(matrix: np.ndarray) -> str:
    """Render a matrix as CSV with a trailing newline.

    Float entries use repr (shortest round-trip form); integer matrices
    are written as plain integers: an integer dtype through one repr of
    its nested list, object arrays through int() per entry (a numpy
    integer's repr names its type).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.dtype.kind in "iu":
        if matrix.shape[0] == 0:
            return ""
        return repr(matrix.tolist()).replace(" ", "")[2:-2].replace("],[", "\n") + "\n"
    if matrix.dtype == object:
        rows = (map(str, map(int, row)) for row in matrix.tolist())
    else:
        rows = (map(repr, row) for row in matrix.astype(float, copy=False).tolist())
    return "".join(",".join(row) + "\n" for row in rows)


def load_matrix_csv(path, expect_header: bool = False) -> np.ndarray:
    """parse_matrix_csv of the file's bytes, streamed CHUNK_BYTES at a
    time; where the line loop fails, the file is parsed again whole for
    the exact error."""
    path = Path(path)
    start = 1 if expect_header else 0
    with path.open("rb") as f:
        nrows = _count_lines(f) - start
        f.seek(0)
        try:
            out = _parse_bulk(islice(_file_lines(f), start, None), nrows)
        except UnicodeDecodeError:
            out = None
    return out if out is not None else parse_matrix_csv(path.read_bytes(), expect_header)


def _count_lines(f: BinaryIO) -> int:
    """The number of lines parse_matrix_csv splits f's bytes into: its
    newlines, plus a last line without one."""
    count, last = 0, b"\n"
    while chunk := f.read(CHUNK_BYTES):
        count += chunk.count(b"\n")
        last = chunk[-1:]
    return count + (last != b"\n")


def _file_lines(f: BinaryIO) -> Iterator[str]:
    """The lines of f decoded as UTF-8, read CHUNK_BYTES at a time.  A
    chunk's complete lines are decoded together and its partial last line
    goes ahead of the next chunk; a newline byte never falls inside a
    UTF-8 sequence, so the lines are those of the decoded whole.  Raises
    UnicodeDecodeError on invalid UTF-8."""
    carry = b""
    while chunk := f.read(CHUNK_BYTES):
        buf = carry + chunk
        cut = buf.rfind(b"\n") + 1
        carry = buf[cut:]
        lines = buf[:cut].decode("utf-8").split("\n")
        lines.pop()  # the empty string after the last newline
        yield from lines
    if carry:
        yield carry.decode("utf-8")


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    Path(path).write_text(serialize_matrix_csv(matrix), encoding="utf-8")
