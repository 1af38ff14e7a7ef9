"""CSV matrix I/O with bit-exact float round-tripping.

Format: UTF-8, comma-separated fields, '.' decimal point, newline row
separator, no ragged rows.  Serialization writes the shortest decimal
string that parses back to the same double, so parse(serialize(m)) == m
bitwise for every finite matrix.

Parsing fills a preallocated array one line at a time, with Python's own
float() on every field, and checks finiteness once at the end.  Only when
that fails (a token float() refuses, a wrong field count or a non-finite
value) does the per-field loop run again over the same lines, and only to
raise ParseError or RaggedRows at the first bad line and field.  Both
paths call float() on the same tokens, so they accept the same grammar
and produce the same bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


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
    out = _parse_bulk(body)
    return out if out is not None else _parse_fields(body, start + 1)


def _parse_bulk(lines: list[str]) -> np.ndarray | None:
    """The fast path: None when a line needs the per-field parser."""
    ncols = len(lines[0].rstrip("\r").split(","))
    out = np.empty((len(lines), ncols))
    for i, line in enumerate(lines):
        fields = line.rstrip("\r").split(",")
        if len(fields) != ncols:
            return None
        try:
            out[i] = np.fromiter(map(float, fields), float, count=ncols)
        except ValueError:
            return None
    return out if np.isfinite(out).all() else None


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
            if not np.isfinite(value):
                raise ParseError(lineno0, colno0, tok, "non-finite value")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float)


def serialize_matrix_csv(matrix: np.ndarray) -> str:
    """Render a matrix as CSV with a trailing newline.

    Float entries use repr (shortest round-trip form); integer matrices
    are written as plain integers.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.dtype.kind in "iu" or matrix.dtype == object:
        rows = (map(str, map(int, row)) for row in matrix.tolist())
    else:
        rows = (map(repr, row) for row in matrix.astype(float, copy=False).tolist())
    return "".join(",".join(row) + "\n" for row in rows)


def load_matrix_csv(path, expect_header: bool = False) -> np.ndarray:
    return parse_matrix_csv(Path(path).read_bytes(), expect_header=expect_header)


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    Path(path).write_text(serialize_matrix_csv(matrix), encoding="utf-8")
