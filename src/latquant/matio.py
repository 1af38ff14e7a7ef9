"""CSV matrix I/O with bit-exact float round-tripping.

Format: UTF-8, comma-separated fields, '.' decimal point, newline row
separator, no ragged rows.  Serialization writes the shortest decimal
string that parses back to the same double, so parse(serialize(m)) == m
bitwise for every finite matrix.

Parsing counts the lines, then fills a preallocated array a chunk of
complete lines at a time, reading CHUNK_BYTES at a time and carrying each
chunk's partial last line into the next: load_matrix_csv holds the array
and a few chunks, never the whole text, errors included, and
parse_matrix_csv runs the same chunks over text in memory.  A chunk of
plain decimals (what repr and %.17g write) is converted by array
operations (_convert): integer mantissas and exponents in one pass, then
one correctly rounded extended-precision multiplication or division per
value, with float() kept for the few values that rounding could miss, so
every value has float()'s bits.  Any other chunk (spaces, underscores, CR,
non-ASCII digits, inf) goes through float() line by line (_convert_lines),
which raises ParseError or RaggedRows at the first bad line and field:

  (a) The first bad line in line order is reported, also where a later
      line holds a byte that is not UTF-8.
  (b) The token of such a byte is the 4 bytes of its line from it, fewer
      at the line's end.
"""

from __future__ import annotations

import io
import math
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

# Bytes load_matrix_csv reads at a time: 256 KiB parses as fast as 1 MiB
# and holds a quarter of the text and of _convert's working arrays.
CHUNK_BYTES = 1 << 18

# The fast path's tables.  10**27 = 5**27 * 2**27 with 5**27 < 2**63, so
# every power in _POW10 is exact in a 64-bit significand.  _EXTENDED: the
# platform's long double is x87 extended precision, a 64-bit significand
# in the low 8 bytes, least significant first.
_TO_COMMAS = bytes.maketrans(b"\neE", b",,,")
_MAX_E10 = 27
_POW10 = np.cumprod([1] + [10] * _MAX_E10, dtype=np.longdouble)
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_INT64_MAX = np.iinfo(np.int64).max


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


def parse_matrix_csv(text: bytes | str) -> np.ndarray:
    """Parse CSV text into a 2-D float64 matrix, refusing non-finite
    values.  Line and field positions in errors are 1-based.  A str goes
    through the bytes parse encoded with surrogatepass, and its lines are
    decoded back the same way, so a lone surrogate reads as not a number."""
    if isinstance(text, bytes):
        return _parse(io.BytesIO(text), "strict")
    return _parse(io.BytesIO(text.encode("utf-8", "surrogatepass")), "surrogatepass")


def _parse(f: BinaryIO, errors: str) -> np.ndarray:
    """The lines of f into one preallocated array, a chunk of complete
    lines at a time: through _convert, or through the line loop where
    _convert declines a chunk or it holds a non-finite value.  errors
    decodes the line loop's lines.  A line count that differs from the
    counting pass (the file changed in between) raises ParseError."""
    nrows = _count_lines(f)
    if not nrows:
        raise ParseError(1, 1, "", "empty input")
    f.seek(0)
    out, count = None, 0
    for chunk in _chunks(f):
        if not chunk.endswith(b"\n"):
            chunk += b"\n"  # the last line of a text without a final newline
        if out is None:
            out = np.empty((nrows, chunk.count(b",", 0, chunk.index(b"\n")) + 1))
        first, count = count, count + chunk.count(b"\n")
        if count > nrows:
            break
        dest = out[first:count]
        if not (_convert(chunk, dest) and np.isfinite(dest).all()):
            _convert_lines(chunk, dest, first + 1, errors)
    if count != nrows:
        raise ParseError(min(count, nrows) + 1, 0, "", "the file changed while it was read")
    return out


def _convert_lines(chunk: bytes, dest: np.ndarray, first: int, errors: str) -> None:
    """The line loop: float() on the fields of chunk's lines, lines first,
    first + 1, ... of the input, into dest's rows.  A line that does not
    convert whole to finite values is walked field by field to raise
    ParseError or RaggedRows at its first bad field."""
    ncols = dest.shape[1]
    for lineno, (row, raw) in enumerate(zip(dest, chunk.split(b"\n")), start=first):
        try:
            fields = raw.decode("utf-8", errors).rstrip("\r").split(",")
        except UnicodeDecodeError as exc:
            raise ParseError(lineno, 0, repr(raw[exc.start : exc.start + 4]),
                             "invalid UTF-8") from exc
        if len(fields) != ncols:
            raise RaggedRows(lineno)
        try:
            row[:] = np.fromiter(map(float, fields), float, count=ncols)
            if np.isfinite(row).all():
                continue
        except ValueError:
            pass
        for col, tok in enumerate(fields, start=1):
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(lineno, col, tok) from None
            if not math.isfinite(value):
                raise ParseError(lineno, col, tok, "non-finite value")


def _convert(chunk: bytes, dest: np.ndarray) -> bool:
    """Fill dest from chunk's lines by array operations, or return False
    where the chunk falls outside the fast path's grammar.

    The chunk must hold only the bytes 0-9 . - + e E , and newline, with
    dest.shape[1] fields on each of its dest.shape[0] lines (the last one
    too ends in a newline), and every token must read
    -?D*(.D*)?([eE][+-]?D+)? with at least one mantissa digit.  A token
    then is an integer mantissa M and a decimal exponent e10, its value
    |M| * 10**e10.  Where |e10| <= _MAX_E10 and M < 2**63, both operands of
    that one multiplication or division are exact in the 64-bit
    significand of x87 extended precision (Clinger, 1990), so its result
    is correctly rounded, and rounding that on to float64 gives float()'s
    value unless it lies exactly halfway between two doubles (its low 11
    significand bits read 0x400).  Such midpoints, and every token out of
    that range, go to float().  The range keeps every result clear of
    float64's subnormals.
    """
    if not _EXTENDED:
        return False
    nrows, ncols = dest.shape
    b = np.frombuffer(chunk, np.uint8)
    at = np.flatnonzero(np.subtract(b, 48, dtype=np.uint8) > 9)  # every non-digit
    kind = b[at]
    sep = (kind == 44) | (kind == 10)
    ends = np.compress(sep, at)
    sign = np.flatnonzero((kind == 43) | (kind == 45))
    e = np.flatnonzero((kind == 101) | (kind == 69))
    dot = np.flatnonzero(kind == 46)
    if (ends.size + sign.size + e.size + dot.size != at.size  # another byte
            or ends.size != dest.size
            or not (np.compress(sep, kind).reshape(nrows, ncols)[:, -1] == 10).all()):
        return False
    # A sign is a mantissa's '-' at a token start, or right after an 'e'.
    before = b[at[sign] - 1]  # b[-1] is the chunk's last newline
    lead = (before == 10) | (before == 44)
    if not ((before == 101) | (before == 69) | lead & (kind[sign] == 45)).all():
        return False
    # An 'e', its sign if any, then at least one digit and the separator.
    after = kind[e + 1]
    last = e + 1 + ((after == 43) | (after == 45))
    if not (sep[last].all() and (at[last] - at[last - 1] > 1).all()):
        return False
    tok = np.cumsum(sep)  # the token of each byte in at but a separator
    neg, etok, dtok = tok[sign[lead]], tok[e], tok[dot]
    epos, dpos = at[e], at[dot]
    del at, kind, sep, sign, dot, tok  # before the mantissas' arrays are made
    if (dtok[1:] <= dtok[:-1]).any():
        return False
    digits = ends.copy()  # where each mantissa ends, then its length
    digits[etok] = epos
    np.subtract(dpos, digits[dtok], out=dpos)
    dpos += 1
    e10 = np.zeros(dest.size, np.int64)  # minus the fraction digits, then e10
    e10[dtok] = dpos
    del dpos
    digits[1:] -= ends[:-1]
    digits[1:] -= 1
    digits[neg] -= 1
    digits[dtok] -= 1
    if (digits < 1).any():
        return False
    del digits, dtok

    mant = np.fromstring(chunk.translate(_TO_COMMAS, b"."), np.int64, sep=",")
    if mant.size != dest.size + e.size:
        return False
    if e.size:
        exp = np.zeros(mant.size, bool)
        exp[etok + np.arange(1, e.size + 1)] = True
        e10[etok] += mant[exp]
        mant = mant[~exp]
    np.abs(mant, out=mant)  # a saturated -2**63 stays negative
    slow = (mant < 0) | (mant == _INT64_MAX) | (e10 < -_MAX_E10) | (e10 > _MAX_E10)
    np.clip(e10, -_MAX_E10, _MAX_E10, out=e10)
    r = mant.astype(np.longdouble)
    del mant
    r /= _POW10[np.maximum(-e10, 0)]
    up = np.flatnonzero(e10 > 0)
    r[up] *= _POW10[e10[up]]
    slow |= r.view(np.uint16)[:: r.itemsize // 2] & 0x7FF == 0x400
    flat = dest.reshape(-1)
    flat[:] = r
    del r
    flat[neg] = -flat[neg]
    for i in np.flatnonzero(slow):
        flat[i] = float(chunk[ends[i - 1] + 1 if i else 0 : ends[i]])
    return True


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


def load_matrix_csv(path) -> np.ndarray:
    """parse_matrix_csv of the file's bytes, streamed CHUNK_BYTES at a
    time, errors included."""
    with Path(path).open("rb") as f:
        return _parse(f, "strict")


def _count_lines(f: BinaryIO) -> int:
    """The number of lines parse_matrix_csv splits f's bytes into: its
    newlines, plus a last line without one."""
    count, last = 0, b"\n"
    while chunk := f.read(CHUNK_BYTES):
        count += chunk.count(b"\n")
        last = chunk[-1:]
    return count + (last != b"\n")


def _chunks(f: BinaryIO) -> Iterator[bytes]:
    """The lines of f, read CHUNK_BYTES at a time.  A chunk's complete
    lines go together and its partial last line goes ahead of the next
    chunk; only the file's last line may lack its newline."""
    carry = b""
    while piece := f.read(CHUNK_BYTES):
        buf = carry + piece
        del piece
        cut = buf.rfind(b"\n") + 1
        chunk, carry = buf[:cut], buf[cut:]
        del buf
        if chunk:
            yield chunk
    if carry:
        yield carry


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    Path(path).write_text(serialize_matrix_csv(matrix), encoding="utf-8")
