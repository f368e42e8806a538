"""Text file format for covering arrays.

Line 1 is the header ``CA <N> <t> <k> <v>``; then N lines of k
space-separated integers in 0..v-1.  Lines starting with ``#`` are
comments, ignored anywhere, and may hold any bytes; a non-ASCII byte
elsewhere is an ``ArrayFormatError`` that names its line.  Files end
with a trailing newline.  The format is deliberately trivial to parse
from any language and diff-friendly.

``write_array`` writes the cells in chunks of a fixed text budget.  When
v <= 10 every cell is one digit, and a chunk's text table is written as
it is, with no place values and no leading zeros to mask.

``read_array`` reads a plain file, whose first line is the header
``CA N t k v`` with single spaces, by one of two decoders:

* the one-digit layout that ``write_array`` writes when v <= 10 and
  N >= 1, for a body of exactly 2·N·k bytes: each cell one digit below v
  followed by a space, or by ``\\n`` at a row's end, decoded from one
  view of the bytes as uint16 pairs;
* numpy's ``loadtxt``, for any other body of only ASCII digits, spaces
  and ``\\n`` or ``\\r\\n`` line ends, with at least one digit.

Both hand their cells to ``SymbolArray``, the one check of shape and
range.  Any other file goes to the per-line parser, which reads comments,
blank lines, lone CR line ends, tabs, runs of spaces, signs and the rest.
So does a plain file that ``SymbolArray`` refuses, or whose row count is
not N, so every error message and line number comes from that one parser.
"""

from __future__ import annotations

import io

import numpy as np

from .core import CAParams, CELL_DTYPE, CELL_MAX, SymbolArray

__all__ = ["ArrayFormatError", "read_array", "write_array"]

_TEXT_BUDGET = 1 << 14  # bytes of row text formatted at a time


class ArrayFormatError(ValueError):
    """Malformed array file; the message carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _chunk_rows(k: int, width: int) -> int:
    """Rows per chunk: k cells of `width` digits and a separator each."""
    return max(1, _TEXT_BUDGET // (k * (width + 1)))


def write_array(path: str, array: SymbolArray) -> None:
    p = array.params
    # a cell has the digits of v - 1 with its leading zeros masked; no
    # int32 cell has more than the digits of the int32 maximum
    width = len(str(min(p.v - 1, CELL_MAX)))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=CELL_DTYPE)
    leading = powers.copy()
    leading[-1] = 0  # the units digit is always written
    step = _chunk_rows(p.k, width)
    with open(path, "wb") as fh:
        fh.write(f"CA {array.n_rows} {p.t} {p.k} {p.v}\n".encode("ascii"))
        for lo in range(0, array.n_rows, step):
            cells = array.cells[lo : lo + step, :, None]
            text = np.empty(cells.shape[:2] + (width + 1,), dtype=np.uint8)
            # a one-digit cell needs no place values and has no leading zeros
            digits = cells // powers % 10 if width > 1 else cells
            np.add(digits, ord("0"), out=text[..., :width], casting="unsafe")
            text[..., width] = ord(" ")
            text[:, -1, width] = ord("\n")
            if width > 1:  # the leading zeros masked out
                keep = np.empty(text.shape, dtype=bool)
                np.greater_equal(cells, leading, out=keep[..., :width])
                keep[..., width] = True
                text = text[keep]
            fh.write(text)


def read_array(path: str) -> SymbolArray:
    with open(path, "rb") as fh:
        data = fh.read()
    array = _read_plain(data)
    return array if array is not None else _read_lines(data)


def _read_plain(data: bytes) -> SymbolArray | None:
    """The array of a plain file, or None for any other file: the header
    ``CA N t k v`` on the first line, then the one-digit layout, or a
    non-blank body of digits, spaces and line ends that loadtxt reads.
    Either decoder's cells go to ``SymbolArray``; cells it refuses, or
    other than N rows, give None."""
    head, _, body = data.partition(b"\n")
    fields = head.rstrip(b"\r").split(b" ")
    if len(fields) != 5 or fields[0] != b"CA" or not all(f.isdigit() for f in fields[1:]):
        return None
    n, t, k, v = (int(f) for f in fields[1:])
    one_digit = v <= 10 and n > 0 and len(body) == 2 * n * k
    # loadtxt warns on a blank body and, under numpy 1.x, on float-like cells
    if not one_digit and (body.translate(None, b"0123456789 \r\n") or not body.strip()):
        return None
    try:
        params = CAParams(t, k, v)
        if one_digit:
            # write_array's layout of one-digit cells: each a digit and then
            # a space, or "\n" at a row's end.  Read as little-endian uint16
            # pairs, a cell's pair less that of "0" and its separator is the
            # cell; any other pair wraps to v or more
            cells = np.frombuffer(body, "<u2").reshape(n, k) - np.frombuffer(b"0 " * (k - 1) + b"0\n", "<u2")
        else:
            cells = np.loadtxt(
                io.BytesIO(body), dtype=CELL_DTYPE, delimiter=" ", comments=None, ndmin=2
            )
        array = SymbolArray(params, cells)
    except (ValueError, OverflowError):  # the line parser names the fault
        return None
    return array if array.n_rows == n else None


def _read_lines(data: bytes) -> SymbolArray:
    """The per-line parser: any file the format allows, and every error."""
    params: CAParams | None = None
    header_line = 1
    rows: list[list[int]] = []
    # a non-ASCII byte decodes to a lone surrogate: a comment may hold any
    # bytes, and elsewhere no field that holds one parses
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if params is None:
                parts = line.split()
                if len(parts) != 5 or parts[0] != "CA":
                    raise ArrayFormatError(lineno, "expected header 'CA N t k v'")
                try:
                    n, t, k, v = (int(x) for x in parts[1:])
                except ValueError:
                    raise ArrayFormatError(lineno, f"non-integer header field in {line!r}")
                try:
                    params = CAParams(t, k, v)
                except ValueError as exc:
                    raise ArrayFormatError(lineno, str(exc)) from None
                header_line = lineno
                top = min(v, CELL_MAX + 1)  # the first symbol refused
                continue
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise ArrayFormatError(lineno, f"non-integer cell in {line!r}")
            if len(row) != k:
                raise ArrayFormatError(lineno, f"row has {len(row)} cells, expected k={k}")
            if any(x < 0 or x >= top for x in row):
                if all(0 <= x < v for x in row):
                    raise ArrayFormatError(
                        lineno, f"cell above {CELL_MAX}, the largest symbol an array holds"
                    )
                raise ArrayFormatError(lineno, f"cell out of range 0..{v - 1}")
            rows.append(row)
    if params is None:
        raise ArrayFormatError(1, "missing header line 'CA N t k v'")
    if len(rows) != n:
        raise ArrayFormatError(
            header_line, f"header declares {n} rows but file has {len(rows)}"
        )
    return SymbolArray.from_rows(params, rows)
