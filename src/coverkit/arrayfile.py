"""Text file format for covering arrays.

Line 1 is the header ``CA <N> <t> <k> <v>``; then N lines of k
space-separated integers in 0..v-1.  Lines starting with ``#`` are
comments and ignored anywhere.  Files end with a trailing newline.
The format is deliberately trivial to parse from any language and
diff-friendly.

``write_array`` writes the cells in chunks of a fixed text budget.
``read_array`` reads a plain file with numpy's ``loadtxt``:

* the header ``CA N t k v`` is the first line, with single spaces;
* after it come only ASCII digits, spaces and ``\\n`` or ``\\r\\n`` line
  ends, and at least one digit;
* loadtxt reads N rows of k cells from it, each cell below v.

Any other file goes to the per-line parser, which reads comments, blank
lines, lone CR line ends, tabs, runs of spaces, signs and the rest.  So
does a plain file whose shape or cells are wrong, so every error message
and line number comes from that one parser.
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
            digits = cells // powers
            np.remainder(digits, 10, out=digits)
            np.add(digits, ord("0"), out=text[..., :width], casting="unsafe")
            text[..., width] = ord(" ")
            text[:, -1, width] = ord("\n")
            keep = np.empty(text.shape, dtype=bool)
            np.greater_equal(cells, leading, out=keep[..., :width])
            keep[..., width] = True
            fh.write(text[keep])


def read_array(path: str) -> SymbolArray:
    with open(path, "rb") as fh:
        data = fh.read()
    array = _read_plain(data)
    return array if array is not None else _read_lines(data)


def _read_plain(data: bytes) -> SymbolArray | None:
    """The array of a plain file, or None for any other file: the header
    ``CA N t k v`` on the first line, then a non-blank body of digits,
    spaces and line ends that loadtxt reads as N rows of k cells below v."""
    head, _, body = data.partition(b"\n")
    fields = head.rstrip(b"\r").split(b" ")
    if len(fields) != 5 or fields[0] != b"CA" or not all(f.isdigit() for f in fields[1:]):
        return None
    # loadtxt warns on a blank body and, under numpy 1.x, on float-like cells
    if body.translate(None, b"0123456789 \r\n") or not body.strip():
        return None
    n, t, k, v = (int(f) for f in fields[1:])
    try:
        cells = np.loadtxt(
            io.BytesIO(body), dtype=CELL_DTYPE, delimiter=" ", comments=None, ndmin=2
        )
    except (ValueError, OverflowError):
        return None
    if cells.shape != (n, k) or int(cells.max()) >= v:
        return None
    return SymbolArray(CAParams(t, k, v), cells)


def _read_lines(data: bytes) -> SymbolArray:
    """The per-line parser: any file the format allows, and every error."""
    header: tuple[int, int, int, int] | None = None
    header_line = 1
    rows: list[list[int]] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 5 or parts[0] != "CA":
                    raise ArrayFormatError(lineno, "expected header 'CA N t k v'")
                try:
                    n, t, k, v = (int(x) for x in parts[1:])
                except ValueError:
                    raise ArrayFormatError(lineno, f"non-integer header field in {line!r}")
                header, header_line = (n, t, k, v), lineno
                top = min(v, CELL_MAX + 1)  # the first symbol refused
                continue
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise ArrayFormatError(lineno, f"non-integer cell in {line!r}")
            if len(row) != header[2]:
                raise ArrayFormatError(
                    lineno, f"row has {len(row)} cells, expected k={header[2]}"
                )
            if any(x < 0 or x >= top for x in row):
                if all(0 <= x < header[3] for x in row):
                    raise ArrayFormatError(
                        lineno, f"cell above {CELL_MAX}, the largest symbol an array holds"
                    )
                raise ArrayFormatError(
                    lineno, f"cell out of range 0..{header[3] - 1}"
                )
            rows.append(row)
    if header is None:
        raise ArrayFormatError(1, "missing header line 'CA N t k v'")
    n, t, k, v = header
    if len(rows) != n:
        raise ArrayFormatError(
            header_line, f"header declares {n} rows but file has {len(rows)}"
        )
    params = CAParams(t, k, v)
    cells = np.array(rows, dtype=CELL_DTYPE).reshape((-1, k))
    return SymbolArray(params, cells)
