"""Text file format for covering arrays.

Line 1 is the header ``CA <N> <t> <k> <v>``; then N lines of k
space-separated integers in 0..v-1.  Lines starting with ``#`` are
comments and ignored anywhere.  Files end with a trailing newline.
The format is deliberately trivial to parse from any language and
diff-friendly.

``write_array`` writes one layout, and ``read_array`` parses a file in
that layout in numpy:

* the header ``CA N t k v`` is the first line;
* after it come only ASCII digits, single spaces and ``\\n`` line ends;
* there are exactly N lines, each of k tokens, each line ended by ``\\n``;
* no token is wider than the digits of v - 1, and v - 1 has at most nine.

Any other file goes to the per-line parser, which reads comments, blank
lines, CR line ends, tabs, runs of spaces, long tokens and the rest.  So
does any file in the layout whose cells are out of range, so every error
message and line number comes from that one parser.  Both functions
handle the rows in chunks of a fixed text budget.
"""

from __future__ import annotations

import io

import numpy as np

from .core import CAParams, CELL_DTYPE, CELL_MAX, SymbolArray

__all__ = ["ArrayFormatError", "read_array", "write_array"]

_TEXT_BUDGET = 1 << 14  # bytes of row text formatted or parsed at a time
_LAYOUT_WIDTH = 9  # widest token the layout parser takes: int32 cannot wrap

# byte classes of the layout: digits 0, space 1, anything else 2
_SPACE = 1
_BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = 0
_BYTE_CLASS[ord(" ")] = _SPACE


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
    array = _read_layout(data)
    return array if array is not None else _read_lines(data)


def _read_layout(data: bytes) -> SymbolArray | None:
    """The array of a file in write_array's layout, or None for any other file."""
    end = data.find(b"\n")
    fields = data[:end].split(b" ")
    if end < 0 or len(fields) != 5 or fields[0] != b"CA":
        return None
    if not all(f.isdigit() for f in fields[1:]):
        return None
    n, t, k, v = (int(f) for f in fields[1:])
    width = len(str(v - 1))
    if k < 1 or v < 2 or width > _LAYOUT_WIDTH:
        return None
    # from the header's line end on: every chunk starts at a line end
    text = np.frombuffer(data, dtype=np.uint8, offset=end)
    # n and k are only trusted once the file has room for their cells
    if not 2 * n * k < text.size <= n * k * (width + 1) + 1:
        return None
    if data.count(b"\n", end + 1) != n or not data.endswith(b"\n"):
        return None
    cells = np.empty((n, k), dtype=CELL_DTYPE)
    step = _chunk_rows(k, width)
    start = 0
    for lo in range(0, n, step):
        rows = cells[lo : lo + step]
        # `rows` lines of at most k * (width + 1) bytes each
        window = text[start : start + 1 + rows.size * (width + 1)]
        ends = np.flatnonzero(window[1:] == ord("\n"))
        if ends.size < len(rows):
            return None  # some line is longer than the layout allows
        stop = int(ends[len(rows) - 1]) + 1
        if not _parse_rows(window[: stop + 1], width, v, rows):
            return None
        start += stop
    return SymbolArray(CAParams(t, k, v), cells)


def _parse_rows(text: np.ndarray, width: int, v: int, out: np.ndarray) -> bool:
    """Parse the whole lines after text[0], a line end, into `out`; False
    if they are not in the layout."""
    byte_class = _BYTE_CLASS[text]
    seps = np.flatnonzero(byte_class)[1:]  # the separators after text[0]
    if seps.size != out.size:
        return False
    # k - 1 spaces on each row; the text's one newline per row ends them
    if (byte_class[seps].reshape(out.shape)[:, :-1] != _SPACE).any():
        return False
    # a token is the run of digits before its separator: `run` holds while
    # the byte `back` places before the separator is still in it
    run = np.ones(seps.size, dtype=bool)
    value = out.reshape(-1)  # a view: `out` is whole rows of the cells
    value.fill(0)
    term = np.empty(seps.size, dtype=CELL_DTYPE)
    digit = np.empty(seps.size, dtype=np.uint8)
    at = np.empty_like(seps)
    for back in range(1, width + 2):
        np.subtract(seps, back, out=at)
        np.take(text, at, out=digit, mode="clip")  # below 0: text[0], a line end
        digit -= ord("0")
        run &= digit <= 9
        if back == 1 and not run.all():
            return False  # an empty token
        if back <= width:
            np.multiply(digit, run, out=term)
            term *= 10 ** (back - 1)
            value += term
    # no token wider than v - 1, and no cell out of range
    return not run.any() and value.max() < v


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
