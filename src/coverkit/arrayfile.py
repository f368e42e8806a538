"""Text file format for covering arrays.

Line 1 is the header ``CA <N> <t> <k> <v>``; then N lines of k
space-separated integers in 0..v-1.  Lines starting with ``#`` are
comments and ignored anywhere.  Files end with a trailing newline.
The format is deliberately trivial to parse from any language and
diff-friendly.
"""

from __future__ import annotations

import numpy as np

from .core import CAParams, CELL_DTYPE, SymbolArray

__all__ = ["ArrayFormatError", "read_array", "write_array"]


class ArrayFormatError(ValueError):
    """Malformed array file; the message carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def write_array(path: str, array: SymbolArray) -> None:
    p = array.params
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"CA {array.n_rows} {p.t} {p.k} {p.v}\n")
        for row in array.cells:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def read_array(path: str) -> SymbolArray:
    header: tuple[int, int, int, int] | None = None
    header_line = 1
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
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
                continue
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise ArrayFormatError(lineno, f"non-integer cell in {line!r}")
            if len(row) != header[2]:
                raise ArrayFormatError(
                    lineno, f"row has {len(row)} cells, expected k={header[2]}"
                )
            if any(x < 0 or x >= header[3] for x in row):
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
