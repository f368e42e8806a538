"""Round-trip and error-path tests for the array text format.

``reference_write_array`` is the writer as a plain row loop, the oracle for
the bytes ``write_array`` writes.  The per-line parser
``arrayfile._read_lines`` is the oracle for what ``read_array`` gives on
any file: the same array, or the same exception and message.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import arrayfile
from coverkit.arrayfile import ArrayFormatError, read_array, write_array
from coverkit.construct import random_array
from coverkit.core import CAParams, SymbolArray


def reference_write_array(path, array):
    p = array.params
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"CA {array.n_rows} {p.t} {p.k} {p.v}\n")
        for row in array.cells:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        arr = random_array(CAParams(3, 6, 4), 11, seed=9)
        path = tmp_path / "a.txt"
        write_array(str(path), arr)
        assert read_array(str(path)) == arr

    def test_trailing_newline_written(self, tmp_path):
        arr = random_array(CAParams(2, 3, 2), 2, seed=1)
        path = tmp_path / "a.txt"
        write_array(str(path), arr)
        assert path.read_bytes().endswith(b"\n")

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# preamble\n\nCA 2 2 2 2\n0 1\n# middle\n1 0\n")
        arr = read_array(str(path))
        assert arr.cells.tolist() == [[0, 1], [1, 0]]

    def test_empty_array_round_trip(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("CA 0 2 4 2\n")
        assert read_array(str(path)).n_rows == 0


class TestErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("COVER 2 2 2 2\n")
        with pytest.raises(ArrayFormatError, match="line 1"):
            read_array(str(path))

    def test_non_integer_cell_line_number(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("CA 2 2 2 2\n0 1\n1 x\n")
        with pytest.raises(ArrayFormatError, match="line 3"):
            read_array(str(path))

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("CA 1 2 3 2\n0 1\n")
        with pytest.raises(ArrayFormatError, match="expected k=3"):
            read_array(str(path))

    def test_symbol_out_of_range(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("CA 1 2 2 2\n0 2\n")
        with pytest.raises(ArrayFormatError, match="0..1"):
            read_array(str(path))

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("CA 3 2 2 2\n0 1\n1 0\n")
        with pytest.raises(ArrayFormatError, match="declares 3"):
            read_array(str(path))

    def test_row_count_mismatch_names_the_header_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# made by hand\n# second comment\nCA 3 2 3 2\n0 1 0\n1 0 1\n")
        with pytest.raises(ArrayFormatError) as exc:
            read_array(str(path))
        assert exc.value.lineno == 3
        assert str(exc.value) == "line 3: header declares 3 rows but file has 2"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ArrayFormatError):
            read_array(str(path))

    def test_cell_past_int32_names_its_line(self, tmp_path):
        # in range for v, but no int32 cell holds it
        path = tmp_path / "a.txt"
        path.write_text("CA 1 2 2 5000000000\n0 4999999999\n")
        with pytest.raises(ArrayFormatError) as exc:
            read_array(str(path))
        assert str(exc.value) == "line 2: cell above 2147483647, the largest symbol an array holds"


@st.composite
def arrays(draw):
    """Arrays with t, k and v up to 300, so cells of one to three digits."""
    t = draw(st.integers(2, 300))
    p = CAParams(t, draw(st.integers(t, 300)), draw(st.integers(2, 300)))
    n = draw(st.integers(0, 12))
    return random_array(p, n, seed=draw(st.integers(0, 2**32 - 1)))


def outcome(read, source):
    """What a reader gives: the array, or the exception's type and message."""
    try:
        return read(source)
    except Exception as exc:  # every exception is compared
        return type(exc), str(exc)


def _cell_spans(body: bytes) -> list[tuple[int, int]]:
    """(start, end) of every token in the body."""
    spans, start = [], None
    for i, b in enumerate(body + b"\n"):
        if chr(b).isdigit() and start is None:
            start = i
        elif not chr(b).isdigit() and start is not None:
            spans.append((start, i))
            start = None
    return spans


def _at_line(body, rng, text):
    lines = body.split(b"\n")
    i = int(rng.integers(len(lines)))
    return b"\n".join(lines[:i] + [text] + lines[i:])


def _at_cell(body, rng, text):
    spans = _cell_spans(body)
    if not spans:
        return body + text(b"0") + b"\n"
    start, end = spans[int(rng.integers(len(spans)))]
    return body[:start] + text(body[start:end]) + body[end:]


def _at_space(body, rng, text):
    spaces = [i for i, b in enumerate(body) if b == ord(" ")]
    if not spaces:
        return body + text
    i = spaces[int(rng.integers(len(spaces)))]
    return body[:i] + text + body[i + 1 :]


def _swap_line_end(body, rng):
    # one line end and one space trade places: the same tokens, rows of other lengths
    ends = [i for i, b in enumerate(body) if b == ord("\n")]
    spaces = [i for i, b in enumerate(body) if b == ord(" ")]
    if not ends or not spaces:
        return body + b"0 0\n"
    i, j = ends[int(rng.integers(len(ends)))], spaces[int(rng.integers(len(spaces)))]
    swapped = bytearray(body)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return bytes(swapped)


def _header_field(i, change):
    """A mutation that sets header field i (1 for N, ..., 4 for v) to change(field)."""
    def mutate(header, body, rng):
        fields = header.rstrip(b"\n").split(b" ")
        fields[i] = b"%d" % change(int(fields[i]))
        return b" ".join(fields) + b"\n" + body
    return mutate


# each takes the header line, the body and a random generator, and gives a
# file that write_array would not write
MUTATIONS = {
    "comment": lambda h, b, rng: h + _at_line(b, rng, b"# made by hand"),
    "comment-first": lambda h, b, rng: b"# made by hand\n" + h + b,
    "blank-line": lambda h, b, rng: h + _at_line(b, rng, b""),
    "crlf": lambda h, b, rng: (h + b).replace(b"\n", b"\r\n"),
    "cr": lambda h, b, rng: (h + b).replace(b"\n", b"\r"),
    "tab": lambda h, b, rng: h + _at_space(b, rng, b"\t"),
    "double-space": lambda h, b, rng: h + _at_space(b, rng, b"  "),
    "trailing-space": lambda h, b, rng: h + b.replace(b"\n", b" \n", 1),
    "leading-zero": lambda h, b, rng: h + _at_cell(b, rng, lambda c: b"0" + c),
    "zeros-30-digits": lambda h, b, rng: h + _at_cell(b, rng, lambda c: c.rjust(30, b"0")),
    "token-30-digits": lambda h, b, rng: h + _at_cell(b, rng, lambda c: b"9" * 30),
    "negative": lambda h, b, rng: h + _at_cell(b, rng, lambda c: b"-" + c),
    "plus": lambda h, b, rng: h + _at_cell(b, rng, lambda c: b"+" + c),
    "letter": lambda h, b, rng: h + _at_cell(b, rng, lambda c: c + b"x"),
    "dropped-cell": lambda h, b, rng: h + _at_cell(b, rng, lambda c: b""),
    "wide-token": lambda h, b, rng: h + _at_cell(b, rng, lambda c: c + b"000"),
    "moved-line-end": lambda h, b, rng: h + _swap_line_end(b, rng),
    "too-big": lambda h, b, rng: h + _at_cell(b, rng, lambda c: str(int(c) + 300).encode()),
    "non-ascii": lambda h, b, rng: h + _at_cell(b, rng, lambda c: c + "\u00e9".encode()),
    "no-final-newline": lambda h, b, rng: (h + b)[:-1],
    "unended-last-line": lambda h, b, rng: h + b + b"0",
    "empty": lambda h, b, rng: b"",
    "short-header": lambda h, b, rng: h.rsplit(b" ", 1)[0] + b"\n" + b,
    "more-rows": _header_field(1, lambda n: n + 1),
    "fewer-rows": _header_field(1, lambda n: n - 1),
    "huge-n": _header_field(1, lambda n: 10**12 - 1),
    "more-columns": _header_field(3, lambda k: k + 1),
    "fewer-columns": _header_field(3, lambda k: k - 1),
    "huge-k": _header_field(3, lambda k: 10**12 - 1),
    "smaller-v": _header_field(4, lambda v: max(0, v - 5)),
    "huge-v": _header_field(4, lambda v: 10**12),
    "wrong-tag": lambda h, b, rng: h.replace(b"CA", b"CB") + b,
}


# the bytes put in a body: those a plain file holds, and others
BODY_BYTES = [bytes([b]) for b in b"0123456789 \t\r\n#-+.x"] + ["\u00e9".encode()]


@st.composite
def random_files(draw):
    """Up to three plain rows, then up to four random bytes put in or
    written over, under the header of the rows as they were."""
    k = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k), max_size=3))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    body = bytearray(b"".join(b" ".join(b"%d" % c for c in row) + eol for row in rows))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(body)))
        body[at : at + draw(st.integers(0, 1))] = draw(st.sampled_from(BODY_BYTES))
    n = len(rows) + draw(st.sampled_from([0, 0, 1, -1]))
    v = max(map(max, rows), default=0) + draw(st.integers(0, 2))
    return b"CA %d %d %d %d" % (n, draw(st.integers(2, 3)), k, v) + eol + bytes(body)


# write_array's text budgets: one row per chunk, a few rows, and the default
BUDGETS = st.sampled_from([1, 64, arrayfile._TEXT_BUDGET])


class TestAgainstReference:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None, database=None)
    @given(arrays(), BUDGETS)
    @example(SymbolArray.empty(CAParams(2, 2, 2)), arrayfile._TEXT_BUDGET)
    @example(SymbolArray(CAParams(2, 3, 10**9), [[0, 9, 10**8], [999_999_999, 10, 1]]), 1)
    @example(SymbolArray(CAParams(2, 2, 10**9), [[5, 7]]), 1)  # text shorter than a token may be
    @example(SymbolArray(CAParams(2, 3, 5 * 10**9), [[0, 2**31 - 1, 10**9], [9, 10, 1]]), 1)
    @example(SymbolArray(CAParams(2, 2, 10**30), [[0, 2**31 - 1], [10**9 - 1, 10]]), 1)
    @example(random_array(CAParams(3, 40, 4), 5000, seed=2), arrayfile._TEXT_BUDGET)
    def test_writes_the_reference_bytes_and_reads_them_back(self, tmp_path_factory, arr, budget):
        tmp = tmp_path_factory.mktemp("files")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arrayfile, "_TEXT_BUDGET", budget)
            write_array(tmp / "a.ca", arr)
            data = (tmp / "a.ca").read_bytes()
        fast = arrayfile._read_plain(data)
        reference_write_array(tmp / "b.ca", arr)
        assert data == (tmp / "b.ca").read_bytes()
        assert read_array(tmp / "a.ca") == arr == arrayfile._read_lines(data)
        # the plain reader takes every written file with a row
        assert fast == (arr if arr.n_rows else None)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None, database=None)
    @given(arrays(), st.sampled_from(sorted(MUTATIONS)), st.integers(0, 2**32 - 1))
    @example(random_array(CAParams(2, 3, 11), 5, seed=3), "leading-zero", 1)
    @example(random_array(CAParams(2, 3, 2), 4, seed=3), "zeros-30-digits", 1)
    @example(random_array(CAParams(2, 3, 2), 4, seed=3), "negative", 1)
    @example(random_array(CAParams(2, 3, 2), 4, seed=3), "huge-k", 1)
    @example(SymbolArray(CAParams(2, 3, 11), [[10] * 3] * 3 + [[0] * 3] * 3), "wide-token", 1)
    def test_every_other_file_reads_as_the_line_parser_reads_it(
        self, tmp_path_factory, arr, mutation, seed
    ):
        tmp = tmp_path_factory.mktemp("files")
        reference_write_array(tmp / "a.ca", arr)
        header, _, body = (tmp / "a.ca").read_bytes().partition(b"\n")
        data = MUTATIONS[mutation](header + b"\n", body, np.random.default_rng(seed))
        (tmp / "m.ca").write_bytes(data)
        assert outcome(read_array, tmp / "m.ca") == outcome(arrayfile._read_lines, data)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=500, deadline=None, database=None)
    @given(random_files())
    @example(b"CA 1 1 1 2\n1\n")
    @example(b"CA 2 1 2 3\r\n0 1\r\n2 0\r\n")
    @example(b"CA 1 1 1 2\n\n")  # a blank body: loadtxt would warn
    @example(b"CA 1 1 2 3\n1. 2\n")  # float-like: numpy 1.x parses it, warning
    @example(b"CA 1 2 2 3\n0 1\r2 0\n")  # a lone CR ends a line
    @example(b"CA 1 1 2 3\n02 1\n")
    @example(b"CA 1 2\r2 3\n0 1\n")  # the CR ends the header line
    def test_random_bytes_read_as_the_line_parser_reads_them(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("files") / "r.ca"
        path.write_bytes(data)
        assert outcome(read_array, path) == outcome(arrayfile._read_lines, data)
