"""Round-trip and error-path tests for the array text format."""

import pytest

from coverkit.arrayfile import ArrayFormatError, read_array, write_array
from coverkit.construct import random_array
from coverkit.core import CAParams


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
