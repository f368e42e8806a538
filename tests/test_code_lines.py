"""Tests for tools/code_lines.py on a small fixture package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

# 12 code lines, numbered in the comments: docstrings, comment lines and
# blank lines do not count; a string that is not a docstring, a line
# holding code and a comment, and each line of a multi-line statement do
FIXTURE = '''\
"""Module docstring,
over two lines."""

import math  # 1

# a comment line


class Shape:  # 2
    """Class docstring."""

    sides = 4  # 3

    def area(self, side):  # 4
        """Function docstring."""
        note = """not a
docstring"""  # 5, 6
        return math.prod(  # 7
            [side,  # 8
             side]  # 9
        )  # 10


async def run():  # 11
    ...  # 12
'''


def run_tool(package: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(package)],
                          capture_output=True, text=True, check=True, timeout=60)


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "shape.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert run_tool(tmp_path).stdout == "empty 0\nshape 12\ntotal 12\n"


def test_one_line_docstring_beside_code(tmp_path):
    # a docstring that shares its line with the def leaves the def counted
    (tmp_path / "one.py").write_text(
        'def f(): """Doc."""; return 1\n\n\nclass C: """Doc."""\n', encoding="utf-8")
    assert run_tool(tmp_path).stdout == "one 2\ntotal 2\n"


def test_package_total_is_the_sum_of_its_modules():
    lines = run_tool(ROOT / "src" / "coverkit").stdout.splitlines()
    counts = {name: int(count) for name, count in (line.split() for line in lines)}
    total = counts.pop("total")
    assert {"construct", "verify", "bounds", "_numeric"} <= set(counts)
    assert total == sum(counts.values()) > 0
