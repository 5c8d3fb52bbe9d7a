"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 6 code lines: the import, the two lines of the string, the def, and the
# return statement's two lines; the docstrings, the comment line and the
# blank lines hold none
SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves its line a code line

UNITS = """square
metres"""


# a comment line
def area(radius):
    """A one-line docstring."""
    return (math.pi
            * radius ** 2)
'''


def test_counts_only_the_lines_that_hold_code():
    assert code_lines.code_lines(SNIPPET) == 6


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     6 {tmp_path / 'a.py'}", f"     1 {tmp_path / 'b.py'}",
        "     7 total"]
