import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


class Box:
    """Class docstring."""

    size = 3


def area(r):
    """Function docstring,

    with a blank line inside.
    """
    total = (
        math.pi
        * r ** 2
    )
    note = """a string that is
    no docstring"""
    return total, note
'''


def test_counts_code_lines_only():
    # import, class, size, def, the four lines of `total = (...)`, both
    # lines of `note`, and return
    assert code_lines.code_line_numbers(SOURCE) == {4, 9, 12, 15, 20, 21, 22, 23, 24, 25, 26}
    assert code_lines.code_lines(SOURCE) == 11


def test_docstring_only_module_has_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("") == 0


def test_prints_modules_largest_first_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(SOURCE)
    assert code_lines.main(tmp_path) == 0
    assert capsys.readouterr().out == "b.py 11\na.py 1\ntotal 12\n"
