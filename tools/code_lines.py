"""Count the code lines of each module in src/commsemi.

A code line holds a token other than a comment, a newline or indentation,
outside module, class and function docstrings.  Blank lines, comment-only
lines and docstring lines do not count; every line of a multi-line
expression does.  This is the count the line figures in ROADMAP.md and
CHANGES.md quote.

Run from anywhere:

    python tools/code_lines.py

It prints one "name count" line per module, largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "commsemi"


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """Start positions of the module, class and function docstrings."""
    return {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def code_line_numbers(source: str) -> set[int]:
    """The numbers of the code lines of a module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    in_docstring = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.STRING and tok.start in docstrings:
            in_docstring = True  # until the docstring statement ends
        elif tok.type == tokenize.NEWLINE:
            in_docstring = False
        if tok.type not in _NOT_CODE and not in_docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def code_lines(source: str) -> int:
    return len(code_line_numbers(source))


def main(folder: Path = PACKAGE) -> int:
    counts = {f.name: code_lines(f.read_text()) for f in sorted(folder.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
