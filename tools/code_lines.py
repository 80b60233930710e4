"""Count the code lines of each module under ``src/delta_eita``.

A code line holds at least one token that is not a comment, a line break
or indentation, and is not part of a docstring (the leading string
statement of a module, class or function, found with ``ast``).  Blank
lines, comment lines and docstrings do not count; a statement spread over
several lines counts each line that holds one of its tokens.

Usage: ``python tools/code_lines.py [SRC_DIR]``; prints one
``<lines> <module>`` row per module and a ``<lines> total`` row.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delta_eita"

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    text = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else SRC
    counts = {p.name: code_lines(p) for p in sorted(src.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
