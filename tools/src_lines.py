"""Count the total and code lines of each module in src/dipolefield.

A code line holds a token other than a comment, outside docstrings; a
string that spans lines counts on every line it spans. Usage:

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's src/dipolefield. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total, code) lines of one module's source text."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "dipolefield"
    sums = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        sums = [s + c for s, c in zip(sums, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'all':<16}{sums[0]:>7}{sums[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
