"""Print the two size counts of the package source: total lines, and code
lines, those that are not blank, not comment-only and not inside a module,
class or function docstring.

    python3 tools/src_lines.py            # src/stochorder/*.py
    python3 tools/src_lines.py a.py b.py  # the named files
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()  # lines that hold a token other than a comment
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    return len(lines), sum(1 for n in code - docs if lines[n - 1].strip())


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "stochorder").glob("*.py"))
    total = code = 0
    for path in paths:
        t, c = counts(path.read_text())
        total, code = total + t, code + c
    print(total, code)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
