"""Count the code lines and defaulted parameters of ``src/lcmkit``.

A code line is a source line that holds some token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count.  A defaulted parameter is a
parameter of a function, method or lambda that has a default value,
positional or keyword-only.

    python tests/code_lines.py           # this checkout
    python tests/code_lines.py SRC_DIR   # another package directory

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcmkit"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code outside docstrings."""
    docs = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def defaulted_parameters(text: str) -> int:
    """The number of parameters with a default value in ``text``."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = defaults = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        count = code_lines(text)
        total += count
        defaults += defaulted_parameters(text)
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    print(f"{'defaulted params':16} {defaults:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
