"""Count the logic lines of the package's modules.

A logic line is a source line that holds code: blank lines, comment lines
and docstrings (the leading string of a module, class or function) do not
count, and a statement spread over several lines counts each of them.

Usage::

    python3 tools/logic_lines.py [PATH ...]

With no argument it reports every module of ``src/pairwise_closure/``; a
directory argument reports the ``*.py`` files directly inside it.  One line
per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pairwise_closure"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logic_lines(source: str) -> int:
    """Number of logic lines in the Python ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [PACKAGE]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for path in files:
        count = logic_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
