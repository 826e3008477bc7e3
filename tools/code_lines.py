"""Count the code lines of Python files: the lines that hold a token other
than a comment and that lie outside a docstring.

Unlike ``wc -l``, the count does not move when a comment, a blank line or
a docstring changes.  A docstring is the first statement of a module,
class or function when that statement is a string literal.

Usage: python3 tools/code_lines.py [FILE_OR_DIR ...]   (default: src/bicomm)

Prints one line per file and a total for each directory given.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers covered by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one file's source text."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def main(argv):
    targets = [Path(a) for a in argv] or [Path("src/bicomm")]
    for target in targets:
        files = sorted(target.glob("*.py")) if target.is_dir() else [target]
        total = 0
        for path in files:
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:7d} {path}")
        if target.is_dir():
            print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
