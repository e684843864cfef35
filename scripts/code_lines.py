#!/usr/bin/env python3
"""Count the code lines of Python files, by default those under src/glmamp.

A code line is a physical line that holds a token of code.  Blank lines,
comment-only lines and docstrings (the string that opens a module, class
or function body) do not count; a statement's continuation lines and the
lines of a multi-line string that is not a docstring do.  Prints one
``<count> <file>`` line per file and a last ``<count> total`` line:

    python scripts/code_lines.py               # every src/glmamp/*.py
    python scripts/code_lines.py FILE [FILE ...]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "glmamp"

# tokens that are not code: layout, comments and the stream's bookends
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to count (default: every src/glmamp/*.py)")
    args = parser.parse_args(argv)
    total = 0
    for path in args.files or sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
