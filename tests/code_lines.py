"""Count the code lines of Python modules: lines that are not blank, not
only a comment and not part of a docstring.

A line of a multi-line expression or string literal counts; a module,
class or function docstring does not.  Run as

    python tests/code_lines.py src/nucleus

to print each module's count and the total; a reader that closes the
pipe early, such as ``head``, ends the output quietly.  Only the
standard library is used: ``tokenize`` finds the lines that hold code,
``ast`` the docstrings.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    try:
        for path in sorted(Path(argv[0]).rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6,d}  {path}")
        print(f"{total:6,d}  total")
        sys.stdout.flush()
    except BrokenPipeError:
        # A reader such as ``head`` closed the pipe: stop counting, and point
        # fd 1 at os.devnull so the interpreter's last flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
