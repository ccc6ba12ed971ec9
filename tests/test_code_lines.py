import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    total = (x +
             1)
    text = """a string
that is not a docstring"""
    return total, text


class C:
    """Class docstring."""

    y = 1
'''


def test_counter_skips_docstrings_comments_and_blank_lines():
    # import, def, total (2 lines), text (2 lines), return, class, y = 1
    assert code_lines(FIXTURE) == 9


def test_closed_pipe_ends_the_output_quietly(tmp_path):
    """A reader that takes one line and closes the pipe, as ``head -1``
    does, leaves no traceback and exit status 0.  The 2,000 modules print
    more than a pipe holds, so the counter is still writing when the pipe
    closes."""
    for i in range(2000):
        (tmp_path / f"m{i:04d}.py").write_text("x = 1\n", encoding="utf-8")
    script = Path(__file__).with_name("code_lines.py")
    with subprocess.Popen([sys.executable, str(script), str(tmp_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        errors = child.stderr.read()
    assert first.endswith(b"m0000.py\n")
    assert errors == b""
    assert child.returncode == 0
