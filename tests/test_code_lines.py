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
