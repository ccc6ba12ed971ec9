"""The README's Library quickstart runs as written: each expression's value
is the one its comment shows."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quickstart_values_match_their_comments():
    block = _quickstart()
    namespace: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert values == [
        190569292,
        21339417,
        [1, 0, 2, 0, 3, 1, 4, 2],
        77,
        [(6,), (4, 2), (3, 3), (2, 2, 2)],
        ["(4,2,1)", "(3,2,1,1)", "(2,2,1,1,1)"],
    ]
    # Each value is the start of its comment, on its own line or the next.
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line]
    assert len(comments) == len(values)
    assert all(comment.startswith(repr(value)) for comment, value in zip(comments, values))
