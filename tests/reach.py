"""Reach audit: the function definitions in ``src/nucleus`` that neither
the CLI nor the acceptance criteria run.  Run it from the repository as

    python tests/reach.py

In one process, under a ``sys.setprofile`` hook, it runs every command
of the golden corpus in ``tests/test_golden.py`` (stdout digests,
refused commands, bad cache files and bad cache paths) through
``cli.main``, each in an empty directory with ``NUCLEUS_CACHE`` unset; a
cache build, resume and check; CI's two ``ratios`` commands on both
sides of the float range; and ``tests/test_acceptance.py`` through
``pytest.main``.  Then it lists each definition, lambdas included, whose
code object never ran.  A code object is matched to its definition by
file, first line and name; a decorated function's code object starts at
its first decorator's line, not at its ``def``.

Exit status: 0 when the unreached definitions are exactly ``ALLOWED``,
1 when a definition is neither reached nor allowed or an allowed one is
reached.  The commands' own exit codes and output are the golden tests'
concern.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Definitions that no run of the audit reaches, each with its reason.
ALLOWED = {
    "nucleus.counting.RestrictedCounts.ensure": "perfbench's memory pass is its only caller (ROADMAP item 1c)",
    "nucleus.partitions.fuse": "the paper's fusion map, a library function that only the tests call",
    "nucleus.partitions.is_ground_state": "the paper's ground state, a library function that only the tests call",
    "nucleus.partitions.multiplicity": "a library function of the paper that only the tests call",
    "nucleus.partitions.is_nuclear": "a library function of the paper that only the tests call",
    "nucleus.asymptotics.hr_gamma": "the library's gamma estimate; estimate_rows scales hr_p instead",
}


def definitions(root: Path) -> dict[tuple[str, int, str], str]:
    """Each function definition and lambda in the ``.py`` files under
    ``root``, keyed by (real path, first line, code name) as its code
    object reports them, mapped to its dotted name: the module path from
    ``root``, the enclosing classes and functions, and ``<lambda>@line``
    for a lambda."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        _collect(ast.parse(path.read_text(encoding="utf-8")), module, os.path.realpath(path), found)
    return found


def _collect(node, prefix: str, filename: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
            name = f"{prefix}.{child.name}"
            found[(filename, line, child.name)] = name
        elif isinstance(child, ast.Lambda):
            name = f"{prefix}.<lambda>@{child.lineno}"
            found[(filename, child.lineno, "<lambda>")] = name
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
        else:
            name = prefix
        _collect(child, name, filename, found)


@contextlib.contextmanager
def watching():
    """Collect, in the set it yields, the code object of every Python
    function called in this thread until the block ends."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield codes
    finally:
        sys.setprofile(None)


def unreached(found: dict[tuple[str, int, str], str], codes) -> list[str]:
    """The names in ``found`` of the definitions none of ``codes`` is."""
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name) for code in codes}
    return sorted(name for key, name in found.items() if key not in ran)


def verdict(missed: list[str], allowed) -> tuple[list[str], list[str]]:
    """The unreached definitions that are not allowed, and the allowed ones
    that were reached: the audit passes when both are empty."""
    return [name for name in missed if name not in allowed], sorted(set(allowed) - set(missed))


def _run(commands, setup=None) -> None:
    """Run ``cli.main`` on each of ``commands`` in turn, in one new empty
    directory, after ``setup(directory)`` when given; stdout and stderr
    are dropped."""
    from nucleus import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            if setup:
                setup(Path(directory))
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    with contextlib.suppress(SystemExit):  # argparse's usage errors
                        cli.main(shlex.split(command))
        finally:
            os.chdir(home)


def _exercise() -> None:
    """Run everything the audit watches."""
    import pytest
    import test_golden as golden

    for command in [*golden.GOLDEN, *golden.GOLDEN_ERRORS]:
        _run([command])
    for data, _ in golden.CACHE_ERRORS.values():
        _run(["cache check --cache c.csv"], lambda d, data=data: (d / "c.csv").write_bytes(data))
    for command in golden.PATH_ERRORS:
        _run([command], lambda d: (d / "d").mkdir())
    _run(["cache build --limit 300 --cache c.csv", "cache build --limit 600 --cache c.csv",
          "cache check --cache c.csv"])
    _run(["ratios --estimator p --points 79445,79446 --format json",
          "ratios --estimator gamma --points 81849,81850,83336,83337 --format json"])
    pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS / "test_acceptance.py")])


def main() -> int:
    os.environ.pop("NUCLEUS_CACHE", None)
    sys.path[:0] = [str(SRC), str(TESTS)]
    found = definitions(SRC)
    with watching() as codes:
        _exercise()
    missed = unreached(found, codes)
    stray, reached = verdict(missed, ALLOWED)
    print(f"reach: {len(found)} definitions in src/nucleus, {len(found) - len(missed)} reached")
    for name in missed:
        print(f"  unreached: {name}: " + ALLOWED.get(name, "NOT ALLOWED"))
    for name in reached:
        print(f"  allowed but reached: {name}")
    return 1 if stray or reached else 0


if __name__ == "__main__":
    sys.exit(main())
