"""The reach audit's matcher (``tests/reach.py``) on a fixture of two
small modules: one function reached and one not, the reached one
decorated, and a lambda."""

import importlib
import sys

import reach

FIXTURE = {
    "alpha.py": "import functools\n\n\n@functools.cache\ndef reached():\n    return 1\n",
    "beta.py": "def unreached():\n    return 2\n\n\nsquare = lambda x: x * x\n",
}


def test_matcher_finds_the_one_definition_not_run(tmp_path, monkeypatch):
    package = tmp_path / "reach_fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, source in FIXTURE.items():
        (package / name).write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("reach_fixture", "reach_fixture.alpha", "reach_fixture.beta"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    found = reach.definitions(tmp_path)
    assert sorted(found.values()) == [
        "reach_fixture.alpha.reached", "reach_fixture.beta.<lambda>@5", "reach_fixture.beta.unreached"]
    # A decorated function's code object starts at its decorator, line 4,
    # not at its def on line 5.
    assert [line for _, line, name in found if name == "reached"] == [4]
    alpha = importlib.import_module("reach_fixture.alpha")
    beta = importlib.import_module("reach_fixture.beta")
    with reach.watching() as codes:
        assert alpha.reached() == 1 and beta.square(3) == 9
    assert reach.unreached(found, codes) == ["reach_fixture.beta.unreached"]
    assert set(reach.unreached(found, set())) == set(found.values())


def test_verdict_fails_a_stray_and_a_reached_allowance():
    assert reach.verdict(["a.f"], {"a.f": "why"}) == ([], [])
    assert reach.verdict(["a.f", "a.g"], {"a.f": "why"}) == (["a.g"], [])
    assert reach.verdict([], {"a.f": "why"}) == ([], ["a.f"])


def test_the_allowlist_names_six_definitions_with_their_reasons():
    found = set(reach.definitions(reach.SRC).values())
    assert len(reach.ALLOWED) == 6 and set(reach.ALLOWED) <= found
    assert all(reach.ALLOWED.values())
