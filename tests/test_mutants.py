"""Smoke test of tools/mutants.py on a one-function package."""
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

MODULE = '''"""A module with one function."""


def grow(x, lazy=False):
    """x + 1 unless lazy or x < 0."""
    if not lazy and x >= 0:
        return x + 1
    return x
'''

# Kills every mutant but `and` -> `or` and `0` -> `1`.
TESTS = '''from toy.mod import grow


def test_grow():
    assert grow(1) == 2
'''


def test_mutants_are_killed_survive_or_are_allowed(tmp_path, monkeypatch, capsys):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(TESTS)
    assert mutants.importing_tests(package, "mod", MODULE, tests) == [tests / "test_mod.py"]
    line = "if not lazy and x >= 0:"
    keys = [f"mod.grow: {change} | {line}" for change in
            ("drop `not`", "`and` -> `or`", "`>=` -> `<`", "`0` -> `1`")]
    keys += [f"mod.grow: {change} | return x + 1" for change in ("`+` -> `-`", "`1` -> `2`")]
    found = mutants.mutants(MODULE, "mod", "grow")
    assert [m.key for m in found] == keys
    assert mutants.apply(MODULE, found[0]).splitlines()[5] == "    if  lazy and x >= 0:"
    assert mutants.apply(MODULE, found[1]).splitlines()[5] == "    if not lazy or x >= 0:"

    monkeypatch.setattr(mutants, "PACKAGE", str(package))
    monkeypatch.setattr(mutants, "TESTS", str(tests))
    monkeypatch.setattr(mutants, "ALLOWED", {keys[1]: "a test of the allow-list"})
    # Each test run is a fresh pytest; the toy tests need no plugin.
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    assert mutants.main(["mod", "grow"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"tests: {tests / 'test_mod.py'}\n")
    outcomes = re.findall(r"^(killed|SURVIVED|equivalent) +(\d+)  (.*)$", out, re.M)
    assert outcomes == [("killed", "6", keys[0]), ("equivalent", "6", keys[1]),
                        ("killed", "6", keys[2]), ("SURVIVED", "6", keys[3]),
                        ("killed", "7", keys[4]), ("killed", "7", keys[5])]
    assert out.endswith("4 killed, 1 survived, 1 equivalent\n")
    # The package itself is left as it was.
    assert (package / "mod.py").read_text() == MODULE


def test_every_allowed_mutant_is_still_in_the_source():
    # An entry whose line was rewritten or removed excuses no mutant: it
    # would only keep a stale reason in the list.
    for key in mutants.ALLOWED:
        module, _, function = key.partition(": ")[0].partition(".")
        source = (ROOT / mutants.PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        assert key in {m.key for m in mutants.mutants(source, module, function)}, key
