"""Checks on the package source: no dead imports or top-level names, no
stale exports, a numpy-only runtime, and README examples that run."""
import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import scsqkd
from scsqkd.cli import build_parser, load_config

SOURCES = sorted(Path(scsqkd.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path) == []


def _top_level_names(path: Path) -> list[str]:
    """Functions, classes and variables a module defines at its top level."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _identifier_counts(source: str) -> Counter:
    """Occurrences of each identifier in Python ``source``: as a name,
    attribute, imported or defined name, or whole string literal (the
    benchmark's tracer names the functions it rebinds in strings)."""
    counts = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            counts[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def test_every_top_level_name_is_referenced():
    # A name that occurs only where it is defined is dead.  Dunder names
    # (__all__, __version__) are read by tools, not by code.
    definitions = Counter(name for path in SOURCES for name in _top_level_names(path)
                          if not (name.startswith("__") and name.endswith("__")))
    counts = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            counts += _identifier_counts(path.read_text())
    assert sorted(n for n, defs in definitions.items() if counts[n] <= defs) == []


def test_every_exported_name_is_used_outside_tests():
    # An export that only tests use is public API nothing else needs.  A
    # name counts where the package uses it outside its definition and
    # __init__.py, where perfbench uses it, or in a README Python example.
    package = [path for path in SOURCES if path.name != "__init__.py"]
    counts = sum((_identifier_counts(path.read_text()) for path in package), Counter())
    counts -= Counter(name for path in package for name in _top_level_names(path))
    sources = [path.read_text() for path in (ROOT / "perfbench").rglob("*.py")]
    for source in sources + _readme_blocks("python"):
        counts += _identifier_counts(source)
    assert sorted(name for name in scsqkd.__all__ if counts[name] <= 0) == []


def test_every_exported_name_resolves():
    assert [name for name in scsqkd.__all__ if not hasattr(scsqkd, name)] == []


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows what the
    # package itself pulls in, whatever this test process has imported.
    src = str(Path(scsqkd.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import scsqkd, scsqkd.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _readme_blocks(lang: str) -> list[str]:
    """Every fenced ``lang`` code block of README.md."""
    return re.findall(rf"```{lang}\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_python_blocks_run():
    blocks = _readme_blocks("python")
    assert blocks
    for code in blocks:
        # The examples import only exported names.
        imported = [alias.name for node in ast.walk(ast.parse(code))
                    if isinstance(node, ast.ImportFrom) and node.module == "scsqkd"
                    for alias in node.names]
        assert sorted(set(imported) - set(scsqkd.__all__)) == []
        exec(code, {})


def test_readme_json_blocks_load(tmp_path):
    # Loaded as perfbench/gate.py loads a config, through the CLI parser.
    blocks = _readme_blocks("json")
    assert blocks
    path = tmp_path / "config.json"
    for text in blocks:
        path.write_text(text)
        load_config(str(path), build_parser().parse_args(
            ["scan", "--config", str(path), "--out", str(tmp_path / "out")]))
