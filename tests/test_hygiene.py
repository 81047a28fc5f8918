"""Checks on the package source: no dead imports, no stale exports, and a
numpy-only runtime."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import scsqkd

SOURCES = sorted(Path(scsqkd.__file__).parent.glob("*.py"))


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
