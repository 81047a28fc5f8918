"""Checks on the package source: no dead imports, no top-level names that
are unused or used only by tests, no stale exports, no exception class that
is neither exported nor caught, a numpy-only runtime, one writer of output
files, no file read or written in the locale's encoding, and README examples
that run."""
import ast
import json
import re
import subprocess
import sys
import textwrap
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


def test_no_top_level_name_is_used_only_by_tests():
    # A name that only tests reference is code the package does not need:
    # what the tests check through it, they can check through the name the
    # package uses.  References count in src (its __init__ included),
    # perfbench and tools.
    definitions = Counter(name for path in SOURCES for name in _top_level_names(path)
                          if not (name.startswith("__") and name.endswith("__")))
    counts = Counter()
    for folder in ("src", "perfbench", "tools"):
        for path in (ROOT / folder).rglob("*.py"):
            counts += _identifier_counts(path.read_text())
    assert sorted(n for n, defs in definitions.items() if counts[n] <= defs) == []


def _caught_names(tree: ast.Module) -> set[str]:
    """Names of the exception classes the ``except`` clauses of ``tree`` name."""
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.id if isinstance(t, ast.Name) else t.attr for t in types}
    return caught


def test_every_exception_class_is_exported_or_caught():
    # An exception class that no caller can import from the package root and
    # that the package never catches tells nothing a plain ValueError would
    # not.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    caught = set().union(*map(_caught_names, trees))
    classes = [node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)
               and any(isinstance(base, ast.Name) and base.id.endswith(("Error", "Exception"))
                       for base in node.bases)]
    assert classes
    assert sorted(name for name in classes
                  if name not in scsqkd.__all__ and name not in caught) == []


def test_every_record_rejects_a_field_only_through_check():
    # One message shape, "<field> must <requirement>, got <value>", which
    # cli._section maps back to a config key: a __post_init__ that raises on
    # its own, or never calls _check, could state its error any other way.
    records = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                inner = list(ast.walk(node))
                records.append((f"{path.name}:{node.lineno}",
                                any(isinstance(n, ast.Raise) for n in inner),
                                any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                    and n.func.id == "_check" for n in inner)))
    assert len(records) >= 6
    assert [where for where, raises, checks in records if raises or not checks] == []


def test_no_function_below_the_records_takes_a_mode_name():
    # Below the records the heralding mode is the boolean baseline column;
    # only optimize, a one-point entry that builds a ProtocolParams, takes
    # the name (ProtocolParams's mode is a field, no parameter in the source).
    named = []
    for module in ("channel", "pipeline", "optimizer"):
        path = Path(scsqkd.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                if any(param.arg == "mode" for param in params):
                    named.append(f"{module}.{getattr(node, 'name', 'lambda')}")
    assert named == ["optimizer.optimize"]


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


def test_mc_oracle_stays_independent_of_the_heralding_formulas():
    # The simulator cross-checks the channel model's heralding probabilities
    # and expected counts, so it may share only the detector means and the
    # click probability, never a name that computes those.
    source = (Path(scsqkd.__file__).parent / "mc_oracle.py").read_text()
    names = ("effective_prob", "phase_averaged_prob", "heralding_arrays",
             "tally_arrays", "expected_tallies")
    assert [name for name in names if re.search(rf"\b{name}\b", source)] == []


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


def test_cli_builds_one_parser_per_process_and_none_at_import(tmp_path):
    # A parser built at import would add its cost to every fresh
    # interpreter; main builds it on its first call and reuses it, while
    # build_parser returns a new one on each call.
    src = str(Path(scsqkd.__file__).parent.parent)
    code = textwrap.dedent("""
        import argparse, sys
        sys.path.insert(0, sys.argv[1])
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import scsqkd, scsqkd.cli
        counts = [len(built)]
        for _ in range(2):
            assert scsqkd.cli.main(["scan", "--config", sys.argv[2],
                                    "--out", sys.argv[3]]) == 2
            counts.append(len(built))
        assert scsqkd.cli.build_parser() is not scsqkd.cli.build_parser()
        counts.append(len(built))
        print(counts)
        """)
    out = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "missing.json"),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, timeout=60)
    # A parser and its scan subparser per build.
    assert out.stdout.strip() == "[0, 2, 2, 6]"


def test_scan_without_mc_imports_no_numpy_random(tmp_path):
    # Only the Monte Carlo cross-check draws random numbers; numpy loads
    # numpy.random on first use, which costs a scan without it time and
    # memory.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "channel": {"alpha_f": 0.2, "eta_d": 0.3, "p_d": 1e-9, "e_d": 0.04},
        "source": {"av0": 0.99999999, "bv0": 0.99999999, "fluct": 0.1},
        "security": {"eps_coh": 1e-10, "f": 1.1, "d": 8},
        "search": {"px_range": [0.05, 0.5], "mu_range": [1e-3, 0.1],
                   "grid": [3, 3], "refine_rounds": 1, "shrink": 4.0},
        "scan": {"distance": [0, 50, 50], "blocks": ["1e12", "asymptotic"],
                 "modes": ["improved", "baseline"]}}))
    src = str(Path(scsqkd.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from scsqkd.cli import main; "
            "assert main(['scan', '--config', sys.argv[2], '--out', sys.argv[3]]) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy.random' or m.startswith('numpy.random.')))")
    out = subprocess.run([sys.executable, "-c", code, src, str(config),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "scan.csv").exists()


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


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``os.open``, ``write_text``, ``write_bytes``, or an
    ``open(path, mode)``/``path.open(mode)`` whose mode is not a read-only
    literal."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if getattr(getattr(func, "value", None), "id", None) == "os":
        return True
    modes = call.args[isinstance(func, ast.Name):][:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return not all(isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                   for mode in modes)


def test_outputs_have_one_writer():
    # A truncating open of an existing output waits for the writeback of its
    # previous content; cli._overwrite rewrites it in place instead, and
    # every output must go through it.
    writers, truncating = set(), []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _writes_a_file(node):
                    writers.add((path.name, getattr(top, "name", None)))
                if "O_TRUNC" in (getattr(node, "attr", None), getattr(node, "id", None)):
                    truncating.append(f"{path.name}:{node.lineno}")
    assert writers == {("cli.py", "_overwrite")}
    assert truncating == []


def _locale_dependent(call: ast.Call) -> bool:
    """Whether ``call`` is an ``open(path, mode)``/``path.open(mode)`` in
    text mode, or a ``read_text``/``write_text``, that names no encoding
    (``os.open`` is not one: it opens a descriptor)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if any(k.arg == "encoding" for k in call.keywords):
        return False
    if name in ("read_text", "write_text"):
        return True
    if name != "open" or getattr(getattr(func, "value", None), "id", None) == "os":
        return False
    modes = call.args[isinstance(func, ast.Name):][:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return not any(isinstance(mode, ast.Constant) and "b" in str(mode.value)
                   for mode in modes)


def test_every_open_is_binary_or_names_its_encoding():
    # A text-mode open without an encoding decodes with the locale's: a
    # UTF-8 config under an ASCII locale failed to load.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and _locale_dependent(node)]
    assert found == []
