"""Deterministic single-site mutation audit of named functions in one module.

Run from the root of a scsqkd checkout:

    python3 tools/mutants.py channel heralding_arrays phase_averaged_prob
    python3 tools/mutants.py optimizer _Incumbents.update

Each mutant changes one site in the body of one named function (a method is
named ``Class.method``), in source order:

* a comparison flipped (``<`` to ``>=``, ``==`` to ``!=``, ``is`` to
  ``is not``, ``in`` to ``not in`` and back);
* an arithmetic operator swapped (``+``/``-``, ``*``/``/``, ``//`` to
  ``*``, ``%`` to ``//``, ``**`` to ``*``, ``&``/``|``, ``^`` to ``&``),
  also in augmented assignments;
* a numeric constant changed (an integer n to n + 1, a float 0 to 1 and
  any other float x to 2x);
* ``and`` and ``or`` swapped (every operator of one chain);
* a ``not``, or numpy's ``~``, dropped.

Only the operator or constant's own characters are replaced, so every
other line keeps its text and number.  Each mutant is written into a copy of
the package in a temporary directory, and pytest runs the tests against it
(``-x``, the copy first on the path): the test files under ``TESTS`` that
import the module, or a name it defines, from the package ``PACKAGE``, and
always the files of ``ALWAYS`` (the byte pins of every scan output, ~1 s a
mutant), which see a module's mutants through the command line even where
they import nothing of it.
A mutant is killed when the tests fail or time out (ten times the
unmutated run, at least a minute) and survives when they pass; a test run
may use at most ``MEMORY`` bytes of address space, so a mutant that loops
while it allocates ends in a MemoryError.  It prints one line per mutant,
``killed``, ``SURVIVED`` or ``equivalent`` with its line number and
``module.function: old -> new | the original line``, then the counts, and
exits with status 1 if any mutant survived.  That key (after the line
number, with `` #k`` for the k-th equal key) is what ``ALLOWED`` lists:
the mutants that change nothing observable, which are not run.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

PACKAGE = "src/scsqkd"
TESTS = "tests"
ALWAYS = ("test_pinned_outputs.py",)
MEMORY = 3 * 2 ** 30

# Why a mutant of the series stop rule in channel._scaled_i0_minus_1 that
# lengthens the series changes no bit.
_LONGER = (
    "only lengthens the series: each term ratio y / k^2 of the scalar recursion is at "
    "least the true one, so its term-to-sum ratio is never below the true one and it "
    "stops no earlier; every term an element adds beyond its own stop is below half an "
    "ulp of its sum, so no bit changes")

# Equivalent mutants: key -> why nothing observable changes.
ALLOWED = {
    "channel.heralding_arrays: `0.0` -> `1.0` | if any(np.fmin.reduce(x, axis=None, "
    "initial=0.0) < 0.0":
    "any initial >= 0 gives the same verdict: min(initial, min(x)) < 0 iff min(x) < 0",
    "channel.heralding_arrays: `0.0` -> `1.0` | or np.fmax.reduce(x, axis=None, "
    "initial=0.0) > MAX_MU for x in arrays):":
    "any initial <= MAX_MU gives the same verdict: max(initial, max(x)) > MAX_MU iff "
    "max(x) > MAX_MU",
    "channel._scaled_i0_minus_1: `0.0` -> `1.0` | c_max = float(np.fmax.reduce(c, "
    "axis=None, initial=0.0))":
    _LONGER,
    "channel._scaled_i0_minus_1: `0.25` -> `0.5` | y_max = 0.25 * c_max * c_max":
    _LONGER,
    "channel._scaled_i0_minus_1: `*` -> `/` | term *= y_max / (terms * terms)":
    _LONGER,
    "channel._scaled_i0_minus_1: `/` -> `*` | term *= y_max / (terms * terms)":
    _LONGER,
    "channel._scaled_i0_minus_1: `+=` -> `-=` | total += term":
    "only lengthens the series: the sum y - y^2/4 - ... stays positive and below the true"
    " one, so the term-to-sum ratio is never below the true one and it stops no earlier; "
    "every term an element adds beyond its own stop is below half an ulp of its sum, so "
    "no bit changes",
    "channel._scaled_i0_minus_1: `*=` -> `/=` | term *= y_max / (terms * terms)":
    "the recursion's terms grow until term and sum reach inf, where the loop ends after "
    "at most a few hundred terms; the true terms beyond each element's stop are below "
    "half an ulp of its sum or underflow to 0, so no bit changes",
    "channel._scaled_i0_minus_1: `1` -> `2` | terms = 1":
    "the count starts one higher and the recursion divides by (k + 1)^2 from k = 2: its "
    "term after j steps is the true term j + 2 times 4 / y, so at y <= 4 (c <= 4, above "
    "the cap) the true series stops within one term of the mutant's loop and the count "
    "never falls below it; the extra terms are below half an ulp of each sum, so no bit "
    "changes",
    "channel._scaled_i0_minus_1: `1` -> `2` | terms += 1":
    "the count climbs by two per step while the recursion divides by odd squares: after j"
    " steps its term y^(j+1) / (3 5 ... (2j+1))^2 is at least the true term 2j + 1 at y "
    "<= 1, and its sum at most the true sum, so its count 2j + 1 never falls below the "
    "true stop; the extra terms are below half an ulp of each sum, so no bit changes",
    "channel._scaled_i0_minus_1: `1e-17` -> `2e-17` | while term > 1e-17 * total:":
    "a term below 2e-17 of its sum is still below half an ulp of it (at least 2^-54, "
    "5.6e-17, of the sum), so the terms the earlier stop leaves out change no bit",
    "phase_error._mean_count: `5e-324` -> `1e-323` | return np.maximum(p0 * px / 2.0, "
    "5e-324) * (":
    "the floor acts only where px <= 1e-323, where sqrt(nB_U) / px is inf (nB_U > 0 "
    "for every finite block, the only kind that calls it), so any positive floor gives inf",
    "optimizer._Incumbents.update: `1` -> `2` | rates = np.where(feasible, "
    "batch.R_coh_signed, -np.inf).reshape(n, -1)":
    "numpy's reshape takes any negative length as the one it works out",
    "optimizer._Incumbents.update: `1` -> `2` | len(again), -1) & ~np.isnan(again)":
    "numpy's reshape takes any negative length as the one it works out",
    "mapping.virtual_intensity_array: `0.0` -> `1.0` | s = np.sqrt(np.expm1(np.where("
    "feasible, t, 0.0)) * ((1.0 - av0) / av0))":
    "the fill reaches only infeasible elements, where `feasible &= s < 1.0` stays False "
    "and s is replaced by 0.0 before the log; expm1(1.0) is finite, so nothing warns",
    "optimizer._point_table: `==` -> `!=` | asymptotic = np.array([size == ASYMPTOTIC "
    "for size in sizes], dtype=bool)":
    "the two kinds' masks swap places, so only the order of the two groups' passes "
    "changes; each point is in one group, and its result depends on no other point",
    "pipeline.evaluate_points: `1.0` -> `2.0` | e_ph = asymptotic_phase_error(p_O, p_B, "
    "np.where(p_Z > 0.0, p_Z, 1.0), *coeffs)":
    "the fill reaches only elements with p_Z = 0 or NaN, where n_Z = p0 px p_Z is 0 or NaN "
    "too, so the has_z mask sets their e_ph to 0.5 and rate to -inf; 2.0 is as finite and "
    "positive as 1.0, so nothing warns",
    "pipeline.evaluate_points: `1.0` -> `2.0` | e_ph = phase_error_arrays(n_O, n_B, "
    "np.where(has_z, n_Z, 1.0) if empty else n_Z,":
    "the fill reaches only elements with n_Z = 0 or NaN, whose e_ph the has_z mask sets to "
    "0.5 and whose rate to -inf; 2.0 is as finite and positive as 1.0, so nothing warns",
    "cli.run_scan: `1` -> `2` | d, b, m = np.indices((len(eta), len(blocks), "
    "len(modes))).reshape(3, -1)":
    "numpy's reshape takes any negative length as the one it works out",
    "mc_oracle._heralding: `2` -> `3` | nu = np.empty((2, len(_KINDS), len(eta)))":
    "only nu[0] and nu[1] are written and read; a third slice is never used",
    "mc_oracle.simulate_arrays: `*` -> `/` | px_row * p0_row, px_row * px_row]) #2":
    "numpy's multinomial ignores its last probability while it lies in [0, 1] and "
    "takes it as 1 minus the others; px / px is 1.0 for px in (0, 1)",
    "chernoff._solve: `1` -> `2` | sub = np.reshape(t, -1)[idx]":
    "numpy's reshape takes any negative length as the one it works out",
    "chernoff._solve: `1` -> `2` | w.reshape(-1)[idx] = _newton(residual, redo, sub)":
    "numpy's reshape takes any negative length as the one it works out, and gives the "
    "same view of w",
    "chernoff._bound: `1.0` -> `2.0` | if not (np.maximum.reduce(log_xi, axis=None, "
    "initial=-1.0) < 0.0":
    "any negative initial gives the same verdict: max(initial, max(log_xi)) < 0 iff "
    "max(log_xi) < 0, NaN fails with either, and an empty log_xi passes with either",
    "chernoff._bound: `1.0` -> `2.0` | and np.minimum.reduce(log_xi, axis=None, "
    "initial=-1.0) > -np.inf):":
    "any finite initial gives the same verdict: min(initial, min(log_xi)) > -inf iff "
    "min(log_xi) > -inf, and an empty log_xi passes with either",
    "chernoff._bound: `1.0` -> `2.0` | if not (np.minimum.reduce(t, axis=None, "
    "initial=1.0) > 0.0":
    "any positive initial gives the same verdict: min(initial, min(t)) > 0 iff min(t) > 0, "
    "and an empty t passes with either",
    "chernoff._bound: `0.0` -> `1.0` | if not (np.minimum.reduce(t, axis=None, "
    "initial=1.0) > 0.0":
    "it only sends passes with some t in (0, 1] through the masks, where the clip to "
    "[5e-324, _T_MAX] and the copy where t > _T_MAX change no element in (0, _T_MAX], and "
    "far() runs under errstate(divide, invalid), so nothing warns",
    "chernoff._bound: `1.0` -> `2.0` | and np.maximum.reduce(t, axis=None, "
    "initial=1.0) <= _T_MAX):":
    "any initial <= _T_MAX gives the same verdict: max(initial, max(t)) <= _T_MAX iff "
    "max(t) <= _T_MAX, and an empty t passes with either",
    "chernoff._bound: `1.0` -> `2.0` | t = np.clip(t, np.nextafter(0.0, 1.0), _T_MAX)":
    "np.nextafter(0.0, 2.0) is np.nextafter(0.0, 1.0), the smallest positive double",
    "keyrate.binary_entropy: `1.0` -> `2.0` | if not (x.min(initial=1.0) > 0.0 and "
    "y.min(initial=1.0) > 0.0):":
    "any positive initial gives the same verdict: min(initial, min(x)) > 0 iff min(x) > 0, "
    "and an empty array passes with either",
    "keyrate.binary_entropy: `1.0` -> `2.0` | if not (x.min(initial=1.0) > 0.0 and "
    "y.min(initial=1.0) > 0.0): #2":
    "any positive initial gives the same verdict: min(initial, min(y)) > 0 iff min(y) > 0, "
    "and an empty array passes with either",
    "keyrate.binary_entropy: `0.0` -> `1.0` | if not (x.min(initial=1.0) > 0.0 and "
    "y.min(initial=1.0) > 0.0):":
    "x lies in [0, 1], so the test fails and every call takes the 0/1 fix, which writes 0 "
    "only where x or y is 0 and so changes no element of a call that skipped it",
    "keyrate.binary_entropy: `0.0` -> `1.0` | if not (x.min(initial=1.0) > 0.0 and "
    "y.min(initial=1.0) > 0.0): #2":
    "y lies in [0, 1], so the test fails and every call takes the 0/1 fix, which writes 0 "
    "only where x or y is 0 and so changes no element of a call that skipped it",
    "keyrate.ec_leakage_array: `1.0` -> `2.0` | rate = (wrong / total if "
    "np.minimum.reduce(total, axis=None, initial=1.0) > 0.0":
    "any positive initial gives the same verdict: min(initial, min(total)) > 0 iff "
    "min(total) > 0, and an empty pass divides nothing with either",
    "keyrate.ec_leakage_array: `0.0` -> `1.0` | rate = (wrong / total if "
    "np.minimum.reduce(total, axis=None, initial=1.0) > 0.0":
    "a pass whose totals all lie in (0, 1] takes error_share, which divides by "
    "total + (total == 0), the same total wherever it is positive",
}

_COMPARE = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "==": "!=", "!=": "==",
            "is": "is not", "is not": "is", "in": "not in", "not in": "in"}
_ARITHMETIC = {"+": "-", "-": "+", "*": "/", "/": "*", "//": "*", "%": "//",
               "**": "*", "&": "|", "|": "&", "^": "&"}
_BOOLEAN = {"and": "or", "or": "and"}


class Mutant(NamedTuple):
    spans: tuple[tuple[int, int], ...]  # source offsets to replace
    text: str                           # what replaces each span
    line: int
    key: str


def _function(tree: ast.Module, name: str) -> ast.AST:
    node = tree
    for part in name.split("."):
        node = next((n for n in node.body if getattr(n, "name", None) == part
                     and isinstance(n, (ast.FunctionDef, ast.ClassDef))), None)
        if node is None:
            raise SystemExit(f"no function {name!r} in the module")
    return node


def mutants(source: str, module: str, name: str) -> list[Mutant]:
    """The mutants of function ``name`` of ``source``, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def offset(lineno, col_bytes):  # ast counts UTF-8 bytes, str indices characters
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col_bytes].decode())

    def start(node):
        return offset(node.lineno, node.col_offset)

    def end(node):
        return offset(node.end_lineno, node.end_col_offset)

    # tokenize counts characters.
    tokens = [(starts[t.start[0] - 1] + t.start[1], starts[t.end[0] - 1] + t.end[1],
               t.string) for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME) and t.string not in ("(", ")")]

    def between(lo, hi):  # the operator tokens between two operands
        found = [t for t in tokens if lo <= t[0] < hi]
        return (found[0][0], found[-1][1]), " ".join(t[2] for t in found)

    func = _function(ast.parse(source), name)
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    skip = set()  # f-strings: their inner positions are not reliable
    sites = []  # (spans, old, new)
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, ast.JoinedStr):
            skip.update(map(id, ast.walk(node)))
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                span, old = between(end(left), start(right))
                sites.append(((span,), old, _COMPARE[old]))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            left, right = ((node.left, node.right) if isinstance(node, ast.BinOp)
                           else (node.target, node.value))
            span, old = between(end(left), start(right))
            op = old.rstrip("=") if isinstance(node, ast.AugAssign) else old
            if op in _ARITHMETIC:
                sites.append(((span,), old, old.replace(op, _ARITHMETIC[op], 1)))
        elif isinstance(node, ast.BoolOp):
            spans = [between(end(a), start(b)) for a, b in zip(node.values, node.values[1:])]
            old = spans[0][1]
            sites.append((tuple(s for s, _ in spans), old, _BOOLEAN[old]))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
            span, old = between(start(node), start(node.operand))
            sites.append(((span,), old, ""))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            value = node.value
            new = value + 1 if isinstance(value, int) else (2.0 * value if value else 1.0)
            sites.append((((start(node), end(node)),), source[start(node):end(node)],
                          repr(new)))
    out, seen = [], {}
    for spans, old, new in sorted(sites, key=lambda s: s[0]):
        row = source.count("\n", 0, spans[0][0]) + 1
        change = f"drop `{old}`" if not new else f"`{old}` -> `{new}`"
        key = f"{module}.{name}: {change} | {lines[row - 1].strip()}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        out.append(Mutant(spans, new, row, key))
    return out


def apply(source: str, mutant: Mutant) -> str:
    for lo, hi in sorted(mutant.spans, reverse=True):
        source = source[:lo] + mutant.text + source[hi:]
    return source


def selected_tests(package: Path, module: str, source: str, folder: Path) -> list[Path]:
    """Test files in ``folder`` named in ``ALWAYS`` or that import ``module``
    of ``package``, or a top-level name of it from the package."""
    names = {module}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    dotted = f"{package.name}.{module}"
    out = []
    for path in sorted(folder.glob("test_*.py")):
        if path.name in ALWAYS:
            out.append(path)
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Import) and any(a.name == dotted for a in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.level == 0
                        and (node.module == dotted or node.module == package.name
                             and any(a.name in names for a in node.names)))):
                out.append(path)
                break
    return out


def _tests_pass(tests: list[Path], path: Path, timeout: float) -> bool:
    """Whether pytest passes ``tests``, with the packages in ``path`` first on
    the import path, within ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(path), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))

    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={path}", *map(str, tests)]
    with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True,
                          preexec_fn=limit) as run:
        try:
            code = run.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            return False
    if code in (0, 1, 2):  # passed; test failures, or errors while collecting
        return code == 0
    raise SystemExit(f"pytest exited with status {code}: {' '.join(command)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("module", help="module name within the package, e.g. channel")
    parser.add_argument("functions", nargs="+", help="functions to mutate (Class.method)")
    args = parser.parse_args(argv)
    package = Path(PACKAGE).resolve()
    target = package / f"{args.module}.py"
    source = target.read_text(encoding="utf-8")
    tests = selected_tests(package, args.module, source, Path(TESTS))
    if not tests:
        raise SystemExit(f"no test file imports {args.module}")
    print(f"tests: {' '.join(map(str, tests))}")
    counts = {"killed": 0, "SURVIVED": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        began = time.perf_counter()
        if not _tests_pass(tests, Path(tmp), 3600.0):
            print("the tests fail on the unmutated module")
            return 2
        timeout = max(60.0, 10.0 * (time.perf_counter() - began))
        for name in args.functions:
            for mutant in mutants(source, args.module, name):
                if mutant.key in ALLOWED:
                    outcome = "equivalent"
                else:
                    (copy / target.name).write_text(apply(source, mutant), encoding="utf-8")
                    passed = _tests_pass(tests, Path(tmp), timeout)
                    outcome = "SURVIVED" if passed else "killed"
                counts[outcome] += 1
                print(f"{outcome:10} {mutant.line:5}  {mutant.key}", flush=True)
    print(", ".join(f"{n} {k.lower()}" for k, n in counts.items()))
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
