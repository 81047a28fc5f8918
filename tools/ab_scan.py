"""Interleaved A/B timing of ``scsqkd scan`` between two versions of the package.

Run from the root of a scsqkd checkout:

    python3 tools/ab_scan.py HEAD~1 src/scsqkd --config config.json --pairs 200
    python3 tools/ab_scan.py HEAD~1 src/scsqkd --workload asymptotic-scan --seed 7

The scan config is a JSON file, or the config of a benchmark workload for a
seed (default 1), built by ``perfbench/workloads.make_config``.  Each side
is a git revision, whose ``src/scsqkd`` is exported with ``git archive``, or
a path to a package directory.  Both are copied into one
temporary directory as packages of distinct names (``scsqkd_a`` and
``scsqkd_b``; the package imports itself only relatively), imported into
this one process, and ``cli.main(["scan", ...])`` calls alternate between
them, each pair in the other order than the one before.  After one untimed
warm-up call per side, it checks that both sides wrote the same files, then
prints each side's median with its quartiles, the median of the per-pair
ratios b/a and the number of pairs in which b was faster.  When the outputs
differ, it names the files that differ and those that only one side wrote,
and exits with status 1.
After each timed call, outside the timed interval, it compares that call's
files with its side's warm-up files; at the first call whose files differ
(as a buffer kept from one call to the next would make them) it names the
call and the files and exits with status 1.

The warm-up call also absorbs per-process set-up, such as the command-line
parser that ``cli.main`` builds on its first call, so the timed calls show
none of it; startup costs need fresh interpreters (``python -X importtime``,
perfbench ``setup_s``).  The output directory is emptied before every call,
so each timed call writes new files only: the cost of rewriting existing
outputs, which a rerun into the same directory pays, shows only in
perfbench's ``scan_s``, whose timed scans rewrite one directory.

Separate-process medians on a shared 2-core host swung by about 10 % between
identical runs, while the interleaved ratio was stable to about 1 %.  The
test suite runs it on a tiny config (``tests/test_ab_scan.py``).
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

PACKAGE = "src/scsqkd"
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def _export(spec: str, dest: str) -> None:
    """Copy the package of ``spec`` (a directory or a git revision) to ``dest``."""
    if os.path.isdir(spec):
        shutil.copytree(spec, dest, ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "archive", "--format=tar", spec, PACKAGE],
                             capture_output=True, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            name = os.path.relpath(member.name, PACKAGE)
            if not member.isfile() or name.startswith(".."):
                continue
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "wb") as handle:
                handle.write(tar.extractfile(member).read())


def _workload_config(name: str, seed: int | None, tmp: str) -> str:
    """Path of the config of benchmark workload ``name`` at ``seed``, written
    into ``tmp``."""
    sys.path.insert(0, PERFBENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
    try:
        config = workloads.make_config(
            name, workloads.DEFAULT_SEED if seed is None else seed)
    except ValueError as exc:  # an unknown workload
        raise SystemExit(str(exc))
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


def _timed(main, argv: list[str]) -> float:
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"scan exited with status {code}")
    return elapsed


def _read(directory: str) -> dict[str, bytes]:
    """The bytes of each file a scan wrote into ``directory``, by name."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    return files


def _changed(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """Names of the files that differ between two reads, or that only one has."""
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name) != after.get(name))


def _summary(times: list[float]) -> str:
    """The median of ``times`` in ms, with its quartiles from two times on."""
    text = f"median {1e3 * statistics.median(times):.2f} ms"
    if len(times) < 2:
        return text
    q1, _, q3 = statistics.quantiles(times, n=4)
    return f"{text} (q1 {1e3 * q1:.2f}, q3 {1e3 * q3:.2f} ms)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline side: git revision or package directory")
    parser.add_argument("b", help="candidate side: git revision or package directory")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="scan config (JSON)")
    source.add_argument("--workload", help="benchmark workload whose config to scan")
    parser.add_argument("--seed", type=int, help="workload seed (default 1)")
    parser.add_argument("--pairs", type=int, default=100, help="timed pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed is not None and args.workload is None:
        parser.error("--seed needs --workload")
    with tempfile.TemporaryDirectory(prefix="ab_scan_") as tmp:
        if args.workload is None:
            config = os.path.abspath(args.config)
        else:
            config = _workload_config(args.workload, args.seed, tmp)
        sides = {}
        for side, spec in (("a", args.a), ("b", args.b)):
            _export(spec, os.path.join(tmp, f"scsqkd_{side}"))
        # A package of the same name that an earlier call imported would
        # otherwise be reused from sys.modules.
        for name in [name for name in sys.modules
                     if name.split(".")[0] in ("scsqkd_a", "scsqkd_b")]:
            del sys.modules[name]
        sys.path.insert(0, tmp)
        try:
            for side in ("a", "b"):
                sides[side] = importlib.import_module(f"scsqkd_{side}.cli").main
        finally:
            sys.path.remove(tmp)
        outs = {side: os.path.join(tmp, f"out_{side}") for side in sides}
        argvs = {side: ["scan", "--config", config, "--out", outs[side]] for side in sides}
        for side in sides:
            _timed(sides[side], argvs[side])
        warm = {side: _read(outs[side]) for side in sides}
        changed = _changed(warm["a"], warm["b"])
        both = warm["a"].keys() & warm["b"].keys()
        mismatch = [name for name in changed if name in both]
        missing = [name for name in changed if name not in both]
        same = not changed
        if mismatch:
            print(f"outputs that differ: {', '.join(mismatch)}")
        if missing:
            print(f"outputs missing on one side: {', '.join(missing)}")
        times: dict[str, list[float]] = {"a": [], "b": []}
        for i in range(args.pairs):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                shutil.rmtree(outs[side])  # a file the call fails to write shows
                times[side].append(_timed(sides[side], argvs[side]))
                changed = _changed(warm[side], _read(outs[side]))
                if changed:
                    spec = args.a if side == "a" else args.b
                    print(f"timed call {i + 1} of {side} {spec} wrote other files "
                          f"than its warm-up: {', '.join(changed)}")
                    return 1
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    faster = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(f"outputs identical: {'yes' if same else 'NO'}")
    for side, spec in (("a", args.a), ("b", args.b)):
        print(f"{side} {spec}: {_summary(times[side])}")
    print(f"median pair ratio b/a: {statistics.median(ratios):.3f}")
    print(f"pairs with b faster: {faster}/{args.pairs}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
