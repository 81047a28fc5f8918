"""Every scan output pinned byte for byte.

The pinned scans are the README config with ``mc_validate`` (``scan.csv``,
``scan.svg``, ``mc_report.csv``) and the three benchmark workloads at
seed 1, whose configs ``perfbench/workloads.make_config`` builds (perfbench
is only read).  A change that moves one output bit fails here; on a
mismatch the failure names, per CSV column, the rows that differ and the
largest relative difference, so an ulp reads apart from a regression.

Bits may differ across numpy versions and CPUs (vectorized ``exp`` and
``log``), so ``pinned/platform.json`` records the numpy version and machine
of the pins, and the failure message says when the running ones differ.
A deliberate bit change re-pins in the same change, by running this file:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""
import importlib.util
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from scsqkd.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pinned"
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _configs() -> dict[str, dict]:
    """Each pinned scan's config, by the name of its pin directory."""
    readme = (ROOT / "README.md").read_text()
    config = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    config["mc_validate"] = True
    workloads = _workloads()
    return {"readme": config,
            **{name: workloads.make_config(name, SEED) for name in workloads.WORKLOADS}}


CONFIGS = _configs()


def _platform() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _scan(config: dict, tmp: Path) -> dict[str, bytes]:
    """The bytes of each file a scan of ``config`` writes, by name."""
    path, out = tmp / "config.json", tmp / "out"
    path.write_text(json.dumps(config))
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    return {file.name: file.read_bytes() for file in sorted(out.iterdir())}


def _relative(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numeric fields; inf if either is not a
    number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _csv_diff(pinned: str, got: str) -> list[str]:
    """Per column, the data rows (from 1) that differ and the largest relative
    difference among them."""
    old, new = pinned.splitlines(), got.splitlines()
    if old[:1] != new[:1]:
        return [f"header {new[:1]} != pinned {old[:1]}"]
    lines = [] if len(old) == len(new) else [
        f"{len(new) - 1} rows != pinned {len(old) - 1}; the common rows:"]
    header = old[0].split(",")
    rows = [(r, a.split(","), b.split(","))
            for r, (a, b) in enumerate(zip(old[1:], new[1:]), start=1) if a != b]
    for col, name in enumerate(header):
        changed = [(r, a[col], b[col]) for r, a, b in rows if a[col] != b[col]]
        if changed:
            worst = max(_relative(a, b) for _, a, b in changed)
            lines.append(f"  {name}: rows {[r for r, _, _ in changed]}, "
                         f"largest relative difference {worst:.3g}"
                         + (" (equal values, other text)" if worst == 0.0 else ""))
    return lines


def _report(name: str, pinned: dict[str, bytes], got: dict[str, bytes]) -> str:
    lines = [f"scan {name!r} differs from its pins in {PINS / name}:"]
    for file in sorted(pinned.keys() | got.keys()):
        if file not in got or file not in pinned:
            lines.append(f"{file}: written {'only by the pins' if file not in got else 'only now'}")
        elif pinned[file] != got[file]:
            old, new = pinned[file].decode(), got[file].decode()
            if file.endswith(".csv"):
                lines += [f"{file}:"] + _csv_diff(old, new)
            else:
                first = next((k for k, (a, b) in enumerate(
                    zip(old.splitlines(), new.splitlines()), start=1) if a != b), None)
                lines.append(f"{file}: first differing line {first}")
    recorded = json.loads((PINS / "platform.json").read_text())
    if recorded != _platform():
        lines.append(f"The pins were recorded with numpy {recorded['numpy']} on "
                     f"{recorded['machine']}; this run has numpy {np.__version__} "
                     f"on {platform.machine()}.")
    return "\n".join(lines)


@pytest.mark.parametrize("name", CONFIGS)
def test_scan_outputs_match_the_pins(tmp_path, name):
    got = _scan(CONFIGS[name], tmp_path)
    pinned = {file.name: file.read_bytes() for file in sorted((PINS / name).iterdir())}
    if got != pinned:
        pytest.fail(_report(name, pinned, got), pytrace=False)


def repin() -> None:
    """Rewrite every pin from the current code."""
    for name, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = _scan(config, Path(tmp))
        directory = PINS / name
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.iterdir():
            stale.unlink()
        for file, data in files.items():
            (directory / file).write_bytes(data)
    (PINS / "platform.json").write_text(json.dumps(_platform(), indent=2) + "\n")


if __name__ == "__main__":
    repin()
