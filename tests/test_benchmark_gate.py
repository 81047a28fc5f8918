"""The benchmark's correctness gate on each workload's default-seed scan.

perfbench/gate.py judges a scan's rows by re-evaluation, the 1 % reference
rows in perfbench/reference/ and, with ``mc_validate``, the Monte Carlo tail.
Running it here makes a change that moves result bits meet those rules in
the test suite, not only in the benchmark.  perfbench is only read.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from scsqkd.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _module("gate")
workloads = _module("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_scan_passes_the_gate(tmp_path, workload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload,
                                                       workloads.DEFAULT_SEED)))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    mc = out / "mc_report.csv"
    attempted, failures = gate.check(
        str(config), (out / "scan.csv").read_text(),
        mc.read_text() if mc.exists() else None, [],
        (PERFBENCH / "reference" / f"{workload}.csv").read_text())
    assert attempted > 0
    assert failures == {}
