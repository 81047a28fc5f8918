"""Self-test of the benchmark; run from the root of a scsqkd checkout:

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, must pass the gate and
   report every metric BENCHMARK.json names, with its unit.
2. The gate must be able to fail: a corrupted scan.csv row, a row that
   differs between two scans, a row off the reference and a corrupted
   mc_report.csv count must each raise failed_frac above 0.

Exits 0 when every check holds.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys

import run


def _corrupt(text: str, row_number: int, column: str, change) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row_number][col] = repr(change(float(rows[row_number][col])))
    return "\n".join(",".join(r) for r in rows) + "\n"


def _failed(files: dict, scan_csv: str, mc_csv: str | None = None,
            differing: tuple[int, ...] = (), reference: str | None = None) -> int:
    import gate
    _, failures = gate.check(files["config"], scan_csv, mc_csv, list(differing), reference)
    return len(failures)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems: list[str] = []
    outputs = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            lines, result, files = run.run_workload(root, workload, seed=3, seconds=0.5,
                                                    trace=bool(trace), tiny=True)
            print(f"{workload} trace {trace}: " + "; ".join(lines[:3]))
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got.items())} "
                                f"!= {sorted(expected[trace].items())}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: gate failed: {lines}")
            outputs[workload] = files

    files = outputs["finite-scan"]
    with open(files["scan_csv"]) as handle:
        scan_csv = handle.read()
    cases = {
        "corrupted e_ph": _failed(files, _corrupt(scan_csv, 1, "e_ph", lambda v: v * 1.001)),
        "nondeterministic row": _failed(files, scan_csv, differing=(1,)),
        "row off the reference": _failed(
            files, scan_csv, reference=_corrupt(scan_csv, 1, "R_coh", lambda v: v * 1.02 + 1e-12)),
    }
    files = outputs["mc-validate"]
    with open(files["scan_csv"]) as handle:
        scan_csv = handle.read()
    with open(files["mc_csv"]) as handle:
        mc_csv = handle.read()
    cases["corrupted MC count"] = _failed(
        files, scan_csv, _corrupt(mc_csv, 3, "observed", lambda v: v + 50.0 + 10.0 * v))
    for case, failed in cases.items():
        print(f"{case}: {failed} failed rows")
        if failed == 0:
            problems.append(f"{case} did not raise failed_frac")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
