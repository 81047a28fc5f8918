"""Record the reference rows the gate compares default-seed runs against.

Run from the root of a scsqkd checkout, only when the expected results
change on purpose:

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.csv: the scan.csv of one scan of each
workload's DEFAULT_SEED config.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from scsqkd import cli

    for workload in WORKLOADS:
        work = os.path.join(root, ".bench_work", f"reference-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        config = os.path.join(work, "config.json")
        with open(config, "w") as handle:
            json.dump(make_config(workload, DEFAULT_SEED), handle, indent=1)
        if cli.main(["scan", "--config", config, "--out", work]) != 0:
            return 1
        target = os.path.join(HERE, "reference", f"{workload}.csv")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(work, "scan.csv"), target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
