"""Benchmark of the ``scsqkd scan`` command on seeded workloads.

Run from the root of a scsqkd checkout:

    python3 perfbench/run.py --workload finite-scan --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): finite-scan,
asymptotic-scan, mc-validate.  The config is generated from --seed and run
through the real entry point, ``scsqkd.cli.main(["scan", ...])``, in a fresh
interpreter with the checkout's src/ on PYTHONPATH.

--trace 0 measures the end-to-end metrics with tracing off:

    setup_s      median over fresh interpreters of the time to import scsqkd
                 and load the config
    scan_s       median wall time of one scan (CSV/SVG emission and
                 mc_report.csv included), after one untimed warm-up scan
    peak_rss_mb  peak resident memory of a fresh interpreter running one scan

setup_s and scan_s are scaled to a host of fixed speed: each time is scaled
by the reference work timed just before and after it (hostspeed.py), since
the speed of a shared host drifts more between runs than the bounds allow.
The unscaled wall times are printed too.

Every scan runs with one worker (SCSQKD_WORKERS=1, so the CLI runs the scan
points in its own process) and single-threaded numerical libraries: on a
few shared cores a pool or a thread team measures the other tenants of the
host more than the program.

--trace 1 runs untraced and traced scans alternately in one process and
reports the per-layer metrics of tracer.py, the tracing overhead
(traced minus untraced scan_s) and any layer boundary that no longer exists.

Both check the output rows with gate.py.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed (rows of scan.csv) and metrics.  Timings are reported as
medians with quartiles, never as the worst of several repeats.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S, reference_work, scaled  # noqa: E402
from tracer import unit  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
WORKERS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "scan_s": "s", "peak_rss_mb": "MB"}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["SCSQKD_WORKERS"] = str(WORKERS)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    return env


def _runner(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "runner.py"), *args],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def provenance(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "scsqkd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "usable_cores": usable_cores()}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[list[str], dict, dict]:
    """Measure one workload; returns (report lines, result, files written)."""
    src = os.path.join(root, "src")
    work = os.path.join(root, ".bench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.json")
    with open(config, "w") as handle:
        json.dump(make_config(workload, seed, tiny), handle, indent=1)
    env = _child_env(src)
    lines: list[str] = []
    metrics: dict[str, float] = {}

    if trace:
        out = json.loads(_runner(["trace", "--config", config, "--out", work,
                                  "--seconds", str(seconds)], env).stdout.splitlines()[-1])
        metrics.update(out["metrics"])
        metrics["cli.workers"] = WORKERS
        lines.append(f"traced scans: {out['traced_scans']}; "
                     f"counts repeat exactly: {out['counts_repeat']}")
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
                     f"({metrics['trace.scan_s']:.4f} s traced against "
                     f"{metrics['trace.untraced_scan_s']:.4f} s untraced)")
        lines.append("missing boundaries: " + (", ".join(out["missing"]) or "none"))
        lines.append(f"spans written to {os.path.join(work, 'spans.csv')}")
    else:
        setup, setup_reference = [], [reference_work()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _runner(["setup", "--config", config], env)
            setup.append(time.perf_counter() - t0)
            setup_reference.append(reference_work())
        out = json.loads(_runner(["scan", "--config", config, "--out", work,
                                  "--seconds", str(seconds)], env).stdout.splitlines()[-1])
        scaled_setup = scaled(setup, setup_reference)
        scaled_scan = scaled(out["scan_s"], out["reference_s"])
        reference = setup_reference + out["reference_s"]
        metrics["setup_s"] = statistics.median(scaled_setup)
        metrics["scan_s"] = statistics.median(scaled_scan)
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        lines.append(f"setup_s {metrics['setup_s']:.4f} s (median, scaled; "
                     f"{_spread(scaled_setup)}; wall median "
                     f"{statistics.median(setup):.4f} s)")
        lines.append(f"scan_s {metrics['scan_s']:.4f} s (median, scaled; "
                     f"{_spread(scaled_scan)}; wall median "
                     f"{statistics.median(out['scan_s']):.4f} s, {_spread(out['scan_s'])}; "
                     f"{WORKERS} worker)")
        lines.append(f"reference work {statistics.median(reference):.4f} s "
                     f"(median; {_spread(reference)}; {REFERENCE_S} s on the reported host)")
        lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")

    sys.path.insert(0, src)
    import gate

    first = os.path.join(work, "first")
    files = {"config": config, "scan_csv": os.path.join(first, "scan.csv"),
             "mc_csv": os.path.join(first, "mc_report.csv")}
    with open(files["scan_csv"]) as handle:
        scan_csv = handle.read()
    mc_csv = None
    if os.path.exists(files["mc_csv"]):
        with open(files["mc_csv"]) as handle:
            mc_csv = handle.read()
    reference = None
    if seed == DEFAULT_SEED and not tiny:
        with open(os.path.join(HERE, "reference", f"{workload}.csv")) as handle:
            reference = handle.read()
    attempted, failures = gate.check(config, scan_csv, mc_csv,
                                     out["differing_rows"], reference)
    lines.append(f"failed_frac {len(failures) / attempted:.4f} "
                 f"({len(failures)} of {attempted} rows failed)")
    for number, reasons in sorted(failures.items()):
        lines.append(f"  row {number}: " + "; ".join(reasons))
    lines.append("provenance " + json.dumps(provenance(root, workload, seed)))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value,
                                 "unit": END_TO_END.get(name) or unit(name)}
                          for name, value in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as handle:
        json.dump({"lines": lines, "result": result}, handle, indent=1)
    return lines, result, files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scsqkd", "cli.py")):
        print("error: run from the root of a scsqkd checkout "
              "(src/scsqkd/cli.py not found)", file=sys.stderr)
        return 2
    lines, result, _ = run_workload(root, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
