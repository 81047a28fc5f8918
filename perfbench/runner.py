"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/runner.py setup --config CONFIG
        Import scsqkd and load the config, nothing else; the parent times the
        whole process, from a fresh interpreter to a loaded config.

    python3 perfbench/runner.py scan --config CONFIG --out DIR --seconds S
        Run ``scsqkd scan`` through ``scsqkd.cli.main`` once untimed (the
        warm-up: lazy imports and first-call set-up), then repeatedly for
        about S seconds, timing hostspeed.reference_work before the first
        and after each timed scan.  Prints one JSON line: the wall time of
        each timed scan, the reference times, the peak resident memory of
        this process and its pool children up to the end of the warm-up
        scan, and the CSV rows that differed from the first scan's.

    python3 perfbench/runner.py trace --config CONFIG --out DIR --seconds S
        After the same warm-up, alternate untraced and traced scans (run it
        with SCSQKD_WORKERS=1:
        spans recorded in pool children would be lost).  Prints one JSON
        line with the per-layer metrics and the tracing overhead, and writes
        the spans of the first traced scan to DIR/spans.csv.

scsqkd must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

MIN_SCANS = 3        # per timed loop, also when S is short
MAX_SECONDS = 110.0  # stop early so that a slow program still ends in time


def _setup(config: str) -> None:
    from scsqkd import cli
    cli.load_config(config, cli.build_parser().parse_args(
        ["scan", "--config", config, "--out", os.devnull]))


def _differing_rows(first: bytes, other: bytes) -> set[int]:
    """1-based data-row numbers where two scan.csv files differ."""
    a, b = first.split(b"\n")[1:], other.split(b"\n")[1:]
    if len(a) != len(b):
        return set(range(1, max(len(a), len(b))))
    return {i for i, (x, y) in enumerate(zip(a, b), start=1) if x != y}


class _Scans:
    """Repeated scans of one config; the first scan's output is kept in
    DIR/first, the others overwrite DIR/repeat and are compared with it."""

    def __init__(self, config: str, out: str) -> None:
        from scsqkd import cli
        self._main = cli.main
        self._config = config
        self._out = out
        self._first: bytes | None = None
        self.differing: set[int] = set()

    def run(self, call=None) -> float:
        target = os.path.join(self._out, "first" if self._first is None else "repeat")
        argv = ["scan", "--config", self._config, "--out", target]
        t0 = time.perf_counter()
        code = call(self._main, argv) if call else self._main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"scsqkd scan exited with status {code}")
        with open(os.path.join(target, "scan.csv"), "rb") as handle:
            data = handle.read()
        if self._first is None:
            self._first = data
        else:
            self.differing |= _differing_rows(self._first, data)
        return elapsed


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its pool children, in MB.

    This process's own peak is VmHWM, not ru_maxrss: Linux carries
    ru_maxrss over from the process that spawned this one, and the
    benchmark's parent has done the reference work.
    """
    import resource
    with open("/proc/self/status") as handle:
        own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # both are in KiB


def _scan(config: str, out: str, seconds: float) -> dict:
    from hostspeed import reference_work

    scans = _Scans(config, out)
    scans.run()
    # Peak memory of a fresh interpreter and one scan, before the reference
    # work adds its arrays.
    peak_rss_mb = _peak_rss_mb()
    times: list[float] = []
    reference = [reference_work()]
    start = time.perf_counter()
    while True:
        times.append(scans.run())
        reference.append(reference_work())
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(times) >= MIN_SCANS) or elapsed >= MAX_SECONDS:
            break
    return {"scan_s": times, "reference_s": reference, "peak_rss_mb": peak_rss_mb,
            "differing_rows": sorted(scans.differing)}


def _trace(config: str, out: str, seconds: float) -> dict:
    import statistics

    from tracer import Tracer

    scans = _Scans(config, out)
    scans.run()
    untraced: list[float] = []
    traced: list[float] = []
    per_scan: list[dict] = []
    start = time.perf_counter()
    while True:
        untraced.append(scans.run())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(scans.run(tracer.run))
        finally:
            tracer.uninstall()
        per_scan.append(tracer.metrics())
        if len(per_scan) == 1:
            tracer.write(os.path.join(out, "spans.csv"))
            missing = tracer.missing
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(traced) >= 2) or elapsed >= MAX_SECONDS:
            break
    # Counts repeat exactly between scans; times are taken as medians.
    metrics = {key: float(statistics.median(m[key] for m in per_scan))
               for key in per_scan[0]}
    counts_repeat = all(m[k] == per_scan[0][k] for m in per_scan
                        for k in ("chernoff.solves", "chernoff.fevals_per_solve",
                                  "optimizer.evals_per_optimize",
                                  "mapping.infeasible_ratio", "trace.spans"))
    metrics["trace.scan_s"] = statistics.median(traced)
    metrics["trace.untraced_scan_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.scan_s"] - metrics["trace.untraced_scan_s"]
    return {"metrics": metrics, "missing": missing, "counts_repeat": counts_repeat,
            "traced_scans": len(traced), "differing_rows": sorted(scans.differing)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="runner.py")
    parser.add_argument("mode", choices=("setup", "scan", "trace"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args.config)
        return 0
    run = _scan if args.mode == "scan" else _trace
    print(json.dumps(run(args.config, args.out, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
