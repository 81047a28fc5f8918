"""Correctness gate: which rows of a scan's output are wrong.

A row of scan.csv fails when any of these checks fails:

* determinism: every repeated scan of the same config wrote the same bytes
  for the row;
* re-evaluation: the public ``evaluate_point`` at the row's (px, mu)
  reproduces its R_coh, R_col and e_ph to rel 1e-9 (the tolerance of
  ``GOLDEN_PIPELINE_EPH`` in the test suite);
* reference (default seed only): R_coh is within 1 % of the row recorded in
  perfbench/reference/ (the tolerance of
  ``test_matches_exhaustive_fine_grid_within_one_percent``), with the same
  feasible flag;
* Monte Carlo (when the scan has ``mc_validate``): no mc_report.csv count of
  the row lies further in its tail than |z| = 5 would under a normal law.
  The tail is taken from the exact binomial law of the count: at the
  workloads' window counts some expected counts are about 0.01, where one
  event already gives z of about 10 although it is not rare at all.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

REEVAL_RTOL = 1e-9
REFERENCE_RTOL = 0.01
MC_TAIL = math.erfc(5.0 / math.sqrt(2.0))  # P(|Z| > 5), two-sided


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _key(row: dict) -> tuple[str, str, str]:
    return (row["distance_km"], row["N"], row["mode"])


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _load(config_path: str):
    from scsqkd.cli import build_parser, load_config
    return load_config(config_path, build_parser().parse_args(
        ["scan", "--config", config_path, "--out", "unused"]))


def _reevaluate(cfg, row: dict) -> list[str]:
    from scsqkd.channel import ProtocolParams
    from scsqkd.pipeline import ASYMPTOTIC, evaluate_point

    px, mu = float(row["px"]), float(row["mu_x"])
    channel = replace(cfg.channel, distance_km=float(row["distance_km"]))
    protocol = ProtocolParams(p0=1.0 - px, px=px, mu_xA=mu, mu_xB=mu, N=1,
                              mode=row["mode"])
    block = ASYMPTOTIC if row["N"] == ASYMPTOTIC else float(row["N"])
    report = evaluate_point(channel, cfg.calib, protocol, cfg.security, block)
    return [f"re-evaluated {name} {value!r} != {row[name]}"
            for name, value in (("R_coh", report.R_coh), ("R_col", report.R_col),
                                ("e_ph", report.e_ph))
            if not _close(value, float(row[name]), REEVAL_RTOL)]


def _binomial_tail(observed: float, expected: float, n: int) -> float:
    """Two-sided tail probability of an observed Binomial(n, expected/n) count."""
    from scipy.stats import binom

    k = round(observed)
    p = min(max(expected / n, 0.0), 1.0)
    lower = binom.cdf(k, n, p)
    upper = binom.sf(k - 1, n, p)
    return min(1.0, 2.0 * min(lower, upper))


def check(config_path: str, scan_csv: str, mc_csv: str | None,
          differing_rows: list[int], reference_csv: str | None
          ) -> tuple[int, dict[int, list[str]]]:
    """(rows attempted, {1-based row number: reasons it failed})."""
    cfg = _load(config_path)
    rows = _rows(scan_csv)
    failures: dict[int, list[str]] = {}

    def fail(number: int, reason: str) -> None:
        failures.setdefault(number, []).append(reason)

    for number in differing_rows:
        fail(number, "scan.csv differs between two scans of one config")

    for number, row in enumerate(rows, start=1):
        if row["feasible_flag"] == "1":
            for reason in _reevaluate(cfg, row):
                fail(number, reason)

    if reference_csv is not None:
        expected = {_key(r): r for r in _rows(reference_csv)}
        seen = set()
        for number, row in enumerate(rows, start=1):
            ref = expected.get(_key(row))
            seen.add(_key(row))
            if ref is None:
                fail(number, "row not in the reference")
            elif ref["feasible_flag"] != row["feasible_flag"]:
                fail(number, "feasible flag differs from the reference")
            elif not _close(float(row["R_coh"]), float(ref["R_coh"]), REFERENCE_RTOL):
                fail(number, f"R_coh {row['R_coh']} not within 1% of the "
                             f"reference {ref['R_coh']}")
        for _ in set(expected) - seen:
            fail(len(rows) + 1, "reference row missing from scan.csv")

    if cfg.mc_validate:
        numbers = {_key(row): number for number, row in enumerate(rows, start=1)}
        components: dict[tuple, int] = {}
        for line in _rows(mc_csv or ""):
            number = numbers.get(_key(line))
            if number is None:
                fail(len(rows) + 1, "mc_report.csv row matches no scan row")
                continue
            components[_key(line)] = components.get(_key(line), 0) + 1
            tail = _binomial_tail(float(line["observed"]), float(line["expected"]),
                                  cfg.mc_windows)
            if not tail >= MC_TAIL:
                fail(number, f"MC {line['component']} observed {line['observed']} "
                             f"against {line['expected']}: tail {tail:.2e} < |z|=5")
        for number, row in enumerate(rows, start=1):
            if row["feasible_flag"] == "1" and components.get(_key(row)) != 3:
                fail(number, "row lacks its three mc_report.csv components")
    return max([len(rows), *failures]), failures
