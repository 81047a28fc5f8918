"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing criteria as well).
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from scsqkd.channel import ChannelParams, ProtocolParams, expected_tallies
from scsqkd.chernoff import expectation_upper, observed_upper
from scsqkd.cli import main
from scsqkd.keyrate import security_budget
from scsqkd.mapping import virtual_intensity_array
from scsqkd.mc_oracle import simulate
from scsqkd.optimizer import optimize
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_point

REFERENCE_CHANNEL = dict(alpha_f=0.2, eta_d=0.3, p_d=1e-9, e_d=0.04)
CALIB = SourceCalibration(av0=1.0 - 1e-8, bv0=1.0 - 1e-8, fluct=0.1)
SECURITY = SecurityConfig()


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _channel(distance: float) -> ChannelParams:
    return ChannelParams(distance_km=distance, **REFERENCE_CHANNEL)


def test_criterion_1_mapping_equality():
    av0, fluct = 1.0 - 1e-8, 0.1
    worst = 0.0
    for mu in np.geomspace(1e-4, 1.0, 60):
        a0 = math.exp(-(1.0 + fluct) * mu)
        if a0 < 0.5:
            continue
        mu_v = float(virtual_intensity_array(np.array([mu]), av0, fluct)[0][0])
        inner = math.sqrt(a0 * av0) - math.sqrt((1.0 - a0) * (1.0 - av0))
        worst = max(worst, abs(math.exp(-mu_v) - inner * inner) / (inner * inner))
    _report(1, f"mapping condition saturated to rel {worst:.2e} <= 1e-12",
            worst <= 1e-12)


def test_criterion_2_chernoff_residuals_and_coverage():
    def g_plus(d):
        return d - (1.0 + d) * math.log1p(d)

    def g_minus(d):
        return -d - (1.0 - d) * math.log1p(-d)

    worst = 0.0
    for value in (1.0, 10.0, 1e3, 1e6, 1e9):
        for xi in (1e-3, 1e-10):
            lx = math.log(xi)
            b = expectation_upper(value, lx)
            d = 1.0 - value / b
            worst = max(worst, abs(value * g_minus(d) / (1.0 - d) - lx) / -lx)
            b = observed_upper(value, lx)
            d = b / value - 1.0
            worst = max(worst, abs(value * g_plus(d) - lx) / -lx)
    # Empirical coverage: Poisson(1000) draws above observed_upper at xi = 1e-3.
    draws = np.random.default_rng(2024).poisson(1000.0, size=10000)
    violations = float(np.mean(draws > observed_upper(1000.0, math.log(1e-3))))
    ok = worst <= 1e-9 and violations <= 2e-3
    _report(2, f"max log residual {worst:.2e} <= 1e-9, coverage violations "
               f"{violations:.1e} <= 2e-3", ok)


def test_criterion_3_mc_agreement():
    channel = _channel(100.0)

    def worst_z(proto: ProtocolParams) -> float:
        n = int(proto.N)
        expected = expected_tallies(proto, channel)
        worst = 0.0
        for seed in (42, 7, 123):
            observed = simulate(proto, channel, seed)
            for name in ("n_O", "n_B", "n_Z"):
                mean = getattr(expected, name)
                p = mean / n
                sigma = math.sqrt(n * p * (1.0 - p))
                if sigma > 0.0:
                    worst = max(worst, abs(getattr(observed, name) - mean) / sigma)
        return worst

    compensated = worst_z(ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1,
                                         N=10**8))
    # Random-phase B windows are sampled one by one, so they check the
    # baseline phase average independently of its closed form.
    random_phase = worst_z(ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1,
                                          N=10**7, mode="baseline"))
    _report(3, f"simulator tallies within {compensated:.2f} sigma (improved, "
               f"compensated, N=1e8) and {random_phase:.2f} sigma (baseline, "
               f"uniform-random phase, N=1e7) <= 5 over 3 seeds",
            max(compensated, random_phase) <= 5.0)


def test_criterion_4_improved_vs_baseline():
    channel = _channel(100.0)
    best, improved = optimize(channel, CALIB, "asymptotic", SECURITY,
                              mode="improved")
    _, baseline = optimize(channel, CALIB, "asymptotic", SECURITY,
                           mode="baseline")
    # The baseline rate is 0 everywhere, so the rate ratio alone cannot fail.
    # At improved's optimum, baseline heralding must also let through at
    # least 10x the B windows and saturate the phase-error bound.
    same = evaluate_point(channel, CALIB, replace(best, mode="baseline"),
                          SECURITY, "asymptotic")
    ratio = same.n_B / improved.n_B
    ok = (improved.R_coh > 0.0 and improved.R_coh >= 10.0 * baseline.R_coh
          and baseline.R_coh == 0.0 and ratio >= 10.0
          and same.e_ph == 0.5 and improved.e_ph < 0.5)
    _report(4, f"improved rate {improved.R_coh:.3e} >= 10x baseline "
               f"{baseline.R_coh:.3e} at 100 km, where the baseline rate is 0; "
               f"at improved's optimum (px={best.px:.3g}, mu={best.mu_xA:.3g}) "
               f"baseline heralds {ratio:.1f}x the B windows (>= 10x) and its "
               f"e_ph is {same.e_ph:.3g} (improved {improved.e_ph:.3f})", ok)


def test_criterion_5_distance_limits():
    _, near = optimize(_channel(180.0), CALIB, "asymptotic", SECURITY)
    _, far = optimize(_channel(240.0), CALIB, "asymptotic", SECURITY)
    ok = near.R_coh > 0.0 and far.R_coh == 0.0
    _report(5, f"rate {near.R_coh:.3e} > 0 at 180 km and {far.R_coh:.3e} == 0 "
               f"at 240 km", ok)


def test_criterion_6_finite_size_behavior():
    rates_150 = []
    for n in (1e10, 1e11, 1e12, 1e13):
        _, report = optimize(_channel(150.0), CALIB, n, SECURITY)
        rates_150.append(report.R_coh)
    monotone = all(a <= b for a, b in zip(rates_150, rates_150[1:]))

    def rel_gap(distance: float) -> float:
        _, finite = optimize(_channel(distance), CALIB, 1e12, SECURITY)
        _, asym = optimize(_channel(distance), CALIB, "asymptotic", SECURITY)
        return (asym.R_coh - finite.R_coh) / asym.R_coh

    gap_50, gap_150 = rel_gap(50.0), rel_gap(150.0)

    # At 150 km every rate above is 0, so those checks cannot fail on their
    # own.  At 50 and 75 km every tested N gives a positive rate: require
    # strict growth in N, and a finite-size gap that widens with distance at
    # each N.
    blocks = (1e12, 1e13, 1e14)
    rates, gaps = {}, {}
    for distance in (50.0, 75.0):
        _, asym = optimize(_channel(distance), CALIB, "asymptotic", SECURITY)
        rates[distance] = [optimize(_channel(distance), CALIB, n, SECURITY)[1].R_coh
                           for n in blocks]
        gaps[distance] = [(asym.R_coh - r) / asym.R_coh for r in rates[distance]]
    strict = all(0.0 < rs[0] and all(a < b for a, b in zip(rs, rs[1:]))
                 for rs in rates.values())
    widening = all(g50 < g75 for g50, g75 in zip(gaps[50.0], gaps[75.0]))

    def fmt(values) -> str:
        return "/".join(f"{v:.3g}" for v in values)

    ok = monotone and gap_50 < gap_150 and strict and widening
    _report(6, f"150 km rates nondecreasing in N ({fmt(rates_150)}), gap "
               f"{gap_50:.3f} at 50 km < {gap_150:.3f} at 150 km; at N=1e12/"
               f"1e13/1e14 rates increase at 50 km ({fmt(rates[50.0])}) and "
               f"75 km ({fmt(rates[75.0])}), gaps {fmt(gaps[50.0])} at 50 km < "
               f"{fmt(gaps[75.0])} at 75 km", ok)


def test_criterion_7_budget_recomposition():
    worst = 0.0
    for n in (1e10, 1e12, 1e14):
        sec = security_budget(1e-10, n, SECURITY.d)
        recomposed = sec.log_eps_col + 63.0 * math.log1p(n)
        worst = max(worst, abs(recomposed - math.log(1e-10)) / -math.log(1e-10))
    _report(7, f"coherent budget recomposes to rel {worst:.2e} <= 1e-9 in the "
               f"log domain at N=1e10/1e12/1e14", worst <= 1e-9)


def test_criterion_8_scan_determinism(tmp_path):
    config = {
        "channel": REFERENCE_CHANNEL,
        "source": {"av0": 1.0 - 1e-8, "bv0": 1.0 - 1e-8, "fluct": 0.1},
        "security": {"eps_coh": 1e-10, "f": 1.1, "d": 8},
        "search": {"grid": [10, 10], "refine_rounds": 1},
        "scan": {"distance": [0, 100, 50], "blocks": ["1e12", "asymptotic"],
                 "modes": ["improved", "baseline"]},
        "seed": 42,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["scan", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["scan", "--config", str(path), "--out", str(out_b)]) == 0
    same = (out_a / "scan.csv").read_bytes() == (out_b / "scan.csv").read_bytes()
    _report(8, "two identical scans produced byte-identical CSV output", same)
