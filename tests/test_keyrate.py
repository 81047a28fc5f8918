"""Tests for the key-rate formulas and security budget."""
import math

import mpmath
import numpy as np
import pytest

from scsqkd.channel import ChannelParams, ProtocolParams, WindowTally
from scsqkd.keyrate import (N_PE, binary_entropy,
                            coherent_attack_penalty, collective_rate_array,
                            ec_leakage_array, security_budget)
from scsqkd.pipeline import (MAX_BLOCK, MAX_D, SecurityConfig, SourceCalibration,
                             evaluate_point)

_LN2 = math.log(2.0)


def _leak(tally: WindowTally, f: float = 1.1) -> float:
    return float(ec_leakage_array(np.array([tally.n_O]), np.array([tally.n_B]),
                                  np.array([tally.n_Z]), f)[0])


def _collective(tally: WindowTally, e_ph: float, share: float, N: float) -> float:
    """Signed collective rate of one tally, with leakage at f = 1.1 and d = 8."""
    return float(collective_rate_array(np.array([tally.n_Z]), np.array([e_ph]),
                                       _leak(tally), share, 8, N)[0])


def _log_eps_col(share: float) -> float:
    """ln eps_col, rebuilt from its equal log share."""
    return share + math.log(3.0 + N_PE)


def _bits(values) -> list[int]:
    """The float64 bit patterns of ``values``: NaN equals NaN, 0.0 not -0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _report(distance_km: float, eta_d: float, p_d: float, block_size):
    channel = ChannelParams(distance_km, 0.2, eta_d, p_d, 0.04)
    proto = ProtocolParams(p0=0.8, px=0.2, mu_xA=0.01, mu_xB=0.01, N=1)
    return evaluate_point(channel, SourceCalibration(), proto, SecurityConfig(),
                          block_size)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        # Independently computed with 60-digit arithmetic.
        assert binary_entropy(0.11) == pytest.approx(0.4999159582, abs=1e-10)

    def test_symmetry(self):
        for x in (0.03, 0.2, 0.41):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x),
                                                      rel=1e-14)

    # Ordinary elements mixed with 0, 1 and NaN: the 0/1 fix must run
    # wherever an element needs it, also beside a NaN.
    @pytest.mark.parametrize("x", [[0.3, 0.0, 0.7], [0.3, 1.0], [np.nan, 0.0, 0.2],
                                   [0.6, np.nan, 1.0], [0.4, np.nan], [0.4, 0.9]])
    def test_mixed_array_matches_one_element_calls(self, x):
        h = binary_entropy(np.array(x))
        assert _bits(h) == [_bits(binary_entropy(np.array([v])))[0] for v in x]
        assert _bits(h[np.isin(x, (0.0, 1.0))]) == _bits([0.0] * np.isin(x, (0.0, 1.0)).sum())

    def test_monotone_on_lower_half(self):
        values = [binary_entropy(x) for x in (0.01, 0.1, 0.25, 0.4, 0.5)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSecurityBudget:
    def test_log_relation_between_coherent_and_collective(self):
        for n in (1e10, 1e12, 1e14):
            recomposed = _log_eps_col(security_budget(1e-10, n, 8)) + 63.0 * math.log1p(n)
            assert recomposed == pytest.approx(math.log(1e-10), rel=1e-12)

    def test_share_against_mpmath(self):
        # ln eps - (d^2 - 1) ln(1 + N) - ln(3 + N_PE) to 50 digits, from
        # N = 0 to the largest block size: about -2200 nats at N = 1e15,
        # d = 8, and -4.6e102 at MAX_BLOCK with d = MAX_D.
        for eps in (1e-10, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)):
            for d in (2, 8, MAX_D):
                for n in (0.0, 1.0, 1e10, 1e15, MAX_BLOCK):
                    with mpmath.workdps(50):
                        ref = (mpmath.log(eps) - (d * d - 1) * mpmath.log(1 + mpmath.mpf(n))
                               - mpmath.log(3 + N_PE))
                    assert security_budget(eps, n, d) == pytest.approx(
                        float(ref), rel=1e-12), (eps, d, n)

    def test_default_split_is_six_equal_shares(self):
        share = math.log(1e-10) - 63.0 * math.log1p(1e12) + math.log(1.0 / 6.0)
        assert security_budget(1e-10, 1e12, 8) == pytest.approx(share, rel=1e-12)

    def test_components_recompose_collective_budget(self):
        for n in (1e10, 1e14):
            # eps_cor + eps_bar + eps_PA + N_PE * eps must equal eps_col;
            # compare in the log domain since the values underflow doubles.
            logs = [security_budget(1e-10, n, 8)] * (3 + N_PE)
            peak = max(logs)
            total = peak + math.log(sum(math.exp(v - peak) for v in logs))
            log_eps_col = math.log(1e-10) - 63.0 * math.log1p(n)
            assert total == pytest.approx(log_eps_col, rel=1e-12)

    @pytest.mark.parametrize("eps", [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)])
    def test_target_next_to_the_edges_accepted(self, eps):
        assert math.isfinite(security_budget(eps, 1e10, 8))

    def test_block_size_edge_accepted(self):
        assert math.isfinite(security_budget(1e-10, 0.0, 8))

    def test_collective_budget_underflows_doubles(self):
        log_eps_col = _log_eps_col(security_budget(1e-10, 1e12, 8))
        assert log_eps_col < -700.0  # exp() would underflow to 0
        assert math.isfinite(log_eps_col)


class TestEcLeakage:
    def test_closed_form(self):
        tally = WindowTally(n_O=1.0, n_B=9.0, n_Z=90.0)
        assert _leak(tally) == pytest.approx(
            1.1 * 100.0 * binary_entropy(0.1), rel=1e-14)

    def test_zero_for_error_free_key(self):
        assert _leak(WindowTally(0.0, 0.0, 1e6)) == 0.0

    # Ordinary tallies mixed with an empty one, n_Z = 0 and NaN: the
    # empty-tally guard must run wherever a total is 0, also beside a NaN.
    @pytest.mark.parametrize("tallies", [
        [(1.0, 9.0, 90.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e6)],
        [(np.nan, 1.0, 5.0), (0.0, 0.0, 0.0), (2.0, 3.0, 0.0)],
        [(0.0, 0.0, 0.0), (1.0, 2.0, np.nan)],
        [(1.0, 2.0, 0.0), (5.0, 0.0, 7.0)]])
    def test_mixed_array_matches_one_element_calls(self, tallies):
        n_O, n_B, n_Z = np.array(tallies).T
        leak = ec_leakage_array(n_O, n_B, n_Z, 1.1)
        assert _bits(leak) == [_bits(ec_leakage_array(*np.array([t]).T, 1.1))[0]
                               for t in tallies]
        empty = n_O + n_B + n_Z == 0.0
        assert _bits(leak[empty]) == _bits([0.0] * empty.sum())


class TestKeyRates:
    TALLY = WindowTally(n_O=10.0, n_B=100.0, n_Z=1e6)

    def test_collective_rate_assembly(self):
        # The second tally has few Z counts at a small block, so the
        # finite-size terms decide its rate.
        for tally, n in ((self.TALLY, 1e12),
                         (WindowTally(n_O=1.0, n_B=10.0, n_Z=1e4), 1e10)):
            share = security_budget(1e-10, n, 8)
            rate = _collective(tally, 0.05, share, n)
            n_z = tally.n_Z
            expected = (
                n_z * (1.0 - binary_entropy(0.05))
                - 1.1 * (tally.n_O + tally.n_B + tally.n_Z)
                * binary_entropy(tally.E_Z)
                - (1.0 - share / _LN2)
                - 2.0 * (-share / _LN2)
                - 11.0 * math.sqrt(n_z * (1.0 - share / _LN2))
            ) / n
            # Rates per window lie far below approx's default abs of 1e-12.
            assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_clamped_vs_signed(self):
        share = security_budget(1e-10, 1e12, 8)
        assert _collective(WindowTally(10.0, 100.0, 200.0), 0.4, share, 1e12) < 0.0
        # A report clamps the rates at 0 and keeps the signed values.
        report = _report(150.0, 0.3, 1e-9, 1e10)
        assert report.R_col == report.R_coh == 0.0
        assert report.R_col_signed < 0.0 and report.R_coh_signed < 0.0

    def test_empty_z_register(self):
        # No detector efficiency and no dark counts: no window heralds.
        for block in (1e12, "asymptotic"):
            report = _report(50.0, 0.0, 0.0, block)
            assert report.n_Z == 0.0 and report.e_ph == 0.5
            assert report.R_col == report.R_coh == 0.0
            assert report.R_col_signed == report.R_coh_signed == -math.inf

    def test_rate_decreases_with_phase_error(self):
        share = security_budget(1e-10, 1e12, 8)
        rates = [_collective(self.TALLY, e, share, 1e12)
                 for e in (0.01, 0.05, 0.1, 0.3)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_coherent_penalty_reference(self):
        # 2 (d^2 - 1) log2(N + 1) / N at d = 8, N = 1e10, and exactly 126 at
        # N = 1, the smallest block, where log2(N + 1) is 1.
        assert coherent_attack_penalty(1e10, 8) == pytest.approx(
            4.1856293995762546e-07, rel=1e-12)
        assert coherent_attack_penalty(1.0, 8) == 126.0

    def test_coherent_below_collective(self):
        assert 1e-3 - coherent_attack_penalty(1e10, 8) < 1e-3
        assert 1e-3 - coherent_attack_penalty(1e10, 8) == pytest.approx(
            1e-3 - 4.1856293995762546e-07, rel=1e-12)
        # The rate is signed: a penalty above the collective rate leaves it
        # negative.
        assert 1e-9 - coherent_attack_penalty(1e8, 8) < 0.0

    def test_coherent_penalty_vanishes_with_n(self):
        penalties = [coherent_attack_penalty(n, 8) for n in (1e8, 1e10, 1e12, 1e14)]
        assert all(a > b for a, b in zip(penalties, penalties[1:]))
