"""Tests for the key-rate formulas and security budget."""
import math

import numpy as np
import pytest

from scsqkd.channel import ChannelParams, ProtocolParams, WindowTally
from scsqkd.keyrate import (N_PE, SecurityBudgetError, binary_entropy,
                            coherent_attack_penalty, collective_rate_array,
                            ec_leakage_array, security_budget)
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_point

_LN2 = math.log(2.0)


def _leak(tally: WindowTally, f: float = 1.1) -> float:
    return float(ec_leakage_array(np.array([tally.n_O]), np.array([tally.n_B]),
                                  np.array([tally.n_Z]), f)[0])


def _collective(tally: WindowTally, e_ph: float, sec, N: float) -> float:
    """Signed collective rate of one tally, with leakage at f = 1.1 and d = 8."""
    return float(collective_rate_array(np.array([tally.n_Z]), np.array([e_ph]),
                                       _leak(tally), sec.log_eps_share, 8, N)[0])


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

    def test_monotone_on_lower_half(self):
        values = [binary_entropy(x) for x in (0.01, 0.1, 0.25, 0.4, 0.5)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSecurityBudget:
    def test_log_relation_between_coherent_and_collective(self):
        for n in (1e10, 1e12, 1e14):
            sec = security_budget(1e-10, n, 8)
            recomposed = sec.log_eps_col + 63.0 * math.log1p(n)
            assert recomposed == pytest.approx(math.log(1e-10), rel=1e-12)

    def test_default_split_is_six_equal_shares(self):
        sec = security_budget(1e-10, 1e12, 8)
        share = sec.log_eps_col + math.log(1.0 / 6.0)
        assert sec.log_eps_share == pytest.approx(share, rel=1e-12)

    def test_components_recompose_collective_budget(self):
        for n in (1e10, 1e14):
            sec = security_budget(1e-10, n, 8)
            # eps_cor + eps_bar + eps_PA + N_PE * eps must equal eps_col;
            # compare in the log domain since the values underflow doubles.
            logs = [sec.log_eps_share] * (3 + N_PE)
            peak = max(logs)
            total = peak + math.log(sum(math.exp(v - peak) for v in logs))
            assert total == pytest.approx(sec.log_eps_col, rel=1e-12)

    def test_invalid_target_rejected(self):
        with pytest.raises(SecurityBudgetError):
            security_budget(0.0, 1e10, 8)
        with pytest.raises(SecurityBudgetError):
            security_budget(2.0, 1e10, 8)

    def test_collective_budget_underflows_doubles(self):
        sec = security_budget(1e-10, 1e12, 8)
        assert sec.log_eps_col < -700.0  # exp() would underflow to 0
        assert math.isfinite(sec.log_eps_col)


class TestEcLeakage:
    def test_closed_form(self):
        tally = WindowTally(n_O=1.0, n_B=9.0, n_Z=90.0)
        assert _leak(tally) == pytest.approx(
            1.1 * 100.0 * binary_entropy(0.1), rel=1e-14)

    def test_zero_for_error_free_key(self):
        assert _leak(WindowTally(0.0, 0.0, 1e6)) == 0.0


class TestKeyRates:
    TALLY = WindowTally(n_O=10.0, n_B=100.0, n_Z=1e6)

    def test_collective_rate_assembly(self):
        sec = security_budget(1e-10, 1e12, 8)
        n = 1e12
        rate = _collective(self.TALLY, 0.05, sec, n)
        n_z = self.TALLY.n_Z
        expected = (
            n_z * (1.0 - binary_entropy(0.05))
            - 1.1 * self.TALLY.M_s * binary_entropy(self.TALLY.E_Z)
            - (1.0 - sec.log_eps_share / _LN2)
            - 2.0 * (-sec.log_eps_share / _LN2)
            - 11.0 * math.sqrt(n_z * (1.0 - sec.log_eps_share / _LN2))
        ) / n
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_clamped_vs_signed(self):
        sec = security_budget(1e-10, 1e12, 8)
        assert _collective(WindowTally(10.0, 100.0, 200.0), 0.4, sec, 1e12) < 0.0
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
        sec = security_budget(1e-10, 1e12, 8)
        rates = [_collective(self.TALLY, e, sec, 1e12)
                 for e in (0.01, 0.05, 0.1, 0.3)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_coherent_penalty_reference(self):
        # 2 (d^2 - 1) log2(N + 1) / N at d = 8, N = 1e10.
        assert coherent_attack_penalty(1e10, 8) == pytest.approx(
            4.1856293995762546e-07, rel=1e-12)

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
