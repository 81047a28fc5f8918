"""Tests for the phase-flip error-rate bound."""
import math

import pytest

from scsqkd.channel import ChannelParams, ProtocolParams, WindowTally
from scsqkd.phase_error import (DecompositionCoeffs, PhaseErrorInputError,
                                decomposition_coeffs, mean_phase_error_count,
                                phase_error_rate_upper)

# Frozen oracle: residual coefficient for mu_A = mu_B = 0.1 with default c0,
# cross-checked against a photon-number-truncated state expansion.
C2BAR_01_01 = 0.10004167187531003061
C2SQ_01_01 = 0.010008336111607197976

# Golden regression for the full finite-size pipeline (frozen after first
# verified run): 100 km reference channel, N = 1e12, optimized candidate.
GOLDEN_PIPELINE_EPH = 0.15929052920788045


class TestDecompositionCoeffs:
    def test_default_c0_closed_form(self):
        coeffs = decomposition_coeffs(0.1, 0.3)
        assert coeffs.c0 == pytest.approx(math.exp(-0.1), rel=1e-15)
        assert coeffs.c0 * coeffs.c1 == pytest.approx(1.0, rel=1e-15)

    def test_frozen_residual_coefficient(self):
        coeffs = decomposition_coeffs(0.1, 0.1)
        assert coeffs.c2bar == pytest.approx(C2BAR_01_01, rel=1e-12)
        assert coeffs.c2bar ** 2 == pytest.approx(C2SQ_01_01, rel=1e-12)

    def test_residual_vanishes_at_zero_intensity(self):
        coeffs = decomposition_coeffs(0.0, 0.0)
        assert coeffs.c0 == coeffs.c1 == 1.0
        assert coeffs.c2bar == 0.0

    def test_residual_grows_with_intensity(self):
        values = [decomposition_coeffs(mu, mu).c2bar
                  for mu in (0.01, 0.05, 0.1, 0.5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_product_constraint_enforced(self):
        with pytest.raises(PhaseErrorInputError):
            DecompositionCoeffs(c0=0.5, c1=1.0, c2bar=0.0)

    def test_invalid_inputs(self):
        with pytest.raises(PhaseErrorInputError):
            decomposition_coeffs(-0.1, 0.1)


class TestMeanPhaseErrorCount:
    def test_zero_counts_leave_only_residual_term(self):
        coeffs = decomposition_coeffs(0.1, 0.1)
        mean = mean_phase_error_count(0.0, 0.0, 1e6, 0.5, 0.5, coeffs)
        assert mean == pytest.approx(
            0.125 * coeffs.c2bar ** 2 * 1e6, rel=1e-12)

    def test_all_six_terms_assembled(self):
        coeffs = decomposition_coeffs(0.2, 0.2)
        c0, c1, c2 = coeffs.c0, coeffs.c1, coeffs.c2bar
        p0, px, big_n, no, nb = 0.7, 0.3, 1e8, 100.0, 400.0
        expected = (p0 * px / 2.0) * (
            c0 * c0 / p0 ** 2 * no + c1 * c1 / px ** 2 * nb + c2 * c2 * big_n
            + 2 * c0 * c1 / (p0 * px) * math.sqrt(no * nb)
            + 2 * c0 * c2 / p0 * math.sqrt(big_n * no)
            + 2 * c1 * c2 / px * math.sqrt(big_n * nb))
        assert mean_phase_error_count(no, nb, big_n, p0, px, coeffs) == pytest.approx(
            expected, rel=1e-14)

    def test_monotone_in_observed_counts(self):
        coeffs = decomposition_coeffs(0.1, 0.1)
        base = mean_phase_error_count(10.0, 20.0, 1e8, 0.5, 0.5, coeffs)
        assert mean_phase_error_count(20.0, 20.0, 1e8, 0.5, 0.5, coeffs) > base
        assert mean_phase_error_count(10.0, 40.0, 1e8, 0.5, 0.5, coeffs) > base


class TestPhaseErrorRateUpper:
    PROTO = ProtocolParams(p0=0.8, px=0.2, mu_xA=0.01, mu_xB=0.01, N=1e10)

    def test_requires_z_windows(self):
        coeffs = decomposition_coeffs(0.01, 0.01)
        with pytest.raises(PhaseErrorInputError):
            phase_error_rate_upper(WindowTally(1.0, 1.0, 0.0), self.PROTO, coeffs,
                                   xi=1e-10)

    def test_clamped_at_half(self):
        # Huge error-window counts push the raw ratio far past 0.5.
        coeffs = decomposition_coeffs(0.01, 0.01)
        bound = phase_error_rate_upper(WindowTally(1e6, 1e6, 10.0), self.PROTO,
                                       coeffs, xi=1e-10)
        assert bound.e_ph == 0.5

    def test_asymptotic_uses_counts_verbatim(self):
        coeffs = decomposition_coeffs(0.01, 0.01)
        tally = WindowTally(5.0, 50.0, 1e6)
        bound = phase_error_rate_upper(tally, self.PROTO, coeffs, asymptotic=True)
        assert bound.mean_nO_U == tally.n_O
        assert bound.mean_nB_U == tally.n_B
        assert bound.Nph_U == bound.mean_Nph_U

    def test_finite_size_slack_dominates_asymptotic(self):
        coeffs = decomposition_coeffs(0.01, 0.01)
        tally = WindowTally(5.0, 50.0, 1e6)
        asym = phase_error_rate_upper(tally, self.PROTO, coeffs, asymptotic=True)
        finite = phase_error_rate_upper(tally, self.PROTO, coeffs, xi=1e-10)
        assert finite.e_ph > asym.e_ph
        assert finite.mean_nO_U > tally.n_O
        assert finite.mean_nB_U > tally.n_B

    def test_tightens_as_xi_grows(self):
        coeffs = decomposition_coeffs(0.01, 0.01)
        tally = WindowTally(5.0, 50.0, 1e6)
        loose = phase_error_rate_upper(tally, self.PROTO, coeffs, xi=1e-10)
        tight = phase_error_rate_upper(tally, self.PROTO, coeffs, xi=1e-3)
        assert tight.e_ph < loose.e_ph

    def test_log_xi_path_matches_xi_path(self):
        coeffs = decomposition_coeffs(0.01, 0.01)
        tally = WindowTally(5.0, 50.0, 1e6)
        a = phase_error_rate_upper(tally, self.PROTO, coeffs, xi=1e-8)
        b = phase_error_rate_upper(tally, self.PROTO, coeffs,
                                   log_xi=math.log(1e-8))
        assert a.e_ph == b.e_ph

    def test_golden_pipeline_regression(self):
        from scsqkd.pipeline import (SecurityConfig, SourceCalibration,
                                     evaluate_point)
        channel = ChannelParams(100.0, 0.2, 0.3, 1e-9, 0.04)
        px = 0.17601973684210526
        mu = 0.0012176607739663593
        proto = ProtocolParams(p0=1.0 - px, px=px, mu_xA=mu, mu_xB=mu, N=1)
        report = evaluate_point(channel, SourceCalibration(), proto,
                                SecurityConfig(), 1e12)
        assert report.e_ph == pytest.approx(GOLDEN_PIPELINE_EPH, rel=1e-9)

