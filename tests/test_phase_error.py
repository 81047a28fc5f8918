"""Tests for the phase-flip error-rate bound."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd import phase_error
from scsqkd.channel import ChannelParams, ProtocolParams, WindowTally, arm_transmittance
from scsqkd.phase_error import decomposition_arrays, phase_error_arrays
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_points

# Frozen oracle: residual coefficient for mu_A = mu_B = 0.1 with default c0,
# cross-checked against a photon-number-truncated state expansion.
C2BAR_01_01 = 0.10004167187531003061
C2SQ_01_01 = 0.010008336111607197976

# Golden regression for the full finite-size pipeline (frozen after first
# verified run): 100 km reference channel, N = 1e12, optimized candidate.
GOLDEN_PIPELINE_EPH = 0.15929052920788045


def _coeffs(mu_A: float, mu_B: float) -> tuple[float, float, float]:
    """(c0, c1, c2bar) of one pair of virtual intensities."""
    return tuple(float(v[0]) for v in
                 decomposition_arrays(np.array([mu_A]), np.array([mu_B])))


def _bound(tally: WindowTally, N: float, p0: float, px: float,
           coeffs: tuple[float, float, float], log_xi: float | None):
    """(mean_nO_U, mean_nB_U, mean_Nph_U, Nph_U, e_ph) of one tally."""
    values = phase_error_arrays(np.array([tally.n_O]), np.array([tally.n_B]),
                                np.array([tally.n_Z]), N, p0, px, *coeffs, log_xi)
    return tuple(float(v[0]) for v in values)


def _mean_count(n_O: float, n_B: float, N: float, p0: float, px: float,
                coeffs: tuple[float, float, float]) -> float:
    """Upper bound on the expected phase-error count (the asymptotic path)."""
    return _bound(WindowTally(n_O, n_B, 1.0), N, p0, px, coeffs, None)[2]


class TestDecompositionCoeffs:
    def test_default_c0_closed_form(self):
        c0, c1, _ = _coeffs(0.1, 0.3)
        assert c0 == pytest.approx(math.exp(-0.1), rel=1e-15)
        assert c0 * c1 == pytest.approx(1.0, rel=1e-15)

    def test_frozen_residual_coefficient(self):
        c2bar = _coeffs(0.1, 0.1)[2]
        assert c2bar == pytest.approx(C2BAR_01_01, rel=1e-12)
        assert c2bar ** 2 == pytest.approx(C2SQ_01_01, rel=1e-12)

    def test_residual_vanishes_at_zero_intensity(self):
        c0, c1, c2bar = _coeffs(0.0, 0.0)
        assert c0 == c1 == 1.0
        assert c2bar == 0.0

    def test_residual_grows_with_intensity(self):
        values = [_coeffs(mu, mu)[2] for mu in (0.01, 0.05, 0.1, 0.5)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMeanPhaseErrorCount:
    def test_zero_counts_leave_only_residual_term(self):
        coeffs = _coeffs(0.1, 0.1)
        mean = _mean_count(0.0, 0.0, 1e6, 0.5, 0.5, coeffs)
        assert mean == pytest.approx(0.125 * coeffs[2] ** 2 * 1e6, rel=1e-12)

    def test_all_six_terms_assembled(self):
        coeffs = _coeffs(0.2, 0.2)
        c0, c1, c2 = coeffs
        p0, px, big_n, no, nb = 0.7, 0.3, 1e8, 100.0, 400.0
        expected = (p0 * px / 2.0) * (
            c0 * c0 / p0 ** 2 * no + c1 * c1 / px ** 2 * nb + c2 * c2 * big_n
            + 2 * c0 * c1 / (p0 * px) * math.sqrt(no * nb)
            + 2 * c0 * c2 / p0 * math.sqrt(big_n * no)
            + 2 * c1 * c2 / px * math.sqrt(big_n * nb))
        assert _mean_count(no, nb, big_n, p0, px, coeffs) == pytest.approx(
            expected, rel=1e-14)

    def test_monotone_in_observed_counts(self):
        coeffs = _coeffs(0.1, 0.1)
        base = _mean_count(10.0, 20.0, 1e8, 0.5, 0.5, coeffs)
        assert _mean_count(20.0, 20.0, 1e8, 0.5, 0.5, coeffs) > base
        assert _mean_count(10.0, 40.0, 1e8, 0.5, 0.5, coeffs) > base


def _mp_mean_count(n_O, n_B, N, p0, px, c0, c1, c2):
    """50-digit six-term mean phase-error count of the inputs as given."""
    with mpmath.workdps(50):
        n_O, n_B, N, p0, px, c0, c1, c2 = (
            mpmath.mpf(v) for v in (n_O, n_B, N, p0, px, c0, c1, c2))
        return (p0 * px / 2) * (
            c0 ** 2 / p0 ** 2 * n_O + c1 ** 2 / px ** 2 * n_B + c2 ** 2 * N
            + 2 * c0 * c1 / (p0 * px) * mpmath.sqrt(n_O * n_B)
            + 2 * c0 * c2 / p0 * mpmath.sqrt(N * n_O)
            + 2 * c1 * c2 / px * mpmath.sqrt(N * n_B))


_COUNTS = st.one_of(st.just(0.0), st.floats(0.0, 1e15),
                    st.floats(-3.0, 15.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_O=_COUNTS, n_B=_COUNTS, N=st.floats(0.0, 15.0).map(lambda e: 10.0 ** e),
       p0=st.floats(0.01, 0.99), px=st.floats(0.01, 0.99),
       mu_A=st.floats(1e-4, 1.1), mu_B=st.floats(1e-4, 1.1))
def test_mean_count_against_mpmath(n_O, n_B, N, p0, px, mu_A, mu_B):
    # Every term is nonnegative, so the square form loses nothing to
    # cancellation over the real range of counts and block sizes.
    coeffs = _coeffs(mu_A, mu_B)
    got = _mean_count(n_O, n_B, N, p0, px, coeffs)
    expected = _mp_mean_count(n_O, n_B, N, p0, px, *coeffs)
    assert abs(got - expected) <= 2e-15 * expected


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(distances=st.lists(st.floats(0.0, 400.0), min_size=6, max_size=6),
       p_d=st.sampled_from([0.0, 1e-9, 1e-6]), e_d=st.floats(0.0, 0.1),
       mode=st.sampled_from(["improved", "baseline"]))
def test_asymptotic_e_ph_is_constant_along_px(distances, p_d, e_d, mode):
    # N p0 px cancels from the asymptotic e_ph, so every px of a
    # (point, mu) column gives the same bits.
    channel = ChannelParams(0.0, 0.2, 0.3, p_d, e_d)
    eta = np.array([arm_transmittance(replace(channel, distance_km=d))
                    for d in distances])[:, None, None]
    px = np.linspace(0.01, 0.99, 20)[None, :, None]
    mu = np.geomspace(1e-4, 1.0, 20)[None, None, :]
    batch = evaluate_points(channel, SourceCalibration(), 1.0 - px, px, mu, mu, eta,
                            SecurityConfig(), ("asymptotic",), baseline=mode == "baseline")
    assert batch.feasible.any()
    assert ((batch.e_ph == batch.e_ph[:, :1]) | ~batch.feasible).all()


class TestPhaseErrorRateUpper:
    N, P0, PX = 1e10, 0.8, 0.2
    COEFFS = _coeffs(0.01, 0.01)
    TALLY = WindowTally(5.0, 50.0, 1e6)

    def _bound_of(self, tally: WindowTally, log_xi: float | None):
        return _bound(tally, self.N, self.P0, self.PX, self.COEFFS, log_xi)

    def test_clamped_at_half(self):
        # Huge error-window counts push the raw ratio far past 0.5.
        e_ph = self._bound_of(WindowTally(1e6, 1e6, 10.0), math.log(1e-10))[-1]
        assert e_ph == 0.5

    def test_asymptotic_uses_counts_verbatim(self):
        nO_U, nB_U, mean_nph, nph, _ = self._bound_of(self.TALLY, None)
        assert nO_U == self.TALLY.n_O
        assert nB_U == self.TALLY.n_B
        assert nph == mean_nph

    def test_finite_size_slack_dominates_asymptotic(self):
        asym = self._bound_of(self.TALLY, None)
        finite = self._bound_of(self.TALLY, math.log(1e-10))
        assert finite[-1] > asym[-1]
        assert finite[0] > self.TALLY.n_O
        assert finite[1] > self.TALLY.n_B

    def test_tightens_as_xi_grows(self):
        loose = self._bound_of(self.TALLY, math.log(1e-10))[-1]
        tight = self._bound_of(self.TALLY, math.log(1e-3))[-1]
        assert tight < loose

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


@pytest.mark.parametrize("n_shape, lx_shape", [((4,), ()), ((3, 4), (3, 1)),
                                               ((2, 3, 4), (2, 1, 1)), ((3, 1), (1, 2))])
def test_finite_bound_is_elementwise_and_takes_log_xi_as_it_is(n_shape, lx_shape,
                                                               monkeypatch):
    # Each element's bound is that of its own 0-d inputs.  Where log_xi's
    # last axis has length 1, as a search pass gives it, the n_O and n_B
    # bounds take log_xi as it is, with no copy at the counts' size.
    rng = np.random.default_rng(len(n_shape))
    n_O, n_B = rng.uniform(0.0, 100.0, n_shape), rng.uniform(0.0, 1000.0, n_shape)
    log_xi = -rng.uniform(10.0, 50.0, lx_shape)
    coeffs = _coeffs(0.01, 0.01)
    seen = []
    real = phase_error.expectation_upper
    monkeypatch.setattr(phase_error, "expectation_upper",
                        lambda counts, lx: seen.append(np.shape(lx)) or real(counts, lx))
    out = phase_error_arrays(n_O, n_B, 1e6, 1e10, 0.8, 0.2, *coeffs, log_xi)
    if lx_shape[-1:] in ((), (1,)):
        assert seen == [lx_shape]
    shape = np.broadcast_shapes(n_shape, lx_shape)
    for idx in np.ndindex(shape):
        one = phase_error_arrays(*(np.broadcast_to(x, shape)[idx] for x in (n_O, n_B)),
                                 1e6, 1e10, 0.8, 0.2, *coeffs,
                                 np.broadcast_to(log_xi, shape)[idx])
        assert [np.broadcast_to(x, shape)[idx] for x in out] == list(one)
