"""Tests for the phase-flip error-rate bound."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsqkd import phase_error
from scsqkd.channel import (MODES, ChannelParams, ProtocolParams, WindowTally, arm_transmittance,
                            heralding_arrays)
from scsqkd.phase_error import (asymptotic_phase_error, decomposition_arrays,
                                phase_error_arrays)
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


def _bound(tally: WindowTally, N: float, px: float,
           coeffs: tuple[float, float, float], log_xi: float):
    """(mean_nO_U, mean_nB_U, mean_Nph_U, Nph_U, e_ph) of one tally."""
    values = phase_error_arrays(np.array([tally.n_O]), np.array([tally.n_B]),
                                np.array([tally.n_Z]), N, px, *coeffs, log_xi)
    return tuple(float(v[0]) for v in values)


def _mean_count(n_O: float, n_B: float, N: float, px: float,
                coeffs: tuple[float, float, float]) -> float:
    """Upper bound on the expected phase-error count of the counts as given."""
    return float(phase_error._mean_count(np.array([n_O]), np.array([n_B]), N, px,
                                         *coeffs)[0])


def _asymptotic(tally: WindowTally, N: float, px: float,
                coeffs: tuple[float, float, float]) -> float:
    """Asymptotic e_ph of a tally taken as exact expected counts over N
    windows: :func:`asymptotic_phase_error` of its per-window probabilities."""
    p0 = 1.0 - px
    return float(asymptotic_phase_error(tally.n_O / (N * p0 * p0), tally.n_B / (N * px * px),
                                        tally.n_Z / (N * p0 * px), *coeffs))


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
        mean = _mean_count(0.0, 0.0, 1e6, 0.5, coeffs)
        assert mean == pytest.approx(0.125 * coeffs[2] ** 2 * 1e6, rel=1e-12)

    def test_all_six_terms_assembled(self):
        coeffs = _coeffs(0.2, 0.2)
        c0, c1, c2 = coeffs
        px, big_n, no, nb = 0.3, 1e8, 100.0, 400.0
        p0 = 1.0 - px
        expected = (p0 * px / 2.0) * (
            c0 * c0 / p0 ** 2 * no + c1 * c1 / px ** 2 * nb + c2 * c2 * big_n
            + 2 * c0 * c1 / (p0 * px) * math.sqrt(no * nb)
            + 2 * c0 * c2 / p0 * math.sqrt(big_n * no)
            + 2 * c1 * c2 / px * math.sqrt(big_n * nb))
        assert _mean_count(no, nb, big_n, px, coeffs) == pytest.approx(
            expected, rel=1e-14)

    def test_monotone_in_observed_counts(self):
        coeffs = _coeffs(0.1, 0.1)
        base = _mean_count(10.0, 20.0, 1e8, 0.5, coeffs)
        assert _mean_count(20.0, 20.0, 1e8, 0.5, coeffs) > base
        assert _mean_count(10.0, 40.0, 1e8, 0.5, coeffs) > base


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
       px=st.floats(0.01, 0.99), mu_A=st.floats(1e-4, 1.1), mu_B=st.floats(1e-4, 1.1))
def test_mean_count_against_mpmath(n_O, n_B, N, px, mu_A, mu_B):
    # Every term is nonnegative, so the square form loses nothing to
    # cancellation over the real range of counts and block sizes.  The
    # reference takes the p0 = 1 - px that the bound derives, as a float.
    coeffs = _coeffs(mu_A, mu_B)
    got = _mean_count(n_O, n_B, N, px, coeffs)
    expected = _mp_mean_count(n_O, n_B, N, 1.0 - px, px, *coeffs)
    assert abs(got - expected) <= 2e-15 * expected


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mu_A=_log_uniform(1e-4, 0.63), mu_B=_log_uniform(1e-4, 0.63),
       p_O=_log_uniform(1e-11, 1e-5), p_B=_log_uniform(1e-12, 1.0),
       p_Z=_log_uniform(1e-12, 1.0))
@example(mu_A=0.63, mu_B=0.63, p_O=1e-5, p_B=1.0, p_Z=1e-12)    # far past 1/2
@example(mu_A=1e-4, mu_B=1e-4, p_O=1e-11, p_B=1e-3, p_Z=1e-3)   # just past 1/2
@example(mu_A=1e-4, mu_B=0.63, p_O=1e-11, p_B=1e-12, p_Z=1.0)   # far below it
def test_asymptotic_phase_error_against_mpmath(mu_A, mu_B, p_O, p_B, p_Z):
    # The closed form min((c0 sqrt(p_O) + c1 sqrt(p_B) + c2)^2 / (2 p_Z), 1/2)
    # at 50 digits on the same float inputs.  The coefficients are inputs
    # here, passed to both sides as given.  Every term is nonnegative, so
    # nothing cancels.
    c0, c1, c2 = _coeffs(mu_A, mu_B)
    got = float(asymptotic_phase_error(np.array([p_O]), np.array([p_B]), np.array([p_Z]),
                                       c0, c1, c2)[0])
    with mpmath.workdps(50):
        root = (mpmath.mpf(c0) * mpmath.sqrt(p_O) + mpmath.mpf(c1) * mpmath.sqrt(p_B)
                + mpmath.mpf(c2))
        expected = min(root ** 2 / (2 * mpmath.mpf(p_Z)), mpmath.mpf(0.5))
    assert abs(got - expected) <= 1e-14 * expected
    assert got <= 0.5


@pytest.mark.parametrize("mode", MODES)
def test_asymptotic_pass_takes_e_ph_from_the_closed_form(mode):
    # On an asymptotic (point, px, mu) pass, e_ph is asymptotic_phase_error
    # of the pass's heralding probabilities and coefficients, bit for bit.
    channel = ChannelParams(0.0, 0.2, 0.3, 1e-9, 0.04)
    eta = np.array([arm_transmittance(replace(channel, distance_km=d))
                    for d in (0.0, 100.0, 300.0)])[:, None, None]
    px = np.broadcast_to(np.linspace(0.01, 0.99, 6)[None, :, None], (3, 6, 1))
    mu = np.geomspace(1e-4, 1.0, 8)[None, None, :]
    batch = evaluate_points(channel, SourceCalibration(), px, mu, mu, eta,
                            SecurityConfig(), ("asymptotic",), baseline=mode == "baseline")
    probs = heralding_arrays(mu, mu, eta, channel.e_d, channel.p_d, mode == "baseline")
    mu_v = batch.mu_virtual_A
    want = asymptotic_phase_error(*probs, *decomposition_arrays(mu_v, mu_v))
    assert batch.feasible.any() and (probs[2] > 0.0).all()
    assert batch.e_ph.shape == want.shape and batch.e_ph.tobytes() == want.tobytes()


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
    batch = evaluate_points(channel, SourceCalibration(), px, mu, mu, eta,
                            SecurityConfig(), ("asymptotic",), baseline=mode == "baseline")
    assert batch.feasible.any()
    assert ((batch.e_ph == batch.e_ph[:, :1]) | ~batch.feasible).all()


class TestPhaseErrorRateUpper:
    N, PX = 1e10, 0.2
    COEFFS = _coeffs(0.01, 0.01)
    TALLY = WindowTally(5.0, 50.0, 1e6)

    def _bound_of(self, tally: WindowTally, log_xi: float):
        return _bound(tally, self.N, self.PX, self.COEFFS, log_xi)

    def test_clamped_at_half(self):
        # Huge error-window counts push the raw ratio far past 0.5.
        e_ph = self._bound_of(WindowTally(1e6, 1e6, 10.0), math.log(1e-10))[-1]
        assert e_ph == 0.5

    def test_asymptotic_uses_counts_verbatim(self):
        # With no Chernoff slack the asymptotic e_ph is the mean count of the
        # exact counts over n_Z, N p0 px cancelling.  At N = 4 and px = 1/2
        # the counts are the probabilities and every scaling is exact, so the
        # bits agree.
        p_O, p_B, p_Z = self.TALLY.n_O, self.TALLY.n_B, self.TALLY.n_Z
        mean = _mean_count(p_O, p_B, 4.0, 0.5, self.COEFFS)
        assert _asymptotic(self.TALLY, 4.0, 0.5, self.COEFFS) == mean / p_Z < 0.5

    def test_finite_size_slack_dominates_asymptotic(self):
        asym = _asymptotic(self.TALLY, self.N, self.PX, self.COEFFS)
        finite = self._bound_of(self.TALLY, math.log(1e-10))
        assert finite[-1] > asym
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
    # Each element's bound is that of its own one-element call.  Where
    # log_xi's last axis has length 1 (or log_xi is 0-d), as a search pass
    # gives it, the n_O and n_B bounds take log_xi as it is, with no copy at
    # the counts' size; any other log_xi is rejected before any solve.
    rng = np.random.default_rng(len(n_shape))
    n_O, n_B = rng.uniform(0.0, 100.0, n_shape), rng.uniform(0.0, 1000.0, n_shape)
    log_xi = -rng.uniform(10.0, 50.0, lx_shape)
    coeffs = _coeffs(0.01, 0.01)
    seen = []
    real = phase_error.expectation_upper
    monkeypatch.setattr(phase_error, "expectation_upper",
                        lambda counts, lx: seen.append(np.shape(lx)) or real(counts, lx))
    if lx_shape[-1:] not in ((), (1,)):
        with pytest.raises(ValueError, match="pass layout"):
            phase_error_arrays(n_O, n_B, 1e6, 1e10, 0.2, *coeffs, log_xi)
        assert seen == []
        return
    out = phase_error_arrays(n_O, n_B, 1e6, 1e10, 0.2, *coeffs, log_xi)
    assert seen == [lx_shape]
    shape = np.broadcast_shapes(n_shape, lx_shape)
    for idx in np.ndindex(shape):
        one = phase_error_arrays(*(np.broadcast_to(x, shape)[idx][None] for x in (n_O, n_B)),
                                 1e6, 1e10, 0.2, *coeffs,
                                 np.broadcast_to(log_xi, shape)[idx][None])
        assert [np.broadcast_to(x, shape)[idx] for x in out] == [v[0] for v in one]


@pytest.mark.parametrize("o_shape, b_shape", [((), ()), ((3, 1), (2, 4)), ((4,), (1, 4))],
                         ids=["0-d", "leading-axes-differ", "ndim-differs"])
def test_counts_outside_the_pass_layout_are_rejected(o_shape, b_shape):
    # The flat join of other layouts is gone: they raise, never join another way.
    coeffs = _coeffs(0.01, 0.01)
    with pytest.raises(ValueError, match="pass layout"):
        phase_error_arrays(np.ones(o_shape), np.ones(b_shape), 1e6, 1e10, 0.2, *coeffs,
                           -20.0)
