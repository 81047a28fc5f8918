"""Tests for the Monte Carlo event simulator and coverage checks."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from scsqkd.channel import (MODES, ChannelParams, ProtocolParams, arm_transmittance,
                            click_prob, detector_means, expected_tallies)
from scsqkd.mc_oracle import (_CHUNK, CoverageResult, SimConfigError,
                              coverage_test, require_windows, simulate)

CHANNEL = ChannelParams(100.0, 0.2, 0.3, 1e-9, 0.04)
PROTO = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=10**6)


def _z_scores(observed, expected, n):
    out = {}
    for name in ("n_O", "n_B", "n_Z"):
        exp_val = getattr(expected, name)
        p = exp_val / n
        sigma = math.sqrt(n * p * (1.0 - p))
        obs = getattr(observed, name)
        out[name] = (obs - exp_val) / sigma if sigma > 0 else obs - exp_val
    return out


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(SimConfigError):
            require_windows(0)
        # The multinomial draw takes a whole count below 2**63; 1.5 used to
        # be truncated to one window.
        for n in (1.5, 2**63):
            with pytest.raises(SimConfigError, match="window count"):
                simulate(replace(PROTO, N=n), CHANNEL, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, seed):
        # The Philox key is unsigned 64-bit; such a seed used to surface as
        # an OverflowError inside simulate.
        with pytest.raises(SimConfigError, match="seed"):
            simulate(replace(PROTO, N=10), CHANNEL, seed)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        assert simulate(PROTO, CHANNEL, 42) == simulate(PROTO, CHANNEL, 42)

    def test_seed_changes_output(self):
        assert simulate(PROTO, CHANNEL, 1) != simulate(PROTO, CHANNEL, 2)

    def test_chunk_boundary_is_seamless(self):
        # Only random-phase B windows are sampled one by one, in chunks; at
        # px = 0.99 this N gives ~5% more B windows than one chunk holds.
        px = 0.99
        n = int(1.05 * _CHUNK / px**2)
        proto = ProtocolParams(p0=1.0 - px, px=px, mu_xA=0.1, mu_xB=0.1, N=n,
                               mode="baseline")
        tally = simulate(proto, CHANNEL, 7)
        assert tally == simulate(proto, CHANNEL, 7)
        assert tally.n_B > 0

    def test_counts_match_expectation_within_five_sigma(self):
        expected = expected_tallies(PROTO, CHANNEL)
        observed = simulate(PROTO, CHANNEL, 42)
        for name, z in _z_scores(observed, expected, 10**6).items():
            assert abs(z) <= 5.0, (name, z)

    def test_uniform_phase_matches_baseline_expectation(self):
        proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1,
                               N=10**6, mode="baseline")
        expected = expected_tallies(proto, CHANNEL)
        observed = simulate(proto, CHANNEL, 11)
        for name, z in _z_scores(observed, expected, 10**6).items():
            assert abs(z) <= 5.0, (name, z)

    def test_dead_channel_yields_empty_tally(self):
        chan = ChannelParams(100.0, 0.2, 0.0, 0.0, 0.04)
        tally = simulate(replace(PROTO, N=10**5), chan, 3)
        assert tally.M_s == 0

    def test_perfect_interference_suppresses_b_windows(self):
        # No darks, no misalignment, compensated phase: the heralding
        # detector never fires in B windows (and O windows stay silent).
        chan = ChannelParams(10.0, 0.2, 0.3, 0.0, 0.0)
        proto = ProtocolParams(p0=0.01, px=0.99, mu_xA=0.2, mu_xB=0.2, N=10**5)
        tally = simulate(proto, chan, 5)
        assert tally.n_B == 0
        assert tally.n_O == 0

    def test_raw_key_error_rate_identity(self):
        tally = simulate(PROTO, CHANNEL, 42)
        assert tally.E_Z == (tally.n_O + tally.n_B) / tally.M_s


def _per_window_tallies(proto, chan, runs, rng):
    """Reference sampler drawing every window: two source choices, a phase
    (compensated in improved mode, uniform in baseline mode) and two
    Bernoulli clicks.  (n_O, n_B, n_Z) arrays over ``runs`` runs."""
    shape = (runs, int(proto.N))
    alice = rng.random(shape) >= proto.p0
    bob = rng.random(shape) >= proto.p0
    cos_delta = (np.cos(rng.random(shape) * (2.0 * np.pi))
                 if proto.mode == "baseline" else 1.0)
    # With one intensity 0 the B-window means are those of a Z or O window.
    nu_l, nu_r = detector_means("B", np.where(alice, proto.mu_xA, 0.0),
                                np.where(bob, proto.mu_xB, 0.0),
                                arm_transmittance(chan), chan.e_d, cos_delta=cos_delta)
    click_l = rng.random(shape) < click_prob(nu_l, chan.p_d)
    click_r = rng.random(shape) < click_prob(nu_r, chan.p_d)
    effective = click_r & ~click_l
    if proto.mode == "baseline":
        effective = np.where(alice & bob, click_l ^ click_r, effective)
    return tuple(np.count_nonzero(effective & kind, axis=1)
                 for kind in (~(alice | bob), alice & bob, alice ^ bob))


def _moment_z_scores(a, b):
    """z-scores of the differences of two samples' means and variances."""
    moments = []
    for x in (a, b):
        dev = np.asarray(x, dtype=float) - np.mean(x)
        var = dev.var(ddof=1)
        # n times the sampling variance of the variance: m4 - var^2.
        moments.append((np.mean(x), var, np.mean(dev**4) - var * var))
    (mean_a, var_a, vv_a), (mean_b, var_b, vv_b) = moments
    n = len(a)
    return ((mean_a - mean_b) / math.sqrt((var_a + var_b) / n),
            (var_a - var_b) / math.sqrt((vv_a + vv_b) / n))


@pytest.mark.parametrize("mode", [
    pytest.param("improved", id="improved-compensated"),
    pytest.param("baseline", id="baseline-uniform-random")])
def test_distribution_matches_per_window_sampling(mode):
    # A high-click point (detector efficiency 1, p_d = 1e-2, 5 km, mu = 1):
    # baseline heralds most B windows here, so the multinomial spread of the
    # window-kind counts is a large part of the variance of n_B.
    chan = ChannelParams(5.0, 0.2, 1.0, 1e-2, 0.04)
    proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=1.0, mu_xB=1.0, N=1000, mode=mode)
    runs = 1000
    reference = _per_window_tallies(proto, chan, runs, np.random.default_rng(2024))
    sims = [simulate(proto, chan, seed) for seed in range(runs)]
    for name, ref in zip(("n_O", "n_B", "n_Z"), reference):
        assert ref.min() < ref.max()
        z_mean, z_var = _moment_z_scores([getattr(t, name) for t in sims], ref)
        assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (name, z_mean, z_var)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


# Two-sided tail probability of |z| > 5 under a normal law.
_FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


def _binomial_tail(observed: int, expected: float, n: int) -> float:
    """Two-sided tail probability of an observed Binomial(n, expected/n) count."""
    p = expected / n
    return min(1.0, 2.0 * min(binom.cdf(observed, n, p), binom.sf(observed - 1, n, p)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(distance=st.floats(0.0, 200.0), px=st.floats(0.05, 0.95),
       mu_A=_log_uniform(1e-3, 1.0), mu_B=_log_uniform(1e-3, 1.0),
       e_d=st.floats(0.0, 0.1), p_d=_log_uniform(1e-9, 1e-3),
       mode=st.sampled_from(MODES), seed=st.integers(0, 2**64 - 1))
def test_counts_within_binomial_tails_across_input_box(distance, px, mu_A, mu_B,
                                                       e_d, p_d, mode, seed):
    # Each count is binomial over the N windows: a window is an effective
    # window of a component or not.  Some expected counts are near 0.01
    # here, where a normal z would call a single event a 10-sigma outlier,
    # so each count is judged by its exact binomial tail.
    chan = ChannelParams(distance, 0.2, 0.3, p_d, e_d)
    proto = ProtocolParams(p0=1.0 - px, px=px, mu_xA=mu_A, mu_xB=mu_B, N=10**5,
                           mode=mode)
    expected = expected_tallies(proto, chan)
    observed = simulate(proto, chan, seed)
    for name in ("n_O", "n_B", "n_Z"):
        tail = _binomial_tail(getattr(observed, name), getattr(expected, name), 10**5)
        assert tail >= _FIVE_SIGMA_TAIL, (name, getattr(observed, name),
                                          getattr(expected, name), tail)


class TestCoverage:
    def test_violation_fractions_below_budget(self):
        result = coverage_test(mean=1000.0, xi=1e-3, trials=10000, seed=123)
        assert isinstance(result, CoverageResult)
        assert result.upper_fraction <= 2e-3
        assert result.lower_fraction <= 2e-3

    def test_tiny_xi_never_violated(self):
        result = coverage_test(mean=1000.0, xi=1e-10, trials=10000, seed=99)
        assert result.upper_fraction == 0.0
        assert result.lower_fraction == 0.0

    def test_loose_xi_shows_violations(self):
        # Sanity check that the test has power: a huge failure probability
        # must produce a nonzero violation fraction.
        result = coverage_test(mean=1000.0, xi=0.5, trials=10000, seed=7)
        assert result.upper_fraction > 0.0
        assert result.lower_fraction > 0.0

    def test_input_validation(self):
        with pytest.raises(SimConfigError):
            coverage_test(mean=0.0, xi=1e-3, trials=10000, seed=1)
        with pytest.raises(SimConfigError):
            coverage_test(mean=10.0, xi=1e-3, trials=10, seed=1)
        for xi in (0.0, 1.0):
            with pytest.raises(SimConfigError):
                coverage_test(mean=10.0, xi=xi, trials=10000, seed=1)
