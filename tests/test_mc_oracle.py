"""Tests for the Monte Carlo event simulator and coverage checks."""
import math

import numpy as np
import pytest

from scsqkd.channel import (ChannelParams, ProtocolParams, arm_transmittance,
                            click_prob, detector_means, expected_tallies)
from scsqkd.mc_oracle import (_CHUNK, CoverageResult, SimConfig, SimConfigError,
                              coverage_test, simulate)

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
            SimConfig(seed=1, N=0, protocol=PROTO, channel=CHANNEL)
        with pytest.raises(SimConfigError):
            SimConfig(seed=1, N=10, protocol=PROTO, channel=CHANNEL,
                      phase_model="bad")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, seed):
        # The Philox key is unsigned 64-bit; such a seed used to surface as
        # an OverflowError inside simulate.
        with pytest.raises(SimConfigError, match="seed"):
            SimConfig(seed=seed, N=10, protocol=PROTO, channel=CHANNEL)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(seed=42, N=10**6, protocol=PROTO, channel=CHANNEL)
        assert simulate(cfg) == simulate(cfg)

    def test_seed_changes_output(self):
        a = simulate(SimConfig(seed=1, N=10**6, protocol=PROTO, channel=CHANNEL))
        b = simulate(SimConfig(seed=2, N=10**6, protocol=PROTO, channel=CHANNEL))
        assert a != b

    def test_chunk_boundary_is_seamless(self):
        # Only random-phase B windows are sampled one by one, in chunks; at
        # px = 0.99 this N gives ~5% more B windows than one chunk holds.
        px = 0.99
        n = int(1.05 * _CHUNK / px**2)
        proto = ProtocolParams(p0=1.0 - px, px=px, mu_xA=0.1, mu_xB=0.1, N=n,
                               mode="baseline")
        cfg = SimConfig(seed=7, N=n, protocol=proto, channel=CHANNEL,
                        phase_model="uniform-random")
        tally = simulate(cfg)
        assert tally == simulate(cfg)
        assert tally.n_B > 0

    def test_counts_match_expectation_within_five_sigma(self):
        expected = expected_tallies(PROTO, CHANNEL)
        observed = simulate(SimConfig(seed=42, N=10**6, protocol=PROTO,
                                      channel=CHANNEL))
        for name, z in _z_scores(observed, expected, 10**6).items():
            assert abs(z) <= 5.0, (name, z)

    def test_uniform_phase_matches_baseline_expectation(self):
        proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1,
                               N=10**6, mode="baseline")
        expected = expected_tallies(proto, CHANNEL)
        observed = simulate(SimConfig(seed=11, N=10**6, protocol=proto,
                                      channel=CHANNEL,
                                      phase_model="uniform-random"))
        for name, z in _z_scores(observed, expected, 10**6).items():
            assert abs(z) <= 5.0, (name, z)

    def test_dead_channel_yields_empty_tally(self):
        chan = ChannelParams(100.0, 0.2, 0.0, 0.0, 0.04)
        tally = simulate(SimConfig(seed=3, N=10**5, protocol=PROTO, channel=chan))
        assert tally.M_s == 0

    def test_perfect_interference_suppresses_b_windows(self):
        # No darks, no misalignment, compensated phase: the heralding
        # detector never fires in B windows (and O windows stay silent).
        chan = ChannelParams(10.0, 0.2, 0.3, 0.0, 0.0)
        proto = ProtocolParams(p0=0.01, px=0.99, mu_xA=0.2, mu_xB=0.2, N=10**5)
        tally = simulate(SimConfig(seed=5, N=10**5, protocol=proto, channel=chan))
        assert tally.n_B == 0
        assert tally.n_O == 0

    def test_raw_key_error_rate_identity(self):
        tally = simulate(SimConfig(seed=42, N=10**6, protocol=PROTO,
                                   channel=CHANNEL))
        assert tally.E_Z == (tally.n_O + tally.n_B) / tally.M_s


def _per_window_tallies(proto, chan, phase_model, runs, rng):
    """Reference sampler drawing every window: two source choices, a phase
    and two Bernoulli clicks.  (n_O, n_B, n_Z) arrays over ``runs`` runs."""
    shape = (runs, int(proto.N))
    alice = rng.random(shape) >= proto.p0
    bob = rng.random(shape) >= proto.p0
    cos_delta = (np.cos(rng.random(shape) * (2.0 * np.pi))
                 if phase_model == "uniform-random" else 1.0)
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


@pytest.mark.parametrize("mode,phase_model", [
    ("improved", "compensated"), ("baseline", "compensated"),
    ("improved", "uniform-random"), ("baseline", "uniform-random")])
def test_distribution_matches_per_window_sampling(mode, phase_model):
    # A high-click point (detector efficiency 1, p_d = 1e-2, 5 km, mu = 1):
    # baseline heralds most B windows here, so the multinomial spread of the
    # window-kind counts is a large part of the variance of n_B.
    chan = ChannelParams(5.0, 0.2, 1.0, 1e-2, 0.04)
    proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=1.0, mu_xB=1.0, N=1000, mode=mode)
    runs = 1000
    reference = _per_window_tallies(proto, chan, phase_model, runs,
                                    np.random.default_rng(2024))
    sims = [simulate(SimConfig(seed=seed, N=1000, protocol=proto, channel=chan,
                               phase_model=phase_model)) for seed in range(runs)]
    for name, ref in zip(("n_O", "n_B", "n_Z"), reference):
        assert ref.min() < ref.max()
        z_mean, z_var = _moment_z_scores([getattr(t, name) for t in sims], ref)
        assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (name, z_mean, z_var)


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
