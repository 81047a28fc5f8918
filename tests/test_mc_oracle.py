"""Tests for the Monte Carlo event simulator."""
import math
import sys
import threading
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom
from test_channel import _UNIT, _mp_phase_average
from test_cli import TestMcReport as _McReport
from test_cli import _no_overrides, _write_config

import scsqkd.mc_oracle
from scsqkd import cli
from scsqkd.channel import (MAX_MU, MODES, ChannelParams, ProtocolParams, WindowTally,
                            arm_transmittance, click_prob, detector_means, expected_tallies,
                            phase_averaged_prob)
from scsqkd.cli import load_config, run_scan
from scsqkd.mc_oracle import (_heralding, _phase_averaged_b_prob, require_windows,
                              simulate, simulate_arrays)

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
        with pytest.raises(ValueError, match="window count must be a whole number"):
            require_windows(0)
        # The multinomial draw takes a whole count below 2**63; 1.5 used to
        # be truncated to one window.
        for n in (1.5, 2**63):
            with pytest.raises(ValueError, match="window count"):
                simulate(replace(PROTO, N=n), CHANNEL, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, seed):
        # The Philox key is unsigned 64-bit; such a seed used to surface as
        # an OverflowError inside simulate.
        with pytest.raises(ValueError, match="seed"):
            simulate(replace(PROTO, N=10), CHANNEL, seed)

    def test_rows_must_pair_up(self):
        # A short sequence must not drop rows silently.
        px = np.array([0.5, 0.5])
        arrays = _heralding_inputs([PROTO, PROTO], [CHANNEL, CHANNEL])
        for rows in ((px, *arrays, [10, 10], [1]),
                     (px, *arrays, [10], [1, 2]),
                     (px[:1], *arrays, [10, 10], [1, 2])):
            with pytest.raises(ValueError, match="per-row inputs must have one length"):
                simulate_arrays(*rows)

    @pytest.mark.parametrize("name", ["mu_A", "mu_B", "e_d", "p_d", "baseline"])
    def test_every_per_row_input_must_pair_up(self, name):
        # Two baseline rows (mu 1, p_d 1e-3, 1000 windows): a one-entry mask
        # used to draw row 1 in improved mode (n_B 1 against 140), and a
        # one-entry mu_A, mu_B, e_d or p_d raised IndexError (improved rows
        # broadcast it).
        proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=1.0, mu_xB=1.0, N=1000,
                               mode="baseline")
        channel = ChannelParams(0.0, 0.2, 0.5, 1e-3, 0.04)
        px = np.array([0.5, 0.5])
        arrays = dict(zip(("mu_A", "mu_B", "eta", "e_d", "p_d", "baseline"),
                          _heralding_inputs([proto, proto], [channel, channel])))
        (_, n_B, _), _ = simulate_arrays(px, **arrays, windows=[1000] * 2, seeds=[1, 2])
        assert n_B > 0
        arrays[name] = arrays[name][:1]
        with pytest.raises(ValueError, match="per-row inputs must have one length"):
            simulate_arrays(px, **arrays, windows=[1000] * 2, seeds=[1, 2])


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        assert simulate(PROTO, CHANNEL, 42) == simulate(PROTO, CHANNEL, 42)

    def test_seed_changes_output(self):
        assert simulate(PROTO, CHANNEL, 1) != simulate(PROTO, CHANNEL, 2)

    def test_huge_baseline_run_within_binomial_tails(self):
        # ~1e15 random-phase B windows: the run costs no more than a small
        # one, and each count lies within its exact binomial tail.
        n = 10**15
        proto = ProtocolParams(p0=0.01, px=0.99, mu_xA=0.1, mu_xB=0.1, N=n,
                               mode="baseline")
        expected = expected_tallies(proto, CHANNEL)
        observed = simulate(proto, CHANNEL, 7)
        assert observed.n_B > 0
        for name in ("n_O", "n_B", "n_Z"):
            tail = _binomial_tail(getattr(observed, name), getattr(expected, name), n)
            assert tail >= _FIVE_SIGMA_TAIL, (name, getattr(observed, name),
                                              getattr(expected, name), tail)

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
        assert tally.n_O + tally.n_B + tally.n_Z == 0

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
        assert tally.E_Z == (tally.n_O + tally.n_B) / (tally.n_O + tally.n_B + tally.n_Z)


# Literal tallies of an earlier version of the simulator: a change that moves
# any draw or stream changes them.  A baseline run draws its O and Z counts
# as the improved run does, and its B count last.
@pytest.mark.parametrize("mode, seed, tally", [
    ("improved", 2024, (345, 832, 11403)),
    ("improved", 2**64 - 1, (376, 830, 11409)),
    ("baseline", 2024, (345, 14556, 11403)),
    ("baseline", 2**64 - 1, (376, 14540, 11409)),
])
def test_pinned_draws(mode, seed, tally):
    chan = ChannelParams(20.0, 0.2, 0.3, 1e-3, 0.04)
    proto = ProtocolParams(p0=0.6, px=0.4, mu_xA=0.3, mu_xB=0.2, N=10**6, mode=mode)
    observed = simulate(proto, chan, seed)
    assert (observed.n_O, observed.n_B, observed.n_Z) == tally


def _batch():
    """Rows of both modes over several channels; every fourth row is a
    baseline row at the intensity cap."""
    rows = []
    for i in range(48):
        chan = ChannelParams(10.0 * (i % 5), 0.2, 0.3 + 0.1 * (i % 3),
                             10.0 ** -(5 + i % 4), 0.01 * (i % 6))
        mu = 1.0 if i % 4 == 3 else 0.05 * (1 + i % 7)
        proto = ProtocolParams(p0=0.4 + 0.01 * (i % 9), px=0.6 - 0.01 * (i % 9),
                               mu_xA=mu, mu_xB=mu * (1.0 - 0.1 * (i % 2)),
                               N=10**6 + i, mode=MODES[i % 2 if i % 4 != 3 else 1])
        rows.append((proto, chan, 2**64 - 1 - i))
    return rows


def _heralding_inputs(protocols, channels):
    """The arrays of ``_heralding`` for (protocol, channel) rows."""
    return (*np.array([[p.mu_xA for p in protocols], [p.mu_xB for p in protocols],
                       [arm_transmittance(ch) for ch in channels],
                       [ch.e_d for ch in channels], [ch.p_d for ch in channels]]),
            np.array([p.mode == "baseline" for p in protocols], dtype=bool))


def _simulate_rows(protocols, channels, seeds):
    """``simulate_arrays`` on (protocol, channel, seed) rows, as tallies."""
    return [WindowTally(*tally) for tally in simulate_arrays(
        np.array([p.px for p in protocols]),
        *_heralding_inputs(protocols, channels), [p.N for p in protocols], seeds)]


@pytest.mark.parametrize("block", [None, 2])
def test_row_tally_does_not_depend_on_its_batch(block, monkeypatch):
    rows = _batch()
    protocols, channels, seeds = zip(*rows)
    single = [simulate(*row) for row in rows]
    if block is not None:
        # Phase averages in blocks of at most two runs.
        monkeypatch.setattr(scsqkd.mc_oracle, "_ROWS_PER_BLOCK", block)
    assert _simulate_rows(protocols, channels, seeds) == single
    assert _simulate_rows(protocols[::-1], channels[::-1], seeds[::-1]) == single[::-1]
    # A draw rarely shows a last-bit change of its probability; the
    # probabilities themselves must not change either.
    assert np.array_equal(_heralding(*_heralding_inputs(protocols, channels)),
                          np.vstack([_heralding(*_heralding_inputs([p], [ch]))
                                     for p, ch in zip(protocols, channels)]))
    assert _simulate_rows([], [], []) == []


def test_one_philox_per_call(monkeypatch, tmp_path):
    cfg = load_config(_write_config(tmp_path, _McReport.CONFIG), _no_overrides())
    rows = run_scan(cfg)
    assert sum(rows["feasible_flag"]) > 1
    built = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    protocols, channels, seeds = zip(*_batch())
    _simulate_rows(protocols, channels, seeds)
    assert len(built) == 1
    # The scan's cross-check draws all its rows in one call too.
    cli._mc_report(cfg, rows)
    assert len(built) == 2


def test_concurrent_calls_give_the_serial_results():
    rows = _batch()
    halves = (rows[::2], rows[1::2])
    serial = [_simulate_rows(*zip(*half)) for half in halves]
    results = [[] for _ in halves]
    start = threading.Barrier(len(halves), timeout=60)

    def work(half, out):
        start.wait()
        for _ in range(20):
            out.append(_simulate_rows(*zip(*half)))

    threads = [threading.Thread(target=work, args=(half, out))
               for half, out in zip(halves, results)]
    # Frequent thread switches give the two calls many chances to interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[tallies] * 20 for tallies in serial]


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
    sims = _simulate_rows([proto] * runs, [chan] * runs, range(runs))
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=st.tuples(_UNIT, _UNIT, _UNIT, st.floats(0.0, 1.0), _log_uniform(1e-10, 1e-5)))
def test_phase_average_matches_closed_form(inputs):
    # Each lies within 1e-15 of a 50-digit reference over this range
    # (test_channel.test_click_probabilities_against_mpmath).
    mu_A, mu_B, eta, e_d, p_d = inputs
    average = _phase_averaged_b_prob(*(np.array([x]) for x in inputs))
    closed = phase_averaged_prob(mu_A, mu_B, eta, e_d, p_d)
    assert average[0] == pytest.approx(closed, rel=2e-15, abs=0), inputs


# Bits of the 64-phase average at three points: a change of the grid or of
# its summation order moves the last bits, which no binomial draw of a test
# shows.
@pytest.mark.parametrize("inputs, bits", [
    ((0.1, 0.1, 0.03, 0.04, 1e-9), "0x1.87b31bff4a54cp-8"),
    ((1.0, 0.5, 1.0, 0.0, 1e-3), "0x1.3d81ef6b8be59p-1"),
    ((0.3, 0.7, 0.2, 0.3, 1e-6), "0x1.61f0f87f87beep-3")])
def test_phase_average_bits_are_pinned(inputs, bits):
    average = _phase_averaged_b_prob(*(np.array([x]) for x in inputs))
    assert float(average[0]).hex() == bits


@pytest.mark.parametrize("q, e_d, ratio", [(1e-6, 0.1, 1.0), (1e-10, 0.01, 1.0),
                                           (1e-15, 0.01, 1.0), (1e-10, 0.0, 1.5)])
def test_phase_average_keeps_small_averages(q, e_d, ratio):
    # At the cap with p_d = 1 - q both detectors almost surely click, so the
    # average is small (of order q): a dark probability taken as
    # 1 - click_prob rounds towards 0 there and loses digits, up to all.
    inputs = (MAX_MU, MAX_MU / ratio, 1.0, e_d, 1.0 - q)
    average = _phase_averaged_b_prob(*(np.array([x]) for x in inputs))
    assert average[0] == pytest.approx(_mp_phase_average(*inputs), rel=1e-13, abs=0)


@pytest.mark.parametrize("q", [1e-10, 1e-15])
def test_fixed_means_keep_small_heralding_probabilities(q):
    # At the cap, eta = 1 and p_d = 1 - q the left detector almost surely
    # clicks in an improved B window, so its dark probability is small:
    # taken as 1 - click_prob it loses all digits but a few.
    channel = ChannelParams(0.0, 0.2, 1.0, 1.0 - q, 0.04)
    p_b = _heralding(*_heralding_inputs([ProtocolParams(0.5, 0.5, MAX_MU, MAX_MU, 10**6)],
                                        [channel]))[0, -1]
    with mpmath.workdps(50):
        m, e_d, p_d = mpmath.mpf(MAX_MU), mpmath.mpf(channel.e_d), mpmath.mpf(channel.p_d)
        dark_r = (1 - p_d) * mpmath.exp(-2 * m * e_d)
        dark_l = (1 - p_d) * mpmath.exp(-2 * m * (1 - e_d))
        expected = float((1 - dark_r) * dark_l)
    assert p_b == pytest.approx(expected, rel=1e-14, abs=0)
