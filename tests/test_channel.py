"""Tests for the linear-optics channel model."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd.channel import (_I0_SERIES_MAX, MODES, ChannelParams,
                            ProtocolParams, WindowTally, _i0e, _scaled_i0_minus_1,
                            arm_transmittance, b_window_prob,
                            detector_means, effective_prob, expected_tallies,
                            heralding_arrays, tally_arrays, visibility)

CHANNEL = ChannelParams(distance_km=100.0, alpha_f=0.2, eta_d=0.3,
                        p_d=1e-9, e_d=0.04)


class TestArmTransmittance:
    def test_reference_point(self):
        # 100 km link, 0.2 dB/km, 30% detectors: 10 dB over the 50 km arm.
        assert arm_transmittance(CHANNEL) == pytest.approx(0.03, rel=1e-12)

    def test_zero_distance_gives_detector_efficiency(self):
        chan = ChannelParams(0.0, 0.2, 0.3, 0.0, 0.0)
        assert arm_transmittance(chan) == 0.3

    def test_monotone_decreasing_in_distance(self):
        etas = [arm_transmittance(ChannelParams(d, 0.2, 0.3, 0.0, 0.0))
                for d in np.linspace(0.0, 300.0, 30)]
        assert all(x > y for x, y in zip(etas, etas[1:]))


class TestDetectorMeans:
    def test_vacuum_window_is_dark(self):
        assert detector_means("O", 0.1, 0.1, 0.03, 0.04) == (0.0, 0.0)

    def test_one_sided_windows_split_evenly(self):
        nu_l, nu_r = detector_means("Z_A", 0.1, 0.2, 0.03, 0.04)
        assert nu_l == nu_r == pytest.approx(0.03 * 0.2 / 2.0, rel=1e-12)
        nu_l, nu_r = detector_means("Z_B", 0.1, 0.2, 0.03, 0.04)
        assert nu_l == nu_r == pytest.approx(0.03 * 0.1 / 2.0, rel=1e-12)

    def test_both_coherent_compensated_reference(self):
        # Equal intensities: nu_R = eta * mu * (1 - V) = eta * mu * 2 e_d.
        nu_l, nu_r = detector_means("B", 0.1, 0.1, 0.03, 0.04)
        assert nu_r == pytest.approx(2.4e-4, rel=1e-12)
        assert nu_l == pytest.approx(0.03 * 0.1 * (2.0 - 2.0 * 0.04), rel=1e-12)

    def test_energy_conservation(self):
        # The two ports always share the total transmitted energy.
        for cos_d in (-1.0, -0.3, 0.0, 0.7, 1.0):
            nu_l, nu_r = detector_means("B", 0.1, 0.25, 0.03, 0.04, cos_delta=cos_d)
            assert nu_l + nu_r == pytest.approx(0.03 * (0.1 + 0.25), rel=1e-12)
            assert nu_l >= 0.0 and nu_r >= 0.0

    def test_perfect_visibility_extinguishes_right_port(self):
        _, nu_r = detector_means("B", 0.2, 0.2, 0.03, 0.0)
        assert nu_r == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("e_d", [1e-8, 1e-4, 0.04])
    @pytest.mark.parametrize("mu_A, mu_B", [(0.1, 0.1), (0.1, 0.25), (3e-4, 2e-4)])
    def test_b_window_means_against_mpmath(self, mu_A, mu_B, e_d):
        # nu_R = avg - cross cancels at small misalignment; the arrangement
        # with nonnegative terms must keep full precision there.
        eta = 0.03
        with mpmath.workdps(50):
            avg = mpmath.mpf(eta) * (mpmath.mpf(mu_A) + mu_B) / 2
            cross = (1 - 2 * mpmath.mpf(e_d)) * eta * mpmath.sqrt(mpmath.mpf(mu_A) * mu_B)
            ref_l, ref_r = float(avg + cross), float(avg - cross)
        nu_l, nu_r = detector_means("B", mu_A, mu_B, eta, e_d)
        assert nu_l == pytest.approx(ref_l, rel=1e-12, abs=0)
        assert nu_r == pytest.approx(ref_r, rel=1e-12, abs=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown window kind 'X'"):
            detector_means("X", 0.1, 0.1, 0.03, 0.04)

    @pytest.mark.parametrize("mu_A, mu_B, eta", [
        (-0.1, 0.1, 0.03), (0.1, np.array([0.1, -1e-12]), 0.03),
        (0.1, 0.1, np.array([0.03, -0.03]))])
    def test_negative_input_raises(self, mu_A, mu_B, eta):
        with pytest.raises(ValueError, match="nonnegative"):
            heralding_arrays(mu_A, mu_B, eta, 0.04, 1e-9, "improved")

    def test_visibility_convention(self):
        assert visibility(0.04) == pytest.approx(0.92, rel=1e-15)


class TestEffectiveProb:
    def test_dark_count_reference(self):
        # nu_R = 0: only a dark count can fire the right detector.
        p = effective_prob(0.003, 0.0, 1e-9)
        assert p == pytest.approx(1e-9 * (1.0 - 1e-9) * math.exp(-0.003),
                                  rel=1e-12, abs=0)

    def test_vanishing_signal_limit(self):
        # nu -> 0 in both arms: improved heralding tends to p_d (1 - p_d).
        p_d = 1e-6
        p = effective_prob(0.0, 0.0, p_d)
        assert p == pytest.approx(p_d * (1.0 - p_d), rel=1e-12, abs=0)

    def test_probability_bounds(self):
        for nu_l, nu_r, p_d in ((0.0, 0.0, 0.0), (5.0, 5.0, 0.5), (0.1, 3.0, 1e-3)):
            p = effective_prob(nu_l, nu_r, p_d)
            assert 0.0 <= p <= 1.0


class TestBWindowProb:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode 'other'"):
            b_window_prob(0.1, 0.1, 0.03, 0.04, 1e-9, "other")

    def test_improved_below_phase_averaged_baseline(self):
        # Compensation steers energy away from the heralding detector, so the
        # improved B-window probability is far below the baseline average.
        for mu in (0.01, 0.05, 0.2):
            p_imp = b_window_prob(mu, mu, 0.03, 0.04, 1e-9, "improved")
            p_base = b_window_prob(mu, mu, 0.03, 0.04, 1e-9, "baseline")
            assert p_imp < p_base

    def test_baseline_average_against_dense_grid(self):
        # The closed form agrees with a dense midpoint rule for the phase
        # average, which converges spectrally for this smooth integrand.
        mu, eta, e_d, p_d = 0.1, 0.03, 0.04, 1e-9
        delta = (np.arange(1 << 14) + 0.5) * (2.0 * np.pi / (1 << 14))
        avg = eta * mu
        cross = visibility(e_d) * eta * mu * np.cos(delta)
        no_l = (1.0 - p_d) * np.exp(-(avg + cross))
        no_r = (1.0 - p_d) * np.exp(-(avg - cross))
        dense = float(np.mean((1.0 - no_r) * no_l + (1.0 - no_l) * no_r))
        assert b_window_prob(mu, mu, eta, e_d, p_d, "baseline") == pytest.approx(
            dense, rel=1e-13)

    @pytest.mark.parametrize("mu, eta, e_d, p_d", [
        (10.0, 0.3, 0.04, 1e-9),   # c = 2.76, just past the series range
        (40.0, 0.5, 0.0, 1e-6),    # c = 20
        (8.0, 0.3, 0.9, 1e-9),     # V < 0: the average depends on |c| only
        (699.9, 1.0, 0.0, 1e-9),   # c = 699.9, the top of the np.i0 range
        (700.1, 1.0, 0.0, 1e-9),   # c = 700.1, the asymptotic expansion
        (2000.0, 1.0, 0.0, 1e-9),  # c = 2000, where np.i0 overflows
        (1e5, 1.0, 0.0, 1e-9),     # c = 1e5
    ])
    def test_baseline_large_interference_term(self, mu, eta, e_d, p_d):
        assert b_window_prob(mu, mu, eta, e_d, p_d, "baseline") == pytest.approx(
            _mp_phase_average(mu, mu, eta, e_d, p_d), rel=1e-13, abs=0)

    def test_baseline_tallies_straddling_branches_match_scalar(self):
        # Elements on both sides of c = 2 and c = 700, interleaved: the
        # array pass evaluates each branch on its own subset, and every
        # element must equal its one-element evaluation bit for bit.
        chan = ChannelParams(0.0, 0.2, 1.0, 1e-9, 0.0)
        mu = np.array([0.5, 2.5, 800.0, 1.9, 699.0, 1e4, 2.0, 701.0])
        px = np.full(mu.shape, 0.5)
        _, n_b, _ = tally_arrays(1.0 - px, px, 1.0, *heralding_arrays(
            mu, mu, arm_transmittance(chan), chan.e_d, chan.p_d, "baseline"))
        scalar = [0.25 * b_window_prob(m, m, 1.0, 0.0, 1e-9, "baseline") for m in mu]
        assert n_b.tolist() == scalar


class TestHeraldingArrays:
    # Baseline elements straddle c = 2 and c = 700, so the interleaved pass
    # also splits each mode's elements between the Bessel branches.
    MU = np.array([1e-4, 0.5, 2.5, 800.0, 1.9, 699.0, 1e4, 2.0, 701.0])
    ETA = np.array([[1.0], [0.03]])

    @pytest.mark.parametrize("modes", [("improved", "baseline"),
                                       ("baseline", "improved")])
    def test_interleaved_modes_equal_per_mode_calls(self, modes):
        mode_index = np.arange(2 * self.MU.size).reshape(2, -1) % 3 % 2
        mu_B = self.MU[::-1].copy()
        for mu_A in (self.MU, mu_B):  # one array as both intensities, then two
            mixed = heralding_arrays(mu_A, mu_B, self.ETA, 0.04, 1e-9, modes, mode_index)
            alone = [heralding_arrays(mu_A, mu_B, self.ETA, 0.04, 1e-9, mode)
                     for mode in modes]
            for k in (0, 2):  # p_O and p_Z do not depend on the mode
                assert np.array_equal(mixed[k], alone[0][k])
                assert np.array_equal(mixed[k], alone[1][k])
            expected = np.where(mode_index == 0, alone[0][1], alone[1][1])
            assert mixed[1].shape == mode_index.shape
            assert mixed[1].tolist() == expected.tolist()
            assert not np.array_equal(alone[0][1], alone[1][1])

    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_index_past_the_modes_rejected(self, bad):
        mode_index = np.array([[0, 1, bad, 0, 1, 1, 1, 0, 1]])
        with pytest.raises(ValueError, match="mode_index"):
            heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, MODES, mode_index)
        # One mode has index 0 only, given as a string or as a 1-tuple.
        for mode in ("improved", ("improved",)):
            with pytest.raises(ValueError, match="mode_index"):
                heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, mode, 1)


def _mp_phase_average(mu_A, mu_B, eta, e_d, p_d) -> float:
    """50-digit baseline B-window probability from the inputs as given.

    Uniform phase: E[no_L + no_R] = 2q e^{-a} I0(c) and no_L no_R = q^2 e^{-2a}.
    """
    with mpmath.workdps(50):
        q = 1 - mpmath.mpf(p_d)
        a = mpmath.mpf(eta) * (mpmath.mpf(mu_A) + mu_B) / 2
        c = (1 - 2 * mpmath.mpf(e_d)) * eta * mpmath.sqrt(mpmath.mpf(mu_A) * mu_B)
        no_click = q * mpmath.exp(-a)
        return float(2 * no_click * mpmath.besseli(0, c) - 2 * no_click ** 2)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p_d=_log_uniform(1e-9, 1e-5), eta=_log_uniform(1e-5, 0.3),
       mu_A=_log_uniform(1e-4, 1.0), mu_B=_log_uniform(1e-4, 1.0),
       e_d=st.floats(0.0, 0.5))
def test_click_probabilities_against_mpmath(p_d, eta, mu_A, mu_B, e_d):
    """effective_prob and the baseline phase average to rel 1e-12 (50 digits)."""
    nu_l, nu_r = detector_means("B", mu_A, mu_B, eta, e_d)
    with mpmath.workdps(50):
        q = 1 - mpmath.mpf(p_d)
        no_l = q * mpmath.exp(-mpmath.mpf(nu_l))
        no_r = q * mpmath.exp(-mpmath.mpf(nu_r))
        right_only = float((1 - no_r) * no_l)
    assert effective_prob(nu_l, nu_r, p_d) == pytest.approx(
        right_only, rel=1e-12, abs=0)
    assert b_window_prob(mu_A, mu_B, eta, e_d, p_d, "baseline") == pytest.approx(
        _mp_phase_average(mu_A, mu_B, eta, e_d, p_d), rel=1e-12, abs=0)


class TestWindowTally:
    def test_error_rate_is_exact_count_ratio(self):
        tally = WindowTally(n_O=3.0, n_B=7.0, n_Z=90.0)
        assert tally.n_O + tally.n_B + tally.n_Z == 100.0
        assert tally.E_Z == pytest.approx(0.1, rel=1e-15)

    def test_empty_tally(self):
        tally = WindowTally(0.0, 0.0, 0.0)
        assert tally.n_O + tally.n_B + tally.n_Z == 0.0 and tally.E_Z == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="n_O must be nonnegative"):
            WindowTally(-1.0, 0.0, 0.0)


class TestProtocolParams:
    def test_probability_closure_enforced(self):
        with pytest.raises(ValueError, match=r"p0 \+ px must equal 1"):
            ProtocolParams(p0=0.5, px=0.6, mu_xA=0.1, mu_xB=0.1, N=1)

    def test_px_open_interval(self):
        with pytest.raises(ValueError, match="px must lie"):
            ProtocolParams(p0=0.0, px=1.0, mu_xA=0.1, mu_xB=0.1, N=1)

    @pytest.mark.parametrize("px", [0.0, 1.0])
    def test_px_edges_rejected(self, px):
        with pytest.raises(ValueError, match="px must lie"):
            ProtocolParams(p0=1.0 - px, px=px, mu_xA=0.1, mu_xB=0.1, N=1)

    @pytest.mark.parametrize("px", [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)])
    def test_px_next_to_the_edges_accepted(self, px):
        ProtocolParams(p0=1.0 - px, px=px, mu_xA=0.1, mu_xB=0.1, N=1)

    def test_intensity_and_window_count_edges(self):
        ProtocolParams(p0=0.5, px=0.5, mu_xA=0.0, mu_xB=0.0, N=1)
        with pytest.raises(ValueError, match="nonnegative"):
            ProtocolParams(p0=0.5, px=0.5, mu_xA=-5e-324, mu_xB=0.0, N=1)
        with pytest.raises(ValueError, match="N must"):
            ProtocolParams(p0=0.5, px=0.5, mu_xA=0.0, mu_xB=0.0,
                           N=math.nextafter(1.0, 0.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'x'"):
            ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=1, mode="x")


_VALID = {
    ChannelParams: dict(distance_km=50.0, alpha_f=0.2, eta_d=0.3, p_d=1e-9, e_d=0.04),
    ProtocolParams: dict(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=1e10),
    WindowTally: dict(n_O=1.0, n_B=2.0, n_Z=3.0),
}


@pytest.mark.parametrize("cls, field", [
    (ChannelParams, "distance_km"), (ChannelParams, "alpha_f"),
    (ProtocolParams, "p0"), (ProtocolParams, "mu_xA"), (ProtocolParams, "mu_xB"),
    (ProtocolParams, "N"),
    (WindowTally, "n_O"), (WindowTally, "n_B"), (WindowTally, "n_Z")])
def test_nan_parameter_rejected(cls, field):
    # A check written as ``x < 0`` lets NaN through, and it surfaced later as
    # a zero rate or a bare numpy error.
    cls(**_VALID[cls])
    with pytest.raises(ValueError, match=field):
        cls(**{**_VALID[cls], field: math.nan})


@pytest.mark.parametrize("field", ["eta_d", "p_d", "e_d"])
def test_channel_probability_range(field):
    # The one check of each probability: the formulas take them unchecked.
    for value in (0.0, 1.0):
        ChannelParams(**{**_VALID[ChannelParams], field: value})
    for value in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), math.nan):
        with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\]"):
            ChannelParams(**{**_VALID[ChannelParams], field: value})


class TestExpectedTallies:
    def test_mode_leaves_o_and_z_invariant(self):
        proto_i = ProtocolParams(0.5, 0.5, 0.1, 0.1, 10**8, mode="improved")
        proto_b = ProtocolParams(0.5, 0.5, 0.1, 0.1, 10**8, mode="baseline")
        t_i = expected_tallies(proto_i, CHANNEL)
        t_b = expected_tallies(proto_b, CHANNEL)
        assert t_i.n_O == t_b.n_O
        assert t_i.n_Z == t_b.n_Z
        assert t_i.n_B < t_b.n_B

    def test_no_darks_no_misalignment_kills_error_windows(self):
        # Perfect visibility steers all B-window energy left; no dark counts
        # means O windows never herald: the raw key is error-free.
        chan = ChannelParams(50.0, 0.2, 0.3, 0.0, 0.0)
        proto = ProtocolParams(0.5, 0.5, 0.1, 0.1, 10**6)
        tally = expected_tallies(proto, chan)
        assert tally.n_O == 0.0
        assert tally.n_B == 0.0
        assert tally.n_Z > 0.0
        assert tally.E_Z == 0.0

    def test_counts_scale_linearly_with_n(self):
        small = expected_tallies(ProtocolParams(0.5, 0.5, 0.1, 0.1, 10**6), CHANNEL)
        large = expected_tallies(ProtocolParams(0.5, 0.5, 0.1, 0.1, 10**9), CHANNEL)
        for name in ("n_O", "n_B", "n_Z"):
            assert getattr(large, name) == pytest.approx(
                1e3 * getattr(small, name), rel=1e-12)

    def test_window_probs_consistent_with_tallies(self):
        # Each count is N times the choice probability of its window kind
        # times that kind's heralding probability; only B windows depend on
        # the mode.
        mu_A, mu_B = 0.05, 0.08
        eta = arm_transmittance(CHANNEL)

        def herald(kind: str) -> float:
            nu_l, nu_r = detector_means(kind, mu_A, mu_B, eta, CHANNEL.e_d)
            return effective_prob(nu_l, nu_r, CHANNEL.p_d)

        for mode in ("improved", "baseline"):
            proto = ProtocolParams(0.7, 0.3, mu_A, mu_B, 10**7, mode=mode)
            p_b = b_window_prob(mu_A, mu_B, eta, CHANNEL.e_d, CHANNEL.p_d, mode)
            tally = expected_tallies(proto, CHANNEL)
            assert tally.n_O == pytest.approx(1e7 * 0.49 * herald("O"), rel=1e-12)
            assert tally.n_B == pytest.approx(1e7 * 0.09 * p_b, rel=1e-12)
            assert tally.n_Z == pytest.approx(
                1e7 * 0.21 * (herald("Z_A") + herald("Z_B")), rel=1e-12)


def _masked_scaled_i0_minus_1(c, a):
    """Reference: the series summed per element up to that element's own
    first term below 1e-17 of its partial sum, under an active mask."""
    c = np.asarray(c)
    series = c <= _I0_SERIES_MAX
    y = np.where(series, 0.25 * c * c, 0.0)
    term = total = y
    k = 1
    active = term > 1e-17 * total
    while active.any():
        k += 1
        term = term * (y / (k * k))
        total = np.where(active, total + term, total)
        active &= term > 1e-17 * total
    out = np.exp(-a) * total
    large = ~series
    if large.any():
        c_large = c[large]
        a_large = np.broadcast_to(a, c.shape)[large]
        out = np.array(out)
        out[large] = np.exp(c_large - a_large) * _i0e(c_large) - np.exp(-a_large)
    return out


_SERIES_EDGE = st.sampled_from([0.0, 2.0, float(np.nextafter(2.0, 0.0))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(c=st.one_of(
           _SERIES_EDGE,
           st.lists(st.one_of(_SERIES_EDGE, st.floats(0.0, 2.0), st.floats(2.0, 2000.0)),
                    min_size=1, max_size=12)),
       excess=st.floats(0.0, 5.0))
def test_one_term_count_keeps_every_bit(c, excess):
    # One term count for all elements, set by the largest c <= 2, against
    # each element's own stop: equal bit for bit, for 0-d inputs and for
    # arrays mixing c = 0, the series edge and c > 2.
    c = np.asarray(c)
    a = c * (1.0 + excess)
    assert np.array_equal(_scaled_i0_minus_1(c, a, np.exp(-a)),
                          _masked_scaled_i0_minus_1(c, a))
