"""Tests for the linear-optics channel model."""
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsqkd.channel import (MAX_MU, MODES, ChannelParams, ProtocolParams, WindowTally,
                            _scaled_i0_minus_1, arm_transmittance, detector_means,
                            effective_prob, expected_tallies, heralding_arrays,
                            phase_averaged_prob, tally_arrays, visibility)
from scsqkd.mc_oracle import _phase_averaged_b_prob

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
        # README's tolerance for the channel formulas.
        assert nu_l == pytest.approx(ref_l, rel=1e-15, abs=0)
        assert nu_r == pytest.approx(ref_r, rel=1e-15, abs=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown window kind 'X'"):
            detector_means("X", 0.1, 0.1, 0.03, 0.04)

    @pytest.mark.parametrize("mu_A, mu_B, eta", [
        (-0.1, 0.1, 0.03), (0.1, np.array([0.1, -1e-12]), 0.03),
        (0.1, 0.1, np.array([0.03, -0.03])),
        (0.1, 0.1, np.array([np.nan, -0.03]))])  # NaN passes, but hides nothing
    def test_negative_input_raises(self, mu_A, mu_B, eta):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            heralding_arrays(mu_A, mu_B, eta, 0.04, 1e-9)

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
        # A mode name is read only by the records: below them the B-window
        # rule is picked by the boolean baseline column, which takes no name.
        with pytest.raises(ValueError, match="mode must be one of"):
            ProtocolParams(0.7, 0.3, 0.1, 0.1, 1e7, mode="other")
        with pytest.raises(ValueError, match="baseline must be boolean"):
            heralding_arrays(0.1, 0.1, 0.03, 0.04, 1e-9, "other")

    def test_improved_below_phase_averaged_baseline(self):
        # Compensation steers energy away from the heralding detector, so the
        # improved B-window probability is far below the baseline average.
        for mu in (0.01, 0.05, 0.2):
            p_imp = effective_prob(*detector_means("B", mu, mu, 0.03, 0.04), 1e-9)
            p_base = phase_averaged_prob(mu, mu, 0.03, 0.04, 1e-9)
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
        assert phase_averaged_prob(mu, mu, eta, e_d, p_d) == pytest.approx(
            dense, rel=1e-13)

    @pytest.mark.parametrize("mu, eta, e_d, p_d", [
        (10.0, 0.3, 0.04, 1e-9),   # c = 2.76
        (40.0, 0.5, 0.0, 1e-6),    # c = 20
        (8.0, 0.3, 0.9, 1e-9),     # V < 0
        (699.9, 1.0, 0.0, 1e-9),   # c = 699.9
        (700.1, 1.0, 0.0, 1e-9),   # c = 700.1
        (2000.0, 1.0, 0.0, 1e-9),  # c = 2000
        (1e5, 1.0, 0.0, 1e-9),     # c = 1e5
    ])
    def test_baseline_large_interference_term(self, mu, eta, e_d, p_d):
        # An interference term c > 1 needs an intensity above the cap, which
        # the record and the array entry reject, so no path evaluates the
        # phase average there.
        with pytest.raises(ValueError, match=r"^mu_xA must lie in \[0, 1\]"):
            ProtocolParams(0.5, 0.5, mu, mu, 10**6, mode="baseline")
        with pytest.raises(ValueError, match="intensities and transmittance"):
            heralding_arrays(np.array([mu]), np.array([mu]), eta, e_d, p_d, True)


class TestHeraldingArrays:
    # Intensities across the capped range, the cap itself among them.
    MU = np.array([1e-4, 0.5, 0.025, 0.8, 0.19, 0.699, MAX_MU, 0.2, 0.701])
    ETA = np.array([[1.0], [0.03]])

    @pytest.mark.parametrize("modes", [("improved", "baseline"),
                                       ("baseline", "improved")])
    def test_interleaved_modes_equal_per_mode_calls(self, modes):
        # Each element's mode is modes[k] for its k in the pattern below,
        # turned into the baseline column as a scan does.
        pattern = np.arange(2 * self.MU.size).reshape(2, -1) % 3 % 2
        baseline = np.array([mode == "baseline" for mode in modes])[pattern]
        mu_B = self.MU[::-1].copy()
        for mu_A in (self.MU, mu_B):  # one array as both intensities, then two
            mixed = heralding_arrays(mu_A, mu_B, self.ETA, 0.04, 1e-9, baseline)
            alone = [heralding_arrays(mu_A, mu_B, self.ETA, 0.04, 1e-9, flag)
                     for flag in (False, True)]
            # A column of one mode gives that mode's values.
            for flag in (False, True):
                column = np.full(baseline.shape, flag)
                one = heralding_arrays(mu_A, mu_B, self.ETA, 0.04, 1e-9, column)
                assert one[1].tolist() == alone[flag][1].tolist()
            for k in (0, 2):  # p_O and p_Z do not depend on the mode
                assert np.array_equal(mixed[k], alone[0][k])
                assert np.array_equal(mixed[k], alone[1][k])
            expected = np.where(baseline, alone[1][1], alone[0][1])
            assert mixed[1].shape == baseline.shape
            assert mixed[1].tolist() == expected.tolist()
            assert not np.array_equal(alone[0][1], alone[1][1])

    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_non_boolean_baseline_rejected(self, bad):
        # Integers and floats are not read as modes, not even 0 and 1.
        column = np.array([[0, 1, bad, 0, 1, 1, 1, 0, 1]])
        with pytest.raises(ValueError, match="baseline"):
            heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, column)
        with pytest.raises(ValueError, match="baseline"):
            heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, bad)

    @pytest.mark.parametrize("length", [2, 8, 10])
    def test_baseline_of_another_length_rejected(self, length):
        # Also a column of one mode, whose values the pass would not need.
        for column in (np.zeros(length, dtype=bool), np.arange(length) % 2 == 1):
            with pytest.raises(ValueError, match="baseline"):
                heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, column)

    def test_empty_columns_give_empty_probabilities(self):
        empty = np.zeros(0)
        for baseline in (False, True, np.zeros(0, dtype=bool)):
            p_o, p_b, p_z = heralding_arrays(empty, empty, empty, 0.04, 1e-9, baseline)
            assert (p_b.shape, p_z.shape) == ((0,), (0,))

    @pytest.mark.parametrize("flag", [False, True])
    def test_one_mode_does_only_its_own_b_window_work(self, flag, monkeypatch):
        # An improved pass makes no Bessel-function work; a baseline pass
        # forms no B-window detector means, so no effective_prob call sees
        # them.  A mixed pass does both.
        import scsqkd.channel as channel
        kinds, bessel = [], []
        real_means, real_i0 = channel.detector_means, channel._scaled_i0_minus_1

        def means(kind, *args):
            kinds.append(kind)
            return real_means(kind, *args)

        def i0(*args):
            bessel.append(args)
            return real_i0(*args)

        monkeypatch.setattr(channel, "detector_means", means)
        monkeypatch.setattr(channel, "_scaled_i0_minus_1", i0)
        # One element, as expected_tallies passes it, and a column.
        one = self.MU[:1]
        heralding_arrays(one, one, 0.03, 0.04, 1e-9, flag)
        assert kinds == ["Z_A"] + ["B"] * (not flag)
        assert len(bessel) == flag
        kinds.clear()
        column = np.full((2, self.MU.size), flag)
        heralding_arrays(self.MU, self.MU[::-1].copy(), self.ETA, 0.04, 1e-9, column)
        assert kinds == ["Z_A", "Z_B"] + ["B"] * (not flag)
        assert len(bessel) == 2 * flag
        kinds.clear()
        column[1, ::2] = not flag
        heralding_arrays(self.MU, self.MU, self.ETA, 0.04, 1e-9, column)
        assert kinds == ["Z_A", "B"] and len(bessel) == 1 + 2 * flag


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


# Intensities and transmittances over the capped range, with 0 and 1.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), _log_uniform(1e-6, 1.0))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(p_d=_log_uniform(1e-9, 1e-5), eta=_UNIT, mu_A=_UNIT, mu_B=_UNIT,
       e_d=st.floats(0.0, 1.0))
@example(p_d=1e-9, eta=1.0, mu_A=1.0, mu_B=1.0, e_d=0.0)  # c = 1
@example(p_d=1e-9, eta=1.0, mu_A=1.0, mu_B=1.0, e_d=1.0)  # c = 1 at V = -1
@example(p_d=1e-5, eta=1.0, mu_A=1.0, mu_B=1.0, e_d=0.5)  # c = 0
def test_click_probabilities_against_mpmath(p_d, eta, mu_A, mu_B, e_d):
    """effective_prob, the baseline phase average and the simulator's 64-phase
    average to rel 1e-15 (50 digits), the tolerance README states."""
    nu_l, nu_r = detector_means("B", mu_A, mu_B, eta, e_d)
    with mpmath.workdps(50):
        q = 1 - mpmath.mpf(p_d)
        no_l = q * mpmath.exp(-mpmath.mpf(nu_l))
        no_r = q * mpmath.exp(-mpmath.mpf(nu_r))
        right_only = float((1 - no_r) * no_l)
    assert effective_prob(nu_l, nu_r, p_d) == pytest.approx(
        right_only, rel=1e-15, abs=0)
    average = _mp_phase_average(mu_A, mu_B, eta, e_d, p_d)
    assert phase_averaged_prob(mu_A, mu_B, eta, e_d, p_d) == pytest.approx(
        average, rel=1e-15, abs=0)
    assert _phase_averaged_b_prob(*(np.array([x]) for x in (
        mu_A, mu_B, eta, e_d, p_d)))[0] == pytest.approx(average, rel=1e-15, abs=0)


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
        # Rounding may leave p0 + px off 1 by up to 1e-12.  The closure reads
        # both fields and is checked first, under p0's name, so a NaN px
        # fails it too.
        ProtocolParams(p0=0.5, px=0.5 + 0.9e-12, mu_xA=0.1, mu_xB=0.1, N=1)
        for px in (0.6, 0.5 + 1.1e-12, math.nan):
            with pytest.raises(ValueError, match=r"^p0 must equal 1 - px, got 0\.5$"):
                ProtocolParams(p0=0.5, px=px, mu_xA=0.1, mu_xB=0.1, N=1)

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
        ProtocolParams(p0=0.5, px=0.5, mu_xA=MAX_MU, mu_xB=MAX_MU, N=1)
        for field in ("mu_xA", "mu_xB"):
            for mu in (-5e-324, math.nextafter(MAX_MU, 2.0)):
                with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 1\]"):
                    ProtocolParams(p0=0.5, px=0.5, N=1, **{"mu_xA": 0.0, "mu_xB": 0.0,
                                                           field: mu})
        with pytest.raises(ValueError, match="N must"):
            ProtocolParams(p0=0.5, px=0.5, mu_xA=0.0, mu_xB=0.0,
                           N=math.nextafter(1.0, 0.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "mode must be one of ('improved', 'baseline'), got 'x'")):
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
            p_b = (phase_averaged_prob(mu_A, mu_B, eta, CHANNEL.e_d, CHANNEL.p_d)
                   if mode == "baseline" else herald("B"))
            tally = expected_tallies(proto, CHANNEL)
            assert tally.n_O == pytest.approx(1e7 * 0.49 * herald("O"), rel=1e-12)
            assert tally.n_B == pytest.approx(1e7 * 0.09 * p_b, rel=1e-12)
            assert tally.n_Z == pytest.approx(
                1e7 * 0.21 * (herald("Z_A") + herald("Z_B")), rel=1e-12)


def _masked_scaled_i0_minus_1(c, a):
    """Reference: the series summed per element up to that element's own
    first term below 1e-17 of its partial sum, under an active mask."""
    y = 0.25 * np.asarray(c) ** 2
    term = total = y
    k = 1
    active = term > 1e-17 * total
    while active.any():
        k += 1
        term = term * (y / (k * k))
        total = np.where(active, total + term, total)
        active &= term > 1e-17 * total
    return np.exp(-a) * total


# The ends of the capped range, and NaN, whose result is NaN.
_EDGE = st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), math.nan])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(c=st.one_of(_EDGE, st.lists(st.one_of(_EDGE, st.floats(0.0, 1.0)),
                                   min_size=1, max_size=12)),
       excess=st.floats(0.0, 5.0))
def test_one_term_count_keeps_every_bit(c, excess):
    # One term count for all elements, set by the largest c, against each
    # element's own stop: equal bit for bit, for 0-d inputs and for arrays
    # mixing c = 0, the cap and NaN, which must not cut the other elements'
    # series short.
    c = np.asarray(c)
    a = c * (1.0 + excess)
    assert np.array_equal(_scaled_i0_minus_1(c, a, np.exp(-a)),
                          _masked_scaled_i0_minus_1(c, a), equal_nan=True)
