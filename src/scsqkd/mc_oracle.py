"""Seeded Monte Carlo event simulator; independent oracle for the channel model.

A run of ``protocol.N`` windows is sampled exactly in distribution, without
drawing every window.  The phase follows the protocol's heralding mode: in
improved mode Charlie compensates it in every window, in baseline mode the
B-window phase is uniformly random.  The four window-kind counts (O, Z_A,
Z_B, B) are one multinomial draw, and each kind with fixed detector means
heralds a binomial share of its windows, with the heralding probability
combined here from the channel model's per-detector click probabilities
(never taken from the channel model's heralding formulas, so the
cross-check stays independent).  Only baseline-mode B windows, whose phase
is random, are sampled one by one - a uniform phase and two Bernoulli
clicks each - since they check the channel model's phase average
independently.

The detector means come from the channel model's ``_means``, which skips
the nonnegativity check of ``detector_means``: ``ProtocolParams`` and
``ChannelParams`` already enforce nonnegative intensities and transmittance.

All draws come from counter-based Philox streams keyed on (seed, index):
index 0 draws the counts and index 1 + c the c-th chunk of random-phase B
windows, so the output depends only on the inputs.
"""
from __future__ import annotations

import numpy as np

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      _means, arm_transmittance, click_prob)

# Random-phase B windows sampled per Philox stream.
_CHUNK = 1 << 21


class SimConfigError(ValueError):
    """Raised for invalid simulation configuration."""


def require_seed(seed: int) -> None:
    """Raise SimConfigError unless ``seed`` fits the unsigned 64-bit Philox key."""
    if not (0 <= seed < 2**64):
        raise SimConfigError(f"seed must lie in [0, 2**64), got {seed!r}")


def require_windows(n) -> None:
    """Raise SimConfigError unless ``n`` is a whole number in [1, 2**63).

    The multinomial draw of the window-kind counts takes a signed 64-bit
    count; a fractional count would be truncated.
    """
    if not (1 <= n < 2**63 and n == int(n)):
        raise SimConfigError(f"window count must be a whole number in "
                             f"[1, 2**63), got {n!r}")


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _random_phase_b_windows(protocol: ProtocolParams, channel: ChannelParams,
                            seed: int, windows: int, eta: float) -> int:
    """Heralded count of ``windows`` B windows, each with a uniform phase and
    heralding on exactly one click."""
    heralded = 0
    for chunk, start in enumerate(range(0, windows, _CHUNK)):
        n = min(_CHUNK, windows - start)
        rng = _stream(seed, 1 + chunk)
        cos_delta = np.cos(rng.random(n) * (2.0 * np.pi))
        nu_l, nu_r = _means("B", protocol.mu_xA, protocol.mu_xB, eta, channel.e_d,
                            cos_delta=cos_delta)
        click_l = rng.random(n) < click_prob(nu_l, channel.p_d)
        click_r = rng.random(n) < click_prob(nu_r, channel.p_d)
        heralded += int(np.count_nonzero(click_l ^ click_r))
    return heralded


def simulate(protocol: ProtocolParams, channel: ChannelParams, seed: int) -> WindowTally:
    """Sampled effective-window tallies over ``protocol.N`` windows.

    Heralding mirrors the analytic model.  Every window with fixed detector
    means - all of them in improved mode, whose phase is compensated, and
    the O and Z windows in baseline mode - is effective when the right
    detector clicks and the left one does not.  Detectors click
    independently, so such a kind heralds ``Binomial(count, p_R (1 - p_L))``
    windows; this is exact, not an approximation.  Baseline B windows have
    a uniformly random phase and herald on exactly one click; they are
    sampled one by one.
    """
    require_seed(seed)
    require_windows(protocol.N)
    eta = arm_transmittance(channel)
    random_phase = protocol.mode == "baseline"
    rng = _stream(seed, 0)
    p0, px = protocol.p0, protocol.px
    # O = both vacuum, Z_A = Alice vacuum / Bob coherent, Z_B the reverse,
    # B = both coherent.
    kinds = ("O", "Z_A", "Z_B", "B")
    counts = dict(zip(kinds, rng.multinomial(int(protocol.N),
                                             [p0 * p0, p0 * px, px * p0, px * px])))
    # Under a random phase B windows have no fixed detector means.
    fixed = kinds[:3] if random_phase else kinds
    heralded = {}
    for kind in fixed:
        nu_l, nu_r = _means(kind, protocol.mu_xA, protocol.mu_xB, eta, channel.e_d)
        p_l, p_r = click_prob(nu_l, channel.p_d), click_prob(nu_r, channel.p_d)
        heralded[kind] = int(rng.binomial(counts[kind], p_r * (1.0 - p_l)))
    if random_phase:
        heralded["B"] = _random_phase_b_windows(protocol, channel, seed,
                                                int(counts["B"]), eta)
    return WindowTally(n_O=heralded["O"], n_B=heralded["B"],
                       n_Z=heralded["Z_A"] + heralded["Z_B"])

