"""Seeded Monte Carlo event simulator; independent oracle for the channel model.

A run of N windows is sampled exactly in distribution, without drawing every
window.  The four window-kind counts (O, Z_A, Z_B, B) are one multinomial
draw, and each phase-insensitive kind heralds a binomial share of its
windows, with the heralding probability combined here from the channel
model's per-detector click probabilities (never taken from the channel
model's heralding formulas, so the cross-check stays independent).  Only
B windows under a uniformly random phase are sampled one by one - a
uniform phase and two Bernoulli clicks each - since they check the channel
model's phase average independently.

All draws come from counter-based Philox streams keyed on (seed, index):
index 0 draws the counts and index 1 + c the c-th chunk of random-phase B
windows, so the output depends only on the configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      arm_transmittance, click_prob, detector_means)
from .chernoff import observed_lower, observed_upper

PHASE_MODELS = ("compensated", "uniform-random")

# Random-phase B windows sampled per Philox stream.
_CHUNK = 1 << 21


class SimConfigError(ValueError):
    """Raised for invalid simulation configuration."""


def require_seed(seed: int) -> None:
    """Raise SimConfigError unless ``seed`` fits the unsigned 64-bit Philox key."""
    if not (0 <= seed < 2**64):
        raise SimConfigError(f"seed must lie in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one reproducible simulation run."""

    seed: int
    N: int
    protocol: ProtocolParams
    channel: ChannelParams
    phase_model: str = "compensated"

    def __post_init__(self) -> None:
        require_seed(self.seed)
        if self.N < 1:
            raise SimConfigError(f"N must be >= 1, got {self.N!r}")
        if self.phase_model not in PHASE_MODELS:
            raise SimConfigError(f"unknown phase model {self.phase_model!r}")


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _random_phase_b_windows(config: SimConfig, windows: int, eta: float) -> int:
    """Heralded count of ``windows`` B windows, each with a uniform phase."""
    proto, chan = config.protocol, config.channel
    heralded = 0
    for chunk, start in enumerate(range(0, windows, _CHUNK)):
        n = min(_CHUNK, windows - start)
        rng = _stream(config.seed, 1 + chunk)
        cos_delta = np.cos(rng.random(n) * (2.0 * np.pi))
        nu_l, nu_r = detector_means("B", proto.mu_xA, proto.mu_xB, eta, chan.e_d,
                                    cos_delta=cos_delta)
        click_l = rng.random(n) < click_prob(nu_l, chan.p_d)
        click_r = rng.random(n) < click_prob(nu_r, chan.p_d)
        effective = click_l ^ click_r if proto.mode == "baseline" else click_r & ~click_l
        heralded += int(np.count_nonzero(effective))
    return heralded


def simulate(config: SimConfig) -> WindowTally:
    """Sampled effective-window tallies for the configured protocol.

    Heralding mirrors the analytic model: right-click-and-not-left
    everywhere in improved mode; in baseline mode B windows instead herald
    on exactly one click (O and Z windows are phase-insensitive and keep the
    single-detector rule, matching the channel model's mode invariance).
    Detectors click independently, so a kind whose detector means are fixed
    heralds ``Binomial(count, p_R (1 - p_L))`` windows, or
    ``Binomial(count, p_L (1 - p_R) + p_R (1 - p_L))`` for baseline B windows;
    this is exact, not an approximation.
    """
    proto, chan = config.protocol, config.channel
    eta = arm_transmittance(chan)
    random_phase = config.phase_model == "uniform-random"
    rng = _stream(config.seed, 0)
    p0, px = proto.p0, proto.px
    # O = both vacuum, Z_A = Alice vacuum / Bob coherent, Z_B the reverse,
    # B = both coherent.
    kinds = ("O", "Z_A", "Z_B", "B")
    counts = dict(zip(kinds, rng.multinomial(int(config.N),
                                             [p0 * p0, p0 * px, px * p0, px * px])))
    # Under a random phase B windows have no fixed detector means.
    fixed = kinds[:3] if random_phase else kinds
    heralded = {}
    for kind in fixed:
        nu_l, nu_r = detector_means(kind, proto.mu_xA, proto.mu_xB, eta, chan.e_d)
        p_l, p_r = click_prob(nu_l, chan.p_d), click_prob(nu_r, chan.p_d)
        p_eff = p_r * (1.0 - p_l)
        if kind == "B" and proto.mode == "baseline":
            p_eff += p_l * (1.0 - p_r)
        heralded[kind] = int(rng.binomial(counts[kind], p_eff))
    if random_phase:
        heralded["B"] = _random_phase_b_windows(config, int(counts["B"]), eta)
    return WindowTally(n_O=heralded["O"], n_B=heralded["B"],
                       n_Z=heralded["Z_A"] + heralded["Z_B"])


@dataclass(frozen=True)
class CoverageResult:
    """Empirical violation fractions of the observed-value Chernoff bounds."""

    upper_fraction: float
    lower_fraction: float
    trials: int


def coverage_test(mean: float, xi: float, trials: int, seed: int) -> CoverageResult:
    """Fraction of Poisson(mean) draws breaching observed_upper/observed_lower."""
    if mean <= 0.0:
        raise SimConfigError(f"mean must be positive, got {mean!r}")
    if not (0.0 < xi < 1.0):
        raise SimConfigError(f"xi must lie in (0, 1), got {xi!r}")
    if trials < 1000:
        raise SimConfigError(f"need at least 1000 trials, got {trials!r}")
    upper = observed_upper(mean, math.log(xi))
    lower = observed_lower(mean, math.log(xi))
    rng = np.random.default_rng(seed)
    draws = rng.poisson(mean, size=trials)
    return CoverageResult(
        upper_fraction=float(np.mean(draws > upper)),
        lower_fraction=float(np.mean(draws < lower)),
        trials=trials,
    )
