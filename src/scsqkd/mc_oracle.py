"""Seeded Monte Carlo event simulator; independent oracle for the channel model.

Windows are simulated in fixed-size chunks, each driven by a counter-based
Philox stream keyed on (seed, chunk index).  The output therefore depends
only on the configuration, never on how chunks might be distributed across
workers.  Clicks are sampled at the threshold-detector level - Bernoulli on
the channel model's click probability, with the channel model's detector
means - which is the same level the analytic model is defined at, so
agreement is exact in expectation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      arm_transmittance, click_prob, detector_means)
from .chernoff import observed_lower, observed_upper

PHASE_MODELS = ("compensated", "uniform-random")

_CHUNK = 1 << 21


class SimConfigError(ValueError):
    """Raised for invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one reproducible simulation run."""

    seed: int
    N: int
    protocol: ProtocolParams
    channel: ChannelParams
    phase_model: str = "compensated"

    def __post_init__(self) -> None:
        if self.N < 1:
            raise SimConfigError(f"N must be >= 1, got {self.N!r}")
        if self.phase_model not in PHASE_MODELS:
            raise SimConfigError(f"unknown phase model {self.phase_model!r}")


def simulate(config: SimConfig) -> WindowTally:
    """Sampled effective-window tallies for the configured protocol.

    Heralding mirrors the analytic model: right-click-and-not-left
    everywhere in improved mode; in baseline mode B windows instead herald
    on exactly one click (O and Z windows are phase-insensitive and keep the
    single-detector rule, matching the channel model's mode invariance).
    """
    proto, chan = config.protocol, config.channel
    eta = arm_transmittance(chan)
    p_d = chan.p_d
    baseline = proto.mode == "baseline"
    random_phase = config.phase_model == "uniform-random"

    # Window-kind code: 2*(Alice sends coherent) + (Bob sends coherent).
    # 0 = O, 1 = Z_A, 2 = Z_B, 3 = B (B probabilities are replaced per
    # window when the phase is random).
    probs_l = np.empty(4)
    probs_r = np.empty(4)
    for code, kind in enumerate(("O", "Z_A", "Z_B", "B")):
        nu_l, nu_r = detector_means(kind, proto.mu_xA, proto.mu_xB, eta, chan.e_d)
        probs_l[code] = click_prob(nu_l, p_d)
        probs_r[code] = click_prob(nu_r, p_d)

    n_o = n_b = n_z = 0
    remaining = int(config.N)
    chunk_index = 0
    while remaining > 0:
        n = min(remaining, _CHUNK)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([config.seed, chunk_index], dtype=np.uint64)))
        alice_x = rng.random(n) >= proto.p0
        bob_x = rng.random(n) >= proto.p0
        if random_phase:
            delta = rng.random(n) * (2.0 * np.pi)
        u_l = rng.random(n)
        u_r = rng.random(n)

        code = 2 * alice_x.astype(np.int8) + bob_x.astype(np.int8)
        p_l = probs_l[code]
        p_r = probs_r[code]
        if random_phase:
            is_b = code == 3
            nu_l, nu_r = detector_means("B", proto.mu_xA, proto.mu_xB, eta,
                                        chan.e_d, cos_delta=np.cos(delta[is_b]))
            p_l[is_b] = click_prob(nu_l, p_d)
            p_r[is_b] = click_prob(nu_r, p_d)
        click_l = u_l < p_l
        click_r = u_r < p_r

        effective = click_r & ~click_l
        if baseline:
            is_b = code == 3
            effective = np.where(is_b, click_l ^ click_r, effective)

        n_o += int(np.count_nonzero(effective & (code == 0)))
        n_b += int(np.count_nonzero(effective & (code == 3)))
        n_z += int(np.count_nonzero(effective & ((code == 1) | (code == 2))))

        remaining -= n
        chunk_index += 1

    return WindowTally(n_O=n_o, n_B=n_b, n_Z=n_z)


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
    if trials < 1000:
        raise SimConfigError(f"need at least 1000 trials, got {trials!r}")
    upper = observed_upper(mean, xi)
    lower = observed_lower(mean, xi)
    rng = np.random.default_rng(seed)
    draws = rng.poisson(mean, size=trials)
    return CoverageResult(
        upper_fraction=float(np.mean(draws > upper)),
        lower_fraction=float(np.mean(draws < lower)),
        trials=trials,
    )
