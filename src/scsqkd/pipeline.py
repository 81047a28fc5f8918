"""End-to-end evaluation of one (channel, protocol, block size) point.

Glues the modules together: worst-case source bounds -> virtual intensities,
channel expectations at nominal intensities, phase-error bound at the
resolved security budget, and the collective/coherent key rates.  The block
size may be the literal string "asymptotic", in which case Chernoff slack
and all finite-size penalty terms vanish.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import ChannelParams, ProtocolParams, expected_tallies
from .keyrate import (KeyRateReport, binary_entropy, ec_leakage,
                      key_rate_coherent, key_rate_collective, security_budget)
from .mapping import (MappingError, SourceBounds, VirtualIntensities,
                      require_amplitude, require_fluct)
from .phase_error import decomposition_coeffs, phase_error_rate_upper

ASYMPTOTIC = "asymptotic"


class InfeasibleError(ValueError):
    """Raised when a candidate admits no virtual-protocol mapping."""


@dataclass(frozen=True)
class SourceCalibration:
    """Calibration facts independent of the scanned intensity.

    av0/bv0 bound the vacuum-source vacuum amplitudes; fluct is the relative
    intensity fluctuation half-width of the coherent sources.
    """

    av0: float = 1.0 - 1e-8
    bv0: float = 1.0 - 1e-8
    fluct: float = 0.1

    def __post_init__(self) -> None:
        require_amplitude("av0", self.av0)
        require_amplitude("bv0", self.bv0)
        require_fluct(self.fluct)


@dataclass(frozen=True)
class SecurityConfig:
    """Security target and accounting constants shared across a scan."""

    eps_coh_target: float = 1e-10
    f: float = 1.1
    d: int = 8
    n_PE: int = 3


def virtual_intensities_for(protocol: ProtocolParams,
                            calib: SourceCalibration) -> VirtualIntensities:
    """Virtual intensities for a candidate, from worst-case vacuum bounds."""
    try:
        bounds = SourceBounds.from_nominal(protocol.mu_xA, protocol.mu_xB,
                                           calib.av0, calib.bv0, calib.fluct)
        return VirtualIntensities.from_bounds(bounds)
    except MappingError as exc:
        raise InfeasibleError(str(exc)) from exc


def evaluate_point(channel: ChannelParams, calib: SourceCalibration,
                   protocol: ProtocolParams, security: SecurityConfig,
                   block_size: float | str) -> KeyRateReport:
    """Key-rate report for one candidate protocol at one block size.

    An asymptotic point is one window (N = 1) with no Chernoff slack, no
    security budget and no finite-size or coherent-attack penalty, so its
    collective and coherent rates coincide.
    """
    virtual = virtual_intensities_for(protocol, calib)
    coeffs = decomposition_coeffs(virtual.mu_A, virtual.mu_B)
    asymptotic = block_size == ASYMPTOTIC
    n = 1.0 if asymptotic else float(block_size)
    proto = replace(protocol, N=n)
    tally = expected_tallies(proto, channel)
    sec = None if asymptotic else security_budget(
        security.eps_coh_target, n, d=security.d, n_PE=security.n_PE,
        f=security.f)
    leak = ec_leakage(tally, security.f)
    if tally.n_Z <= 0.0:
        e_ph = 0.5
        r_col = r_coh = -math.inf
    else:
        e_ph = phase_error_rate_upper(
            tally, proto, coeffs, log_xi=None if sec is None else sec.log_epsilon,
            asymptotic=asymptotic).e_ph
        if sec is None:
            r_col = r_coh = tally.n_Z * (1.0 - binary_entropy(e_ph)) - leak
        else:
            r_col = key_rate_collective(tally, e_ph, sec, n, signed=True)
            r_coh = key_rate_coherent(r_col, n, d=security.d, signed=True)
    return KeyRateReport(
        R_col=max(r_col, 0.0), R_coh=max(r_coh, 0.0), e_ph=e_ph,
        leak_EC=leak, tally=tally, budget=sec,
        R_col_signed=r_col, R_coh_signed=r_coh,
        mu_virtual_A=virtual.mu_A, mu_virtual_B=virtual.mu_B)
