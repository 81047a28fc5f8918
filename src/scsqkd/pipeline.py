"""End-to-end evaluation of (channel, protocol, block size) points.

Glues the modules together: worst-case source bounds -> virtual intensities,
channel expectations at nominal intensities, phase-error bound at the
resolved security budget, and the collective/coherent key rates.  The block
size may be the literal string "asymptotic", in which case Chernoff slack
and all finite-size penalty terms vanish.

:func:`evaluate_points` evaluates candidates given as inputs that broadcast
together in one pass, with a feasibility mask where the source bounds admit
no virtual-protocol mapping; each candidate has its own transmittance and
block size, so one pass can span several distances and block sizes.  Each
quantity is computed on the shape of the inputs it depends on: on a
(point, px, mu) grid the source mapping, the heralding probabilities and the
asymptotic phase error run once per (point, mu), and the n_O Chernoff bound
once per px.  Given one array as both intensities, as the optimizer passes
it, the mu-only quantities are computed once, not once per party.
:func:`evaluate_point` is the same computation on one candidate.

Both return a :class:`~scsqkd.keyrate.KeyRateReport`: a pass's holds arrays
of the candidates' broadcast shape, and its ``row(i)`` is candidate ``i``'s
report in floats, which is what :func:`evaluate_point` returns.  A finite
candidate's security budget enters as its one log share of eps_col, indexed
from the distinct block sizes like the coherent-attack penalty.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .channel import (ChannelParams, ProtocolParams, arm_transmittance,
                      heralding_arrays, tally_arrays)
from .keyrate import (KeyRateReport, coherent_attack_penalty, collective_rate_array,
                      ec_leakage_array, security_budget)
from .mapping import require_amplitude, require_fluct, virtual_intensity_array
from .phase_error import decomposition_arrays, phase_error_arrays

ASYMPTOTIC = "asymptotic"


def require_block(block_size) -> None:
    """Raise ValueError unless ``block_size`` is ASYMPTOTIC or a finite real
    number of at least 1 (a bool is not a block size)."""
    if block_size == ASYMPTOTIC:
        return
    if not (isinstance(block_size, Real) and not isinstance(block_size, bool)
            and 1.0 <= block_size <= sys.float_info.max):
        raise ValueError(f"block_size must be {ASYMPTOTIC!r} or a finite number "
                         f">= 1, got {block_size!r}")


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


class SecurityConfigError(ValueError):
    """Raised for an invalid security setting."""


@dataclass(frozen=True)
class SecurityConfig:
    """Security target and accounting constants shared across a scan.

    eps_coh_target lies in (0, 1); the error-correction efficiency f is at
    least 1 (leakage below the Shannon limit would inflate every rate); the
    post-selection dimension d is an integer of at least 2.
    """

    eps_coh_target: float = 1e-10
    f: float = 1.1
    d: int = 8

    def __post_init__(self) -> None:
        for field, ok, requirement in (
                ("eps_coh_target", 0.0 < self.eps_coh_target < 1.0, "lie in (0, 1)"),
                ("f", self.f >= 1.0, "be >= 1"),
                ("d", isinstance(self.d, Integral) and self.d >= 2,
                 "be an integer >= 2")):
            if not ok:
                raise SecurityConfigError(
                    f"{field} must {requirement}, got {getattr(self, field)!r}")


def evaluate_points(channel: ChannelParams, calib: SourceCalibration,
                    p0: np.ndarray, px: np.ndarray, mu_A: np.ndarray,
                    mu_B: np.ndarray, eta, security: SecurityConfig,
                    block_size, mode: str = "improved", block=0) -> KeyRateReport:
    """Key rates of the candidates (p0, px, mu_A, mu_B), elementwise, as a
    :class:`KeyRateReport` of arrays.

    The candidates' inputs, ``eta`` (the one-arm transmittance) and
    ``block`` are inputs that broadcast together; ``channel`` gives the
    dark-count and misalignment probabilities, and its distance is not
    read.  ``block_size`` is ASYMPTOTIC, one finite block size, or a tuple
    of finite block sizes, of which the integer ``block`` picks each
    candidate's.  The inputs must satisfy what :class:`ProtocolParams`
    checks for one candidate.  Each element's result is the one
    :func:`evaluate_point` gives for that candidate alone.
    """
    # The security budget's share and the coherent-attack penalty are
    # computed once per distinct block size by the scalar formulas (numpy's
    # log1p and log2 need not match libm to the last bit), then indexed per
    # candidate.
    sizes = list(block_size) if isinstance(block_size, tuple) else [block_size]
    for size in sizes:
        require_block(size)
    mu_vA, ok_A = virtual_intensity_array(mu_A, calib.av0, calib.fluct)
    # One array as both intensities, at equal vacuum bounds: mu-only work once.
    mu_vB, ok_B = ((mu_vA, ok_A) if mu_B is mu_A and calib.bv0 == calib.av0
                   else virtual_intensity_array(mu_B, calib.bv0, calib.fluct))
    asymptotic = sizes == [ASYMPTOTIC]
    if asymptotic:
        n, log_share = 1.0, None
    else:
        sizes = [float(size) for size in sizes]
        n = np.array(sizes)[block]
        log_share = np.array([
            security_budget(security.eps_coh_target, size, security.d).log_eps_share
            for size in sizes])[block]
    probs = heralding_arrays(mu_A, mu_B, eta, channel.e_d, channel.p_d, mode)
    n_O, n_B, n_Z = tally_arrays(p0, px, n, *probs)
    leak = ec_leakage_array(n_O, n_B, n_Z, security.f)
    has_z = n_Z > 0.0
    coeffs = decomposition_arrays(mu_vA, mu_vB)
    if asymptotic:
        # N p0 px cancels from the asymptotic e_ph (see phase_error): the
        # heralding probabilities give it on their own, px-free axes.
        p_O, p_B, p_Z = probs
        has_p = p_Z > 0.0
        e_ph = phase_error_arrays(p_O, p_B, np.where(has_p, p_Z, 1.0), 1.0, 1.0,
                                  1.0, *coeffs, log_xi=None)[-1]
        e_ph = np.where(has_p, e_ph, 0.5)
        if not has_z.all():  # n_Z underflows to 0 where p_Z does not
            e_ph = np.where(has_z, e_ph, 0.5)
    else:
        e_ph = phase_error_arrays(n_O, n_B, np.where(has_z, n_Z, 1.0), n, p0, px,
                                  *coeffs, log_xi=log_share)[-1]
        e_ph = np.where(has_z, e_ph, 0.5)
    r_col = np.where(has_z, collective_rate_array(n_Z, e_ph, leak, log_share,
                                                  security.d, n), -np.inf)
    r_coh = r_col if asymptotic else r_col - np.array(
        [coherent_attack_penalty(size, security.d) for size in sizes])[block]
    return KeyRateReport(*np.broadcast_arrays(ok_A & ok_B, mu_vA, mu_vB, n_O, n_B,
                                              n_Z, e_ph, leak, r_col, r_coh))


def evaluate_point(channel: ChannelParams, calib: SourceCalibration,
                   protocol: ProtocolParams, security: SecurityConfig,
                   block_size: float | str) -> KeyRateReport:
    """Key-rate report for one candidate protocol at one block size.

    An asymptotic point is one window (N = 1) with no Chernoff slack, no
    security budget and no finite-size or coherent-attack penalty, so its
    collective and coherent rates coincide.  Raises InfeasibleError when the
    worst-case source bounds admit no virtual-protocol mapping.
    """
    one = [np.array([v]) for v in (protocol.p0, protocol.px,
                                   protocol.mu_xA, protocol.mu_xB)]
    batch = evaluate_points(channel, calib, *one, arm_transmittance(channel),
                            security, block_size, protocol.mode)
    if not batch.feasible[0]:
        raise InfeasibleError(
            f"no virtual-protocol mapping for mu_xA={protocol.mu_xA!r}, "
            f"mu_xB={protocol.mu_xB!r} at fluct={calib.fluct!r}")
    return batch.row(0)
