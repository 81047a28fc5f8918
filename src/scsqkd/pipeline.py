"""End-to-end evaluation of (channel, protocol, block size) points.

Glues the modules together: worst-case source bounds -> virtual intensities,
channel expectations at nominal intensities, phase-error bound at the
resolved security budget, and the collective/coherent key rates.  The block
size may be the literal string "asymptotic", in which case Chernoff slack
and all finite-size penalty terms vanish.

:func:`evaluate_points` evaluates an array of candidates in one pass, with a
feasibility mask where the source bounds admit no virtual-protocol mapping;
:func:`evaluate_point` is the same computation on one candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .channel import ChannelParams, ProtocolParams, WindowTally, tally_arrays
from .keyrate import (KeyRateReport, SecurityParams, collective_rate_array,
                      ec_leakage_array, key_rate_coherent, security_budget)
from .mapping import require_amplitude, require_fluct, virtual_intensity_array
from .phase_error import decomposition_arrays, phase_error_arrays

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


@dataclass(frozen=True)
class PointBatch:
    """Elementwise evaluation of candidates at one block size.

    Entries where ``feasible`` is False carry no meaning.
    """

    feasible: np.ndarray
    mu_virtual_A: np.ndarray
    mu_virtual_B: np.ndarray
    n_O: np.ndarray
    n_B: np.ndarray
    n_Z: np.ndarray
    e_ph: np.ndarray
    leak_EC: np.ndarray
    R_col_signed: np.ndarray
    R_coh_signed: np.ndarray
    budget: SecurityParams | None  # None in asymptotic mode

    def report(self, i: int) -> KeyRateReport:
        """Key-rate report of candidate ``i``."""
        r_col, r_coh = float(self.R_col_signed[i]), float(self.R_coh_signed[i])
        return KeyRateReport(
            R_col=max(r_col, 0.0), R_coh=max(r_coh, 0.0), e_ph=float(self.e_ph[i]),
            leak_EC=float(self.leak_EC[i]),
            tally=WindowTally(n_O=float(self.n_O[i]), n_B=float(self.n_B[i]),
                              n_Z=float(self.n_Z[i])),
            budget=self.budget, R_col_signed=r_col, R_coh_signed=r_coh,
            mu_virtual_A=float(self.mu_virtual_A[i]),
            mu_virtual_B=float(self.mu_virtual_B[i]))


def evaluate_points(channel: ChannelParams, calib: SourceCalibration,
                    p0: np.ndarray, px: np.ndarray, mu_A: np.ndarray,
                    mu_B: np.ndarray, security: SecurityConfig,
                    block_size: float | str, mode: str = "improved") -> PointBatch:
    """Key rates of the candidates (p0[i], px[i], mu_A[i], mu_B[i]).

    The arrays must satisfy what :class:`ProtocolParams` checks for one
    candidate.  Each element's result is the one :func:`evaluate_point`
    gives for that candidate alone.
    """
    mu_vA, ok_A = virtual_intensity_array(mu_A, calib.av0, calib.fluct)
    mu_vB, ok_B = virtual_intensity_array(mu_B, calib.bv0, calib.fluct)
    asymptotic = block_size == ASYMPTOTIC
    n = 1.0 if asymptotic else float(block_size)
    sec = None if asymptotic else security_budget(security.eps_coh_target, n,
                                                  security.d)
    n_O, n_B, n_Z = tally_arrays(p0, px, mu_A, mu_B, n, channel, mode)
    leak = ec_leakage_array(n_O, n_B, n_Z, security.f)
    has_z = n_Z > 0.0
    e_ph = phase_error_arrays(
        n_O, n_B, np.where(has_z, n_Z, 1.0), n, p0, px,
        *decomposition_arrays(mu_vA, mu_vB),
        log_xi=None if sec is None else sec.log_epsilon)[-1]
    e_ph = np.where(has_z, e_ph, 0.5)
    r_col = np.where(has_z, collective_rate_array(n_Z, e_ph, leak, sec, n), -np.inf)
    r_coh = r_col if sec is None else key_rate_coherent(r_col, n, security.d)
    return PointBatch(feasible=ok_A & ok_B, mu_virtual_A=mu_vA, mu_virtual_B=mu_vB,
                      n_O=n_O, n_B=n_B, n_Z=n_Z, e_ph=e_ph, leak_EC=leak,
                      R_col_signed=r_col, R_coh_signed=r_coh, budget=sec)


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
    batch = evaluate_points(channel, calib, *one, security, block_size,
                            protocol.mode)
    if not batch.feasible[0]:
        raise InfeasibleError(
            f"no virtual-protocol mapping for mu_xA={protocol.mu_xA!r}, "
            f"mu_xB={protocol.mu_xB!r} at fluct={calib.fluct!r}")
    return batch.report(0)
