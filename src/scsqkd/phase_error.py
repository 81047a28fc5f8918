"""Finite-size upper bound on the phase-flip error rate.

The joint state of an untagged window decomposes into the both-vacuum and
both-coherent components plus a residual with norm coefficient c2bar, which
lets the phase-error click probability be bounded by the observable O- and
B-window heralding counts.  Chernoff estimation then converts counts to
expected values and back at the supplied failure probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ProtocolParams, WindowTally
from .chernoff import expectation_upper, observed_upper

_C0C1_RTOL = 1e-12


class PhaseErrorInputError(ValueError):
    """Raised for invalid decomposition or tally inputs."""


@dataclass(frozen=True)
class DecompositionCoeffs:
    """Superposition coefficients (c0, c1) with residual norm c2bar.

    The closed form for c2bar requires c0 * c1 = 1.
    """

    c0: float
    c1: float
    c2bar: float

    def __post_init__(self) -> None:
        if abs(self.c0 * self.c1 - 1.0) > _C0C1_RTOL:
            raise PhaseErrorInputError(
                f"c0 * c1 must equal 1, got {self.c0 * self.c1!r}")
        if self.c2bar < 0.0:
            raise PhaseErrorInputError("c2bar must be nonnegative")


@dataclass(frozen=True)
class PhaseErrorBound:
    """Intermediate bounds and the final phase-flip error rate."""

    mean_nO_U: float
    mean_nB_U: float
    mean_Nph_U: float
    Nph_U: float
    e_ph: float


def decomposition_coeffs(mu_A: float, mu_B: float) -> DecompositionCoeffs:
    """Decomposition coefficients for the given virtual intensities.

    Uses c0 = exp(-(mu_A + mu_B) / 4) and c1 = 1 / c0.
    """
    if mu_A < 0.0 or mu_B < 0.0:
        raise PhaseErrorInputError("intensities must be nonnegative")
    c0 = math.exp(-(mu_A + mu_B) / 4.0)
    c1 = 1.0 / c0
    fac_a = c0 + c1 - 2.0 * math.exp(-mu_A / 2.0)
    fac_b = c0 + c1 - 2.0 * math.exp(-mu_B / 2.0)
    # AM-GM gives c0 + c1 >= 2 >= 2 exp(-mu/2); clamp rounding residue.
    c2sq = max(fac_a, 0.0) * max(fac_b, 0.0)
    return DecompositionCoeffs(c0=c0, c1=c1, c2bar=math.sqrt(c2sq))


def mean_phase_error_count(nO_U: float, nB_U: float, N: float, p0: float,
                           px: float, coeffs: DecompositionCoeffs) -> float:
    """Upper bound on the expected number of phase errors over N windows."""
    c0, c1, c2 = coeffs.c0, coeffs.c1, coeffs.c2bar
    return (p0 * px / 2.0) * (
        (c0 * c0 / (p0 * p0)) * nO_U
        + (c1 * c1 / (px * px)) * nB_U
        + c2 * c2 * N
        + (2.0 * c0 * c1 / (p0 * px)) * math.sqrt(nO_U * nB_U)
        + (2.0 * c0 * c2 / p0) * math.sqrt(N * nO_U)
        + (2.0 * c1 * c2 / px) * math.sqrt(N * nB_U)
    )


def phase_error_rate_upper(tally: WindowTally, protocol: ProtocolParams,
                           coeffs: DecompositionCoeffs,
                           xi: float | None = None, *,
                           log_xi: float | None = None,
                           asymptotic: bool = False) -> PhaseErrorBound:
    """Upper bound on the phase-flip error rate from effective-window counts.

    In asymptotic mode the Chernoff steps are bypassed and the counts are
    treated as exact expected values (no statistical slack).
    """
    if tally.n_Z <= 0.0:
        raise PhaseErrorInputError("no effective Z windows: e_ph undefined")
    if asymptotic:
        nO_U, nB_U = tally.n_O, tally.n_B
    else:
        lx = log_xi if xi is None else None
        nO_U = expectation_upper(tally.n_O, xi, log_xi=lx)
        nB_U = expectation_upper(tally.n_B, xi, log_xi=lx)
    mean_nph = mean_phase_error_count(nO_U, nB_U, protocol.N, protocol.p0,
                                      protocol.px, coeffs)
    if asymptotic or mean_nph == 0.0:
        nph = mean_nph
    else:
        lx = log_xi if xi is None else None
        nph = observed_upper(mean_nph, xi, log_xi=lx)
    e_ph = min(nph / tally.n_Z, 0.5)
    return PhaseErrorBound(mean_nO_U=nO_U, mean_nB_U=nB_U,
                           mean_Nph_U=mean_nph, Nph_U=nph, e_ph=e_ph)
