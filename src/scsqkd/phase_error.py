"""Finite-size upper bound on the phase-flip error rate.

The joint state of an untagged window decomposes into the both-vacuum and
both-coherent components plus a residual with norm coefficient c2bar, which
lets the phase-error click probability be bounded by the observable O- and
B-window heralding counts.  Chernoff estimation then converts counts to
expected values and back at the supplied failure probability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ProtocolParams, WindowTally
from .chernoff import (expectation_upper_array, observed_upper_array,
                       resolve_log_xi)

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


def decomposition_arrays(mu_A, mu_B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c0, c1, c2bar) elementwise; see :func:`decomposition_coeffs`."""
    c0 = np.exp(-(mu_A + mu_B) / 4.0)
    c1 = 1.0 / c0
    fac_a = c0 + c1 - 2.0 * np.exp(-mu_A / 2.0)
    fac_b = c0 + c1 - 2.0 * np.exp(-mu_B / 2.0)
    # AM-GM gives c0 + c1 >= 2 >= 2 exp(-mu/2); clamp rounding residue.
    return c0, c1, np.sqrt(np.maximum(fac_a, 0.0) * np.maximum(fac_b, 0.0))


def decomposition_coeffs(mu_A: float, mu_B: float) -> DecompositionCoeffs:
    """Decomposition coefficients for the given virtual intensities.

    Uses c0 = exp(-(mu_A + mu_B) / 4) and c1 = 1 / c0.
    """
    if mu_A < 0.0 or mu_B < 0.0:
        raise PhaseErrorInputError("intensities must be nonnegative")
    c0, c1, c2bar = decomposition_arrays(np.array([mu_A]), np.array([mu_B]))
    return DecompositionCoeffs(c0=float(c0[0]), c1=float(c1[0]), c2bar=float(c2bar[0]))


def _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2):
    return (p0 * px / 2.0) * (
        (c0 * c0 / (p0 * p0)) * nO_U
        + (c1 * c1 / (px * px)) * nB_U
        + c2 * c2 * N
        + (2.0 * c0 * c1 / (p0 * px)) * np.sqrt(nO_U * nB_U)
        + (2.0 * c0 * c2 / p0) * np.sqrt(N * nO_U)
        + (2.0 * c1 * c2 / px) * np.sqrt(N * nB_U)
    )


def mean_phase_error_count(nO_U: float, nB_U: float, N: float, p0: float,
                           px: float, coeffs: DecompositionCoeffs) -> float:
    """Upper bound on the expected number of phase errors over N windows."""
    return float(_mean_count(nO_U, nB_U, N, p0, px,
                             coeffs.c0, coeffs.c1, coeffs.c2bar))


def phase_error_arrays(n_O, n_B, n_Z, N: float, p0, px, c0, c1, c2,
                       log_xi: float | None) -> tuple[np.ndarray, ...]:
    """(mean_nO_U, mean_nB_U, mean_Nph_U, Nph_U, e_ph) elementwise.

    Needs n_Z > 0.  ``log_xi=None`` is the asymptotic bound: the counts are
    taken as exact expected values, with no Chernoff slack.
    """
    if log_xi is None:
        nO_U, nB_U = n_O, n_B
    else:
        nO_U, nB_U = np.split(
            expectation_upper_array(np.concatenate((n_O, n_B)), log_xi), 2)
    mean_nph = _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2)
    nph = mean_nph if log_xi is None else observed_upper_array(mean_nph, log_xi)
    return nO_U, nB_U, mean_nph, nph, np.minimum(nph / n_Z, 0.5)


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
    lx = None if asymptotic else resolve_log_xi(xi, log_xi)
    values = phase_error_arrays(
        np.array([tally.n_O]), np.array([tally.n_B]), np.array([tally.n_Z]),
        protocol.N, protocol.p0, protocol.px,
        coeffs.c0, coeffs.c1, coeffs.c2bar, lx)
    return PhaseErrorBound(*(float(v[0]) for v in values))
