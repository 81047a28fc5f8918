"""Finite-size upper bound on the phase-flip error rate.

The joint state of an untagged window decomposes into the both-vacuum and
both-coherent components plus a residual with norm coefficient c2bar, which
lets the phase-error click probability be bounded by the observable O- and
B-window heralding counts.  Chernoff estimation then converts counts to
expected values and back at the supplied failure probability.
"""
from __future__ import annotations

import numpy as np

from .chernoff import expectation_upper, observed_upper


def decomposition_arrays(mu_A, mu_B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decomposition coefficients (c0, c1, c2bar) for virtual intensities.

    Elementwise c0 = exp(-(mu_A + mu_B) / 4) and c1 = 1 / c0; the closed
    form of the residual norm c2bar needs c0 * c1 = 1.
    """
    c0 = np.exp(-(mu_A + mu_B) / 4.0)
    c1 = 1.0 / c0
    fac_a = c0 + c1 - 2.0 * np.exp(-mu_A / 2.0)
    fac_b = c0 + c1 - 2.0 * np.exp(-mu_B / 2.0)
    # AM-GM gives c0 + c1 >= 2 >= 2 exp(-mu/2); clamp rounding residue.
    return c0, c1, np.sqrt(np.maximum(fac_a, 0.0) * np.maximum(fac_b, 0.0))


def _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2):
    """Upper bound on the expected number of phase errors over N windows."""
    return (p0 * px / 2.0) * (
        (c0 * c0 / (p0 * p0)) * nO_U
        + (c1 * c1 / (px * px)) * nB_U
        + c2 * c2 * N
        + (2.0 * c0 * c1 / (p0 * px)) * np.sqrt(nO_U * nB_U)
        + (2.0 * c0 * c2 / p0) * np.sqrt(N * nO_U)
        + (2.0 * c1 * c2 / px) * np.sqrt(N * nB_U)
    )


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
            expectation_upper(np.concatenate((n_O, n_B)), log_xi), 2)
    mean_nph = _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2)
    nph = mean_nph if log_xi is None else observed_upper(mean_nph, log_xi)
    return nO_U, nB_U, mean_nph, nph, np.minimum(nph / n_Z, 0.5)

