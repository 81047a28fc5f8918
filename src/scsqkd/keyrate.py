"""Key rates under collective and coherent attack, with security budget.

The coherent-attack security coefficient relates to the collective one by
eps_coh = eps_col * (N + 1)^(d^2 - 1); for d = 8 and realistic block sizes
eps_col underflows IEEE doubles, so every component failure probability is
carried as a natural logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import WindowTally

_LN2 = math.log(2.0)

# Parameter estimation spends this many shares of eps_col.
N_PE = 3


class SecurityBudgetError(ValueError):
    """Raised for invalid security-budget inputs."""


@dataclass(frozen=True)
class SecurityParams:
    """Resolved composable-security budget (component logs, natural base)."""

    log_eps_col: float
    log_eps_cor: float
    log_eps_bar: float
    log_eps_PA: float
    log_epsilon: float
    d: int


def binary_entropy(x) -> np.ndarray:
    """Shannon entropy H(x) in bits of x in [0, 1], elementwise.

    H(0) = H(1) = 0 by continuity.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def security_budget(eps_coh_target: float, N: float, d: int) -> SecurityParams:
    """Resolve the component failure probabilities from a coherent-attack target.

    eps_col is split into 3 + N_PE equal shares: one each for correctness,
    smoothing and privacy amplification, and N_PE for parameter estimation.
    """
    if not (0.0 < eps_coh_target < 1.0):
        raise SecurityBudgetError(
            f"eps_coh_target must lie in (0, 1), got {eps_coh_target!r}")
    if N < 0:
        raise SecurityBudgetError(f"N must be nonnegative, got {N!r}")
    log_eps_col = math.log(eps_coh_target) - (d * d - 1) * math.log1p(N)
    log_share = log_eps_col + math.log(1.0 / (3.0 + N_PE))
    return SecurityParams(
        log_eps_col=log_eps_col,
        log_eps_cor=log_share,
        log_eps_bar=log_share,
        log_eps_PA=log_share,
        log_epsilon=log_share,
        d=d,
    )


def ec_leakage_array(n_O, n_B, n_Z, f: float) -> np.ndarray:
    """Error-correction information leakage in bits, elementwise.

    ``f`` times the raw-key length times H(E_Z); 0 for an empty tally.
    """
    total = n_O + n_B + n_Z
    e_z = np.where(total > 0.0, (n_O + n_B) / np.where(total > 0.0, total, 1.0), 0.0)
    return f * total * binary_entropy(e_z)


def collective_rate_array(n_Z, e_ph, leak, sec: SecurityParams | None,
                          N: float) -> np.ndarray:
    """Signed collective-attack rates for n_Z > 0, with the leakage given.

    ``sec=None`` is the asymptotic rate ``n_Z (1 - H(e_ph)) - leak`` of one
    window, without the finite-size terms.
    """
    rate = n_Z * (1.0 - binary_entropy(e_ph)) - leak
    if sec is None:
        return rate
    log2_2_over_cor = 1.0 - sec.log_eps_cor / _LN2
    log2_1_over_pa = -sec.log_eps_PA / _LN2
    log2_2_over_bar = 1.0 - sec.log_eps_bar / _LN2
    return (rate
            - log2_2_over_cor
            - 2.0 * log2_1_over_pa
            - (sec.d + 3.0) * np.sqrt(n_Z * log2_2_over_bar)) / N


def coherent_attack_penalty(N: float, d: int) -> float:
    """Post-selection cost of lifting a collective-attack rate (bits/window)."""
    return 2.0 * (d * d - 1) * math.log2(N + 1.0) / N


def key_rate_coherent(R_col, N: float, d: int):
    """Signed key rate under coherent attack via the post-selection technique."""
    return R_col - coherent_attack_penalty(N, d)


@dataclass(frozen=True)
class KeyRateReport:
    """Evaluation result for one channel/protocol/block-size point."""

    R_col: float
    R_coh: float
    e_ph: float
    leak_EC: float
    tally: WindowTally
    budget: SecurityParams | None  # None in asymptotic mode
    # Diagnostics: unclamped rates and the virtual intensities used for the
    # security analysis.
    R_col_signed: float = 0.0
    R_coh_signed: float = 0.0
    mu_virtual_A: float = 0.0
    mu_virtual_B: float = 0.0
