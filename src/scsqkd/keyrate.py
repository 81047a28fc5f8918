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


class SecurityBudgetError(ValueError):
    """Raised for invalid security-budget inputs."""


@dataclass(frozen=True)
class SecurityParams:
    """Resolved composable-security budget (component logs, natural base)."""

    eps_coh_target: float
    log_eps_col: float
    log_eps_cor: float
    log_eps_bar: float
    log_eps_PA: float
    log_epsilon: float
    d: int = 8
    n_PE: int = 3
    f: float = 1.1


def binary_entropy_array(x) -> np.ndarray:
    """Elementwise binary entropy of x in [0, 1]; see :func:`binary_entropy`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def binary_entropy(x: float) -> float:
    """Shannon entropy H(x) in bits, with H(0) = H(1) = 0 by continuity."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    return float(binary_entropy_array(np.array([x]))[0])


def security_budget(eps_coh_target: float, N: float, d: int = 8, n_PE: int = 3,
                    f: float = 1.1,
                    split: tuple[float, float, float, float] | None = None
                    ) -> SecurityParams:
    """Resolve the component failure probabilities from a coherent-attack target.

    ``split`` optionally gives the weights (w_cor, w_bar, w_PA, w_eps) with
    w_cor + w_bar + w_PA + n_PE * w_eps = 1; the default splits eps_col into
    six equal shares (parameter estimation consumes n_PE = 3 of them).
    """
    if not (0.0 < eps_coh_target < 1.0):
        raise SecurityBudgetError(
            f"eps_coh_target must lie in (0, 1), got {eps_coh_target!r}")
    if N < 0:
        raise SecurityBudgetError(f"N must be nonnegative, got {N!r}")
    if split is None:
        share = 1.0 / (3.0 + n_PE)
        split = (share, share, share, share)
    w_cor, w_bar, w_pa, w_eps = split
    if any(w <= 0.0 for w in split):
        raise SecurityBudgetError("split weights must be positive")
    if abs(w_cor + w_bar + w_pa + n_PE * w_eps - 1.0) > 1e-9:
        raise SecurityBudgetError("split weights must recompose eps_col")
    log_eps_col = math.log(eps_coh_target) - (d * d - 1) * math.log1p(N)
    return SecurityParams(
        eps_coh_target=eps_coh_target,
        log_eps_col=log_eps_col,
        log_eps_cor=log_eps_col + math.log(w_cor),
        log_eps_bar=log_eps_col + math.log(w_bar),
        log_eps_PA=log_eps_col + math.log(w_pa),
        log_epsilon=log_eps_col + math.log(w_eps),
        d=d,
        n_PE=n_PE,
        f=f,
    )


def ec_leakage_array(n_O, n_B, n_Z, f: float) -> np.ndarray:
    """Elementwise error-correction leakage in bits; see :func:`ec_leakage`."""
    total = n_O + n_B + n_Z
    e_z = np.where(total > 0.0, (n_O + n_B) / np.where(total > 0.0, total, 1.0), 0.0)
    return f * total * binary_entropy_array(e_z)


def ec_leakage(tally: WindowTally, f: float) -> float:
    """Error-correction information leakage in bits."""
    return float(ec_leakage_array(np.array([tally.n_O]), np.array([tally.n_B]),
                                  np.array([tally.n_Z]), f)[0])


def collective_rate_array(n_Z, e_ph, leak, sec: SecurityParams | None,
                          N: float) -> np.ndarray:
    """Signed collective-attack rates for n_Z > 0, with the leakage given.

    ``sec=None`` is the asymptotic rate ``n_Z (1 - H(e_ph)) - leak`` of one
    window, without the finite-size terms.
    """
    rate = n_Z * (1.0 - binary_entropy_array(e_ph)) - leak
    if sec is None:
        return rate
    log2_2_over_cor = 1.0 - sec.log_eps_cor / _LN2
    log2_1_over_pa = -sec.log_eps_PA / _LN2
    log2_2_over_bar = 1.0 - sec.log_eps_bar / _LN2
    return (rate
            - log2_2_over_cor
            - 2.0 * log2_1_over_pa
            - (sec.d + 3.0) * np.sqrt(n_Z * log2_2_over_bar)) / N


def key_rate_collective(tally: WindowTally, e_ph: float, sec: SecurityParams,
                        N: float, signed: bool = False) -> float:
    """Per-window key rate under collective attack (bits/window).

    With ``signed=True`` the unclamped value is returned so optimizers can
    climb out of infeasible regions.
    """
    if not (0.0 <= e_ph <= 0.5):
        raise ValueError(f"e_ph must lie in [0, 0.5], got {e_ph!r}")
    if tally.n_Z <= 0.0:
        return -math.inf if signed else 0.0
    rate = float(collective_rate_array(np.array([tally.n_Z]), np.array([e_ph]),
                                       ec_leakage(tally, sec.f), sec, N)[0])
    return rate if signed else max(rate, 0.0)


def coherent_attack_penalty(N: float, d: int = 8) -> float:
    """Post-selection cost of lifting a collective-attack rate (bits/window)."""
    return 2.0 * (d * d - 1) * math.log2(N + 1.0) / N


def key_rate_coherent(R_col: float, N: float, d: int = 8,
                      signed: bool = False) -> float:
    """Key rate under coherent attack via the post-selection technique."""
    rate = R_col - coherent_attack_penalty(N, d)
    return rate if signed else max(rate, 0.0)


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
