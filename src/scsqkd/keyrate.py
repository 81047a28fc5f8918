"""Key rates under collective and coherent attack, with security budget.

The coherent-attack security coefficient relates to the collective one by
eps_coh = eps_col * (N + 1)^(d^2 - 1); for d = 8 and realistic block sizes
eps_col underflows IEEE doubles, so every component failure probability is
carried as a natural logarithm.

:class:`KeyRateReport` is the one result type: arrays for a pass of many
candidates, floats for one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import raw_error_rate

_LN2 = math.log(2.0)

# Parameter estimation spends this many shares of eps_col.
N_PE = 3


class SecurityBudgetError(ValueError):
    """Raised for invalid security-budget inputs."""


@dataclass(frozen=True)
class SecurityParams:
    """Resolved composable-security budget (logs, natural base).

    eps_col is split into 3 + N_PE equal shares, each with the log
    ``log_eps_share``: one each for correctness, smoothing and privacy
    amplification, and N_PE for parameter estimation.
    """

    log_eps_col: float
    log_eps_share: float


def binary_entropy(x) -> np.ndarray:
    """Shannon entropy H(x) in bits of x in [0, 1], elementwise.

    H(0) = H(1) = 0 by continuity.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def security_budget(eps_coh_target: float, N: float, d: int) -> SecurityParams:
    """Resolve the collective-attack budget and its equal share from a
    coherent-attack target at block size N and post-selection dimension d."""
    if not (0.0 < eps_coh_target < 1.0):
        raise SecurityBudgetError(
            f"eps_coh_target must lie in (0, 1), got {eps_coh_target!r}")
    if N < 0:
        raise SecurityBudgetError(f"N must be nonnegative, got {N!r}")
    log_eps_col = math.log(eps_coh_target) - (d * d - 1) * math.log1p(N)
    return SecurityParams(log_eps_col=log_eps_col,
                          log_eps_share=log_eps_col + math.log(1.0 / (3.0 + N_PE)))


def ec_leakage_array(n_O, n_B, n_Z, f: float) -> np.ndarray:
    """Error-correction information leakage in bits, elementwise.

    ``f`` times the raw-key length times H(E_Z); 0 for an empty tally.
    """
    return f * (n_O + n_B + n_Z) * binary_entropy(raw_error_rate(n_O, n_B, n_Z))


def collective_rate_array(n_Z, e_ph, leak, log_share, d: int, N) -> np.ndarray:
    """Signed collective-attack rates for n_Z > 0, with the leakage given.

    Elementwise over inputs that broadcast together, ``log_share`` (the
    :class:`SecurityParams` share) included.  ``log_share=None`` is the
    asymptotic rate ``n_Z (1 - H(e_ph)) - leak`` of one window, without the
    finite-size terms.
    """
    rate = n_Z * (1.0 - binary_entropy(e_ph)) - leak
    if log_share is None:
        return rate
    # log2(1/eps) of the share: eps_cor and eps_bar enter as log2(2/eps).
    bits = -log_share / _LN2
    return (rate - (1.0 + bits) - 2.0 * bits
            - (d + 3.0) * np.sqrt(n_Z * (1.0 + bits))) / N


def coherent_attack_penalty(N: float, d: int) -> float:
    """Post-selection cost of lifting a collective-attack rate (bits/window)."""
    return 2.0 * (d * d - 1) * math.log2(N + 1.0) / N


def _clamped(rate):
    """max(rate, 0), elementwise for a pass's arrays."""
    return np.maximum(rate, 0.0) if isinstance(rate, np.ndarray) else max(rate, 0.0)


@dataclass(frozen=True)
class KeyRateReport:
    """Key rates of candidates and the quantities they come from.

    The fields are arrays of the candidates' broadcast shape for an
    evaluation pass, most of them read-only broadcast views, and floats for
    one candidate (:meth:`row`).  Entries where ``feasible`` is False carry
    no meaning.  The rates are signed; ``R_col`` and ``R_coh`` clamp them
    at 0.
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

    @property
    def R_col(self):
        return _clamped(self.R_col_signed)

    @property
    def R_coh(self):
        return _clamped(self.R_coh_signed)

    @property
    def E_Z(self):
        return raw_error_rate(self.n_O, self.n_B, self.n_Z)

    def row(self, i: int | tuple[int, ...]) -> KeyRateReport:
        """Candidate ``i`` (an int or a tuple index) of a pass, as floats."""
        # vars() holds the fields in their order, feasible first.
        feasible, *values = vars(self).values()
        return KeyRateReport(bool(feasible[i]), *[float(value[i]) for value in values])
