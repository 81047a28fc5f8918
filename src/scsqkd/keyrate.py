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

from .channel import error_share, raw_error_rate

_LN2 = math.log(2.0)

# Parameter estimation spends this many shares of eps_col.
N_PE = 3


def binary_entropy(x) -> np.ndarray:
    """Shannon entropy H(x) in bits of x in [0, 1], elementwise.

    H(0) = H(1) = 0 by continuity.  Evaluated in place as
    ``-(x log2(x) + y log2(y))`` with ``y = 1 - x``, which is
    ``-x log2(x) - y log2(y)`` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = 1.0 - x  # 0 exactly where x is 1
    h, t = np.empty(x.shape), np.empty(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(x, out=h)
        h *= x
        np.log2(y, out=t)
        t *= y
        h += t
    np.negative(h, out=h)
    # The 0/1 fix, unless every x lies in (0, 1); a NaN fails that test.
    if not (x.min(initial=1.0) > 0.0 and y.min(initial=1.0) > 0.0):
        np.copyto(h, 0.0, where=(x == 0.0) | (y == 0.0))
    return h


def security_budget(eps_coh_target: float, N: float, d: int) -> float:
    """ln of each of the 3 + N_PE equal shares of the collective-attack budget
    eps_col = eps_coh_target / (N + 1)^(d^2 - 1): one each for correctness,
    smoothing and privacy amplification, and N_PE for parameter estimation.
    Needs eps_coh_target in (0, 1) and N >= 0; this is not checked here
    (``SecurityConfig`` and ``require_block`` check them)."""
    return (math.log(eps_coh_target) - (d * d - 1) * math.log1p(N)
            + math.log(1.0 / (3.0 + N_PE)))


def ec_leakage_array(n_O, n_B, n_Z, f: float) -> np.ndarray:
    """Error-correction information leakage in bits, elementwise.

    ``f`` times the raw-key length times H(E_Z); 0 for an empty tally.
    """
    wrong = n_O + n_B
    total = wrong + n_Z
    # error_share's empty-tally guard, only where a total may be 0 (or NaN).
    rate = (wrong / total if np.minimum.reduce(total, axis=None, initial=1.0) > 0.0
            else error_share(wrong, total))
    del wrong  # its memory serves binary_entropy's arrays on a large pass
    h = binary_entropy(rate)
    del rate
    return f * total * h


def collective_rate_array(n_Z, e_ph, leak, log_share, d: int, N) -> np.ndarray:
    """Signed collective-attack rates for n_Z > 0, with the leakage given.

    Elementwise over inputs that broadcast together, ``log_share`` (the
    :func:`security_budget` share) included.  ``log_share=None`` is the
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

    The fields are arrays that broadcast to the candidates' shape for an
    evaluation pass, each on the shape of the inputs it depends on (on a
    (point, px, mu) grid ``feasible`` and the virtual intensities have one
    px, ``n_O`` one mu), and floats for one candidate (:meth:`row`).
    Fields may share memory; they are not to be written.  Entries where
    ``feasible`` is False carry no meaning.  The rates are signed; ``R_col``
    and ``R_coh`` clamp them at 0.
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
        feasible, *values = np.broadcast_arrays(*vars(self).values())
        return KeyRateReport(bool(feasible[i]), *[float(value[i]) for value in values])
