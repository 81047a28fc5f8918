"""Finite-size upper bound on the phase-flip error rate.

The joint state of an untagged window decomposes into the both-vacuum and
both-coherent components plus a residual with norm coefficient c2bar, which
lets the phase-error click probability be bounded by the observable O- and
B-window heralding counts.  Chernoff estimation then converts counts to
expected values and back at the supplied failure probability.

In the asymptotic limit the counts are exact expected values over N
windows: ``n_O = N p0^2 p_O``, ``n_B = N px^2 p_B`` and ``n_Z = N p0 px p_Z``
with the heralding probabilities of one window.  The mean count of
:func:`_mean_count` is then ``(N p0 px / 2) (c0 sqrt(p_O) + c1 sqrt(p_B)
+ c2)^2``, so ``N p0 px`` cancels from ``e_ph = mean / n_Z``:

    e_ph = min((c0 sqrt(p_O) + c1 sqrt(p_B) + c2)^2 / (2 p_Z), 1/2),

which depends on the intensities and the channel only, not on px or N.  It
is :func:`phase_error_arrays` of the probabilities ``(p_O, p_B, p_Z)`` with
``N = p0 = px = 1``.
"""
from __future__ import annotations

import numpy as np

from .chernoff import expectation_upper, observed_upper


def decomposition_arrays(mu_A, mu_B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decomposition coefficients (c0, c1, c2bar) for virtual intensities.

    Elementwise c0 = exp(-(mu_A + mu_B) / 4) and c1 = 1 / c0; the closed
    form of the residual norm c2bar needs c0 * c1 = 1.  Passing one array
    as both intensities computes its factor once.
    """
    # x / -4.0 is -(x / 4.0) bit for bit, without the negation's array.
    # For one array, (mu + mu) / -4.0 is mu / -2.0 bit for bit (doubling is
    # exact and both round mu / 2 once), so c0 is exp(-mu/2) as well.
    same = mu_B is mu_A
    c0 = np.exp(mu_A / -2.0 if same else (mu_A + mu_B) / -4.0)
    c1 = 1.0 / c0
    # AM-GM gives c0 + c1 >= 2 >= 2 exp(-mu/2); clamp rounding residue.
    fac_a = np.maximum(c0 + c1 - 2.0 * (c0 if same else np.exp(mu_A / -2.0)), 0.0)
    fac_b = fac_a if same else np.maximum(c0 + c1 - 2.0 * np.exp(mu_B / -2.0), 0.0)
    return c0, c1, np.sqrt(fac_a * fac_b)


def _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2):
    """Upper bound on the expected number of phase errors over N windows.

    The six-term bound
    ``(p0 px / 2) [c0^2 nO_U / p0^2 + c1^2 nB_U / px^2 + c2^2 N
    + 2 c0 c1 sqrt(nO_U nB_U) / (p0 px) + 2 c0 c2 sqrt(N nO_U) / p0
    + 2 c1 c2 sqrt(N nB_U) / px]`` is the perfect square
    ``(p0 px / 2) (c0 sqrt(nO_U) / p0 + c1 sqrt(nB_U) / px + c2 sqrt(N))^2``,
    evaluated as such: each square root runs on the shape of its count.

    As px -> 0 the bound tends to +inf, which an overflowed bracket or
    square gives without a warning.  ``p0 px / 2`` rounds to 0 only at
    px = 5e-324, where the bracket is inf; the smallest positive double
    takes its place there, so the product is inf, not 0 inf = NaN.
    """
    with np.errstate(over="ignore"):
        return np.maximum(p0 * px / 2.0, 5e-324) * (
            c0 * (np.sqrt(nO_U) / p0) + c1 * (np.sqrt(nB_U) / px) + c2 * np.sqrt(N)) ** 2


def phase_error_arrays(n_O, n_B, n_Z, N, p0, px, c0, c1, c2,
                       log_xi) -> tuple[np.ndarray, ...]:
    """(mean_nO_U, mean_nB_U, mean_Nph_U, Nph_U, e_ph) elementwise.

    Needs n_Z > 0.  The inputs broadcast together, and each Chernoff bound
    is computed on the shape of its count and ``log_xi``: the n_O and n_B
    bounds in one solve over their concatenated counts.  ``log_xi=None`` is
    the asymptotic bound: the counts are taken as exact expected values,
    with no Chernoff slack.  Given the heralding probabilities of one window
    as counts, with ``N = p0 = px = 1``, it gives the asymptotic e_ph of
    every block size and px (see the module docstring).
    """
    if log_xi is None:
        nO_U, nB_U = n_O, n_B
    else:
        o, b, lx = np.asarray(n_O), np.asarray(n_B), np.asarray(log_xi)
        if (lx.shape[-1:] in ((), (1,)) and 0 < o.ndim == b.ndim
                and o.shape[:-1] == b.shape[:-1]):
            # Joined along their last axis, on which log_xi has length 1 (a
            # value per point of a search pass), the counts take log_xi as it
            # is: no copy of it at the counts' size.
            bounds = expectation_upper(np.concatenate((o, b), axis=-1), lx)
            nO_U, nB_U = bounds[..., :o.shape[-1]], bounds[..., o.shape[-1]:]
        else:
            (o, lx_o), (b, lx_b) = (np.broadcast_arrays(n, lx) for n in (o, b))
            bounds = expectation_upper(np.concatenate((o, b), axis=None),
                                       np.concatenate((lx_o, lx_b), axis=None))
            nO_U = bounds[:o.size].reshape(o.shape)
            nB_U = bounds[o.size:].reshape(b.shape)
    mean_nph = _mean_count(nO_U, nB_U, N, p0, px, c0, c1, c2)
    nph = mean_nph if log_xi is None else observed_upper(mean_nph, log_xi)
    return nO_U, nB_U, mean_nph, nph, np.minimum(nph / n_Z, 0.5)

