"""Chernoff upper bounds between observed and expected counts.

Two of the bounds of Zhang et al., PRA 95, 012333 (2017) enter the phase
error: an upper bound on an expected value given its observed count, and an
upper bound on an observed count given its expected value.  Each solves a
transcendental equation at a failure probability xi.  Written with the bound
as a multiple of the given count, they read

    expectation_upper:  X * (ln u - u + 1)   = ln(xi),  bound X * u
    observed_upper:     Y * (v - 1 - v ln v) = ln(xi),  bound Y * v

with u, v > 1.  Both left sides are concave, vanish at 1 and decrease above
it, so Newton's method started beyond the root moves toward it monotonically
and never crosses it.  The start is the Gaussian guess, a deviation sqrt(2t)
from 1 with t = |ln xi| / X, moved to 1 + sqrt(2t) + t, which provably lies
beyond the root.  An element stops once its residual is within rounding of
its terms, or once a step no longer moves it toward the root; a bisection
between the iterate and 1 backs up elements that are still moving after
``_MAX_NEWTON`` steps.

Each bound is solved in w = u - 1 or v - 1 through ``log1p``, which keeps it
accurate near 1.

The failure probability enters only as its natural log, a finite
``log_xi < 0``, because the resolved security budget can lie far below the
smallest positive double.  Each bound is one function, elementwise over an
array (or scalar) of nonnegative counts.  A call checks ``log_xi``, which
costs the same at any array size, but not the counts.
"""
from __future__ import annotations

import numpy as np

_MAX_NEWTON = 60
# Residuals within this multiple of their terms' magnitude are rounding noise.
_NOISE = 8.0 * np.finfo(float).eps


class ChernoffDomainError(ValueError):
    """Raised for arguments outside a bound's domain."""


def _newton(residual, w, *args) -> np.ndarray:
    """Root of a concave ``residual(w, *args) -> (h, dh/dw, noise scale)``.

    Elementwise.  ``w`` starts beyond the root (h <= 0), and the residual is
    positive between 0 and the root, so every step decreases ``w``.  An
    element stops once its residual is within rounding of its terms'
    magnitudes (the noise scale), or once a step no longer decreases it.
    """
    active = np.ones(w.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        h, slope, scale = residual(w, *args)
        new = w - h / slope
        active &= (np.abs(h) > _NOISE * scale) & (new < w)
        if not active.any():
            return w
        w = np.where(active, new, w)
    # Bisection for the elements Newton left moving.
    idx = np.flatnonzero(active)
    sub = [np.broadcast_to(a, w.shape).ravel()[idx] for a in args]
    lo, hi = w.ravel()[idx], np.zeros(idx.size)
    while True:
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        beyond = residual(mid, *sub)[0] <= 0.0
        lo = np.where(moving & beyond, mid, lo)
        hi = np.where(moving & ~beyond, mid, hi)
    out = w.flatten()
    out[idx] = lo
    return out.reshape(w.shape)


def _expectation_upper_residual(w, t):  # w = u - 1 > 0
    lg = np.log1p(w)
    return lg - w + t, -w / (1.0 + w), lg + w + t


def _observed_upper_residual(w, t):  # w = v - 1 > 0
    lg = np.log1p(w)
    return w - (1.0 + w) * lg + t, -lg, w + (1.0 + w) * lg + t


def _ratio(counts, log_xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, empty mask, t = -log_xi / count with empty counts set to 1)."""
    if not np.all(np.isfinite(log_xi) & np.less(log_xi, 0.0)):
        raise ChernoffDomainError(f"log_xi must be finite and negative, got {log_xi!r}")
    counts = np.asarray(counts, dtype=float)
    empty = counts == 0.0
    return counts, empty, -log_xi / np.where(empty, 1.0, counts)


def expectation_upper(X, log_xi) -> np.ndarray:
    """Upper bounds on expected values given observed counts X >= 0.

    X = 0 gives the limiting form ln(1/xi).
    """
    X, empty, t = _ratio(X, log_xi)
    w = _newton(_expectation_upper_residual, np.sqrt(2.0 * t) + t, t)
    return np.where(empty, -np.asarray(log_xi, dtype=float), X * (1.0 + w))


def observed_upper(Y, log_xi) -> np.ndarray:
    """Upper bounds on observed counts given expected values Y >= 0.

    Y = 0 gives the limiting value 0.
    """
    Y, empty, t = _ratio(Y, log_xi)
    w = _newton(_observed_upper_residual, np.sqrt(2.0 * t) + t, t)
    return np.where(empty, 0.0, Y * (1.0 + w))
