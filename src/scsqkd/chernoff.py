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

A solve is one Newton loop over the whole array.  It allocates its iterate
and the residual's three outputs once and updates them in place (``out=``
and ``np.copyto(..., where=active)``).  Each residual evaluates the
expressions in its comment operation by operation, so working in place
changes no bit of a bound.  Elements that have stopped stay in the array:
gathering the active ones into a smaller array costs more than it saves.
A caller with several count arrays, like the phase error, solves them in
one call over their concatenation, which pays the loop's fixed cost once.

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


def _newton(residual, t) -> np.ndarray:
    """Root of a concave residual, started at ``sqrt(2 t) + t``, elementwise.

    ``residual(w, t, h, slope, scale)`` writes the residual, its derivative
    in ``w`` and its noise scale into the last three arrays.  The start lies
    beyond the root (h <= 0), and the residual is positive between 0 and
    the root, so every step decreases ``w``.  An element stops once its
    residual is within rounding of its terms' magnitudes (the noise scale),
    or once a step no longer decreases it.  Every iterate and temporary
    lives in an array the solver allocates once; the returned array is one
    of them.
    """
    w = np.multiply(2.0, t, out=np.empty_like(t))
    np.sqrt(w, out=w)
    w += t
    h, slope, scale = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    active = np.ones(w.shape, dtype=bool)
    moving = np.empty(w.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        residual(w, t, h, slope, scale)
        new = slope
        np.divide(h, slope, out=new)
        np.subtract(w, new, out=new)  # w - h / slope
        scale *= _NOISE
        np.greater(np.abs(h, out=h), scale, out=moving)
        active &= moving
        active &= np.less(new, w, out=moving)
        if not active.any():
            return w
        np.copyto(w, new, where=active)
    # Bisection for the elements Newton left moving.
    idx = np.flatnonzero(active)
    flat = w.reshape(-1)
    sub = np.broadcast_to(t, w.shape).reshape(-1)[idx]
    lo, hi = flat[idx], np.zeros(idx.size)
    h, slope, scale = np.empty(idx.size), np.empty(idx.size), np.empty(idx.size)
    while True:
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        residual(mid, sub, h, slope, scale)
        beyond = h <= 0.0
        lo = np.where(moving & beyond, mid, lo)
        hi = np.where(moving & ~beyond, mid, hi)
    flat[idx] = lo
    return w


def _expectation_upper_residual(w, t, h, slope, scale):  # w = u - 1 > 0
    # h = lg - w + t, slope = -w / (1 + w), scale = lg + w + t
    lg = scale
    np.log1p(w, out=lg)
    np.subtract(lg, w, out=h)
    h += t
    np.add(1.0, w, out=slope)
    np.divide(w, slope, out=slope)
    np.negative(slope, out=slope)
    scale += w
    scale += t


def _observed_upper_residual(w, t, h, slope, scale):  # w = v - 1 > 0
    # h = w - (1 + w) lg + t, slope = -lg, scale = w + (1 + w) lg + t
    lg = slope
    np.log1p(w, out=lg)
    np.add(1.0, w, out=scale)
    scale *= lg
    np.subtract(w, scale, out=h)
    h += t
    np.negative(lg, out=slope)
    scale += w
    scale += t


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
    u = _newton(_expectation_upper_residual, t)
    u += 1.0
    u *= X
    np.copyto(u, t, where=empty)  # t = -log_xi there
    return u


def observed_upper(Y, log_xi) -> np.ndarray:
    """Upper bounds on observed counts given expected values Y >= 0.

    Y = 0 gives the limiting value 0.
    """
    Y, empty, t = _ratio(Y, log_xi)
    v = _newton(_observed_upper_residual, t)
    v += 1.0
    v *= Y
    np.copyto(v, 0.0, where=empty)
    return v
