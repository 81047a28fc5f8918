"""Two-sided Chernoff estimators between observed and expected counts.

The four bounds of Zhang et al., PRA 95, 012333 (2017) each solve a
transcendental equation at a failure probability xi.  Written with the bound
as a multiple of the given count, they take two shapes:

    expectation_lower / _upper:  X * (ln u - u + 1)   = ln(xi),  bound X * u
    observed_lower / _upper:     Y * (v - 1 - v ln v) = ln(xi),  bound Y * v

with u, v < 1 for the lower and u, v > 1 for the upper bounds.  Both left
sides are concave, vanish at 1 and are monotone on either side of it, so
Newton's method started beyond the root moves toward it monotonically and
never crosses it.  The start is the Gaussian guess, a deviation sqrt(2t)
from 1 with t = |ln xi| / X, moved where needed to a point that provably
lies beyond the root: 1 + sqrt(2t) + t for the upper bounds,
exp(-(sqrt(2t) + t)) for expectation_lower, and the larger of 1 - sqrt(2t)
and r / (2 (1 - ln r)), r = 1 - t, for observed_lower.  An element stops
once its residual is within rounding of its terms, or once a step no longer
moves it toward the root; a bisection between the iterate and 1 backs up
elements that are still moving after ``_MAX_NEWTON`` steps.

Each bound is solved in the variable that keeps it accurate: u - 1 or v - 1
through ``log1p`` above 1, ln u below 1 (so that the bound decays to 0
instead of losing precision), and v itself for the observed lower bound.

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


def _newton(residual, z, inward: float, center: float, *args) -> np.ndarray:
    """Root of a concave ``residual(z, *args) -> (h, dh/dz, noise scale)``.

    Elementwise.  ``z`` starts beyond the root (h <= 0) and ``center`` lies
    on its other side (h > 0); ``inward`` is the sign of the direction from
    ``z`` toward the root.  An element stops once its residual is within
    rounding of its terms' magnitudes (the noise scale), or once a step no
    longer moves it inward.
    """
    active = np.ones(z.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        h, slope, scale = residual(z, *args)
        new = z - h / slope
        active &= (np.abs(h) > _NOISE * scale) & ((new - z) * inward > 0.0)
        if not active.any():
            return z
        z = np.where(active, new, z)
    # Bisection for the elements Newton left moving.
    idx = np.flatnonzero(active)
    sub = [np.broadcast_to(a, z.shape).ravel()[idx] for a in args]
    lo, hi = z.ravel()[idx], np.full(idx.size, center)
    while True:
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        beyond = residual(mid, *sub)[0] <= 0.0
        lo = np.where(moving & beyond, mid, lo)
        hi = np.where(moving & ~beyond, mid, hi)
    out = z.flatten()
    out[idx] = lo
    return out.reshape(z.shape)


def _expectation_upper_residual(w, t):  # w = u - 1 > 0
    lg = np.log1p(w)
    return lg - w + t, -w / (1.0 + w), lg + w + t


def _expectation_lower_residual(s, t):  # s = ln u < 0
    em1 = np.expm1(s)
    return s - em1 + t, -em1, t - s - em1


def _observed_upper_residual(w, t):  # w = v - 1 > 0
    lg = np.log1p(w)
    return w - (1.0 + w) * lg + t, -lg, w + (1.0 + w) * lg + t


def _observed_lower_residual(v, t, r):  # 0 < v < 1, r = 1 - t
    # Near v = 0 the equation reads v (1 - ln v) = r, with r computed
    # without cancellation; near v = 1 the (v - 1) - v ln v form keeps it.
    lg = np.log(v)
    small = v < 0.5
    h = np.where(small, v * (1.0 - lg) - r, (v - 1.0) - v * lg + t)
    scale = np.where(small, v * (1.0 - lg) + r, (1.0 - v) - v * lg + t)
    return h, -lg, scale


def _ratio(counts, log_xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, empty mask, t = -log_xi / count with empty counts set to 1)."""
    if not np.all(np.isfinite(log_xi) & np.less(log_xi, 0.0)):
        raise ChernoffDomainError(f"log_xi must be finite and negative, got {log_xi!r}")
    counts = np.asarray(counts, dtype=float)
    empty = counts == 0.0
    return counts, empty, -log_xi / np.where(empty, 1.0, counts)


def expectation_lower(X, log_xi) -> np.ndarray:
    """Lower bounds on expected values given observed counts X >= 0."""
    X, empty, t = _ratio(X, log_xi)
    s = _newton(_expectation_lower_residual, -(np.sqrt(2.0 * t) + t), 1.0, 0.0, t)
    return np.where(empty, 0.0, X * np.exp(s))


def expectation_upper(X, log_xi) -> np.ndarray:
    """Upper bounds on expected values given observed counts X >= 0.

    X = 0 gives the limiting form ln(1/xi).
    """
    X, empty, t = _ratio(X, log_xi)
    w = _newton(_expectation_upper_residual, np.sqrt(2.0 * t) + t, -1.0, 0.0, t)
    return np.where(empty, -np.asarray(log_xi, dtype=float), X * (1.0 + w))


def observed_upper(Y, log_xi) -> np.ndarray:
    """Upper bounds on observed counts given expected values Y >= 0.

    Y = 0 gives the limiting value 0.
    """
    Y, empty, t = _ratio(Y, log_xi)
    w = _newton(_observed_upper_residual, np.sqrt(2.0 * t) + t, -1.0, 0.0, t)
    return np.where(empty, 0.0, Y * (1.0 + w))


def observed_lower(Y, log_xi) -> np.ndarray:
    """Lower bounds on observed counts given expected values Y >= 0.

    The bound is 0 where no v > 0 solves the equation, i.e. where Y is at
    most ln(1/xi): a zero observation then has probability above xi.
    """
    Y, empty, t = _ratio(Y, log_xi)
    r = (Y + log_xi) / np.where(empty, 1.0, Y)   # 1 - t, exact near t = 1
    clamp = r <= 0.0
    t = np.where(clamp, 0.5, t)
    r = np.where(clamp, 0.5, r)
    # Both candidates lie below the root; the larger is the closer one.
    v0 = np.maximum(1.0 - np.sqrt(2.0 * t), r / (2.0 * (1.0 - np.log(r))))
    v = _newton(_observed_lower_residual, v0, 1.0, 1.0, t, r)
    return np.where(clamp, 0.0, Y * v)
