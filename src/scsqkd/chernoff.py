"""Chernoff upper bounds between observed and expected counts.

Two of the bounds of Zhang et al., PRA 95, 012333 (2017) enter the phase
error: an upper bound on an expected value given its observed count, and an
upper bound on an observed count given its expected value.  Each solves a
transcendental equation at a failure probability xi.  Written with the bound
as a multiple of the given count, they read

    expectation_upper:  X * (ln u - u + 1)   = ln(xi),  bound X * u
    observed_upper:     Y * (v - 1 - v ln v) = ln(xi),  bound Y * v

with u, v > 1.  Each bound is solved in w = u - 1 or v - 1 through
``log1p``, which keeps it accurate near 1; with t = |ln xi| / X (or / Y)
the equations read

    expectation_upper:  w - ln(1 + w)         = t
    observed_upper:     (1 + w) ln(1 + w) - w = t.

Both left sides increase in w > 0, so the residual (t minus the left side)
is concave, positive between 0 and the root and negative beyond it, and
Newton's method started beyond the root moves toward it monotonically and
never crosses it.

The start provably lies beyond the root and, with s = sqrt(2t), agrees with
it to second order in s at small t:

- expectation_upper takes the smaller of two starts.  Since
  ln(1 + w) <= w (6 + w) / (6 + 4w), the left side is at least
  w^2 / (2 + 4w/3), which equals t at w = 2t/3 + sqrt(4t^2/9 + 2t), written
  s (s/3 + sqrt(1 + 2t/9)) so it cannot overflow.  And the root satisfies
  w = t + ln(1 + w) and lies below s + t (the left side is at least t there,
  as e^s >= 1 + s + t), so it lies below t + ln(1 + s + t), the closer start
  at large t.
- observed_upper: by Bennett's inequality the left side is at least
  w^2 / (2 + 2w/3), which equals t at w = t/3 + sqrt(t^2/9 + 2t), written
  s (s/6 + sqrt(1 + t/18)).

Both starts lie below the Gaussian-guess start s + t, at every t.

From the start, ``_STEPS`` Newton steps run on the whole array with no
check, in place, at seven array operations a step.  Then one residual
evaluation checks every element with the stop rule of the checked loop
below: the residual within ``_NOISE`` of its terms' magnitude.  Three
steps meet it for expectation_upper at every t from 1e-300 to 1e305, and
for observed_upper from t = 1e-30 to 1: a scan's phase-error mean is at
least 2 |ln xi| counts, so its t is at most 1/2.  The elements that fail
it (stragglers) are gathered and solved by the checked loop from the start
again, since where the root lies within the residual's noise of 0
(observed_upper near t = 5e-33) rounding can carry an unchecked step
across it, even below 0.  The checked loop stops an element once its
residual is within rounding of its terms or once a step no longer moves
it toward the root: from the start within 3 steps (expectation_upper) and
5 (observed_upper) at every t from 1e-320 to 1e305, far below its cap
``_MAX_NEWTON``, at which an element would keep its last iterate, a
looser bound.

A solve allocates its iterate and scratch arrays once and updates them in
place (``out=``).  A caller with several count arrays, like the phase
error, solves them in one call over their concatenation, which pays the
solve's fixed cost once.

The failure probability enters only as its natural log, a finite
``log_xi < 0``, because the resolved security budget can lie far below the
smallest positive double.  Each bound is one function, elementwise over an
array (or scalar) of counts in [0, inf]; a call checks ``log_xi`` but not
the counts.  An empty, subnormal or infinite count puts t outside
(0, ``_T_MAX``], where the steps would overflow or divide 0 by 0; such
elements take closed forms (see :func:`_bound`), and masks run only when
two reductions over t find one.
"""
from __future__ import annotations

import numpy as np

_STEPS = 3
_MAX_NEWTON = 60
# observed_upper's steps overflow from t ~ 3.8e305; closed forms take over.
_T_MAX = 1e305
# Residuals within this multiple of their terms' magnitude are rounding noise.
_NOISE = 8.0 * np.finfo(float).eps


def _solve(start, step, residual, t) -> np.ndarray:
    """Root of a concave residual in w > 0, elementwise over ``t``.

    ``start(t, w, a, b)`` writes a start beyond the root into ``w``,
    ``step(w, t, a, b)`` takes one Newton step on ``w`` in place, and
    ``residual(w, t, h, slope, scale)`` writes the residual, its derivative
    in ``w`` and its noise scale; ``a`` and ``b`` are scratch arrays.  After
    ``_STEPS`` unchecked steps, the elements whose residual is not within
    rounding of its terms (an unchecked step may have crossed the root) are
    gathered and solved by :func:`_newton` from the start again.
    """
    w = np.empty_like(t)
    a, b = np.empty_like(w), np.empty_like(w)
    start(t, w, a, b)
    for _ in range(_STEPS):
        step(w, t, a, b)
    h, scale = a, b
    residual(w, t, h, np.empty_like(w), scale)
    scale *= _NOISE
    late = np.greater(np.abs(h, out=h), scale)
    if late.any():
        idx = np.flatnonzero(late)
        sub = np.reshape(t, -1)[idx]
        redo = np.empty_like(sub)
        start(sub, redo, np.empty_like(sub), np.empty_like(sub))
        w.reshape(-1)[idx] = _newton(residual, redo, sub)
    return w


def _newton(residual, w, t) -> np.ndarray:
    """Checked Newton steps on a 1-d ``w`` beyond the root, in place.

    Every step decreases ``w``, since the residual is positive between 0
    and the root.  An element stops once its residual is within rounding
    of its terms' magnitudes (the noise scale), or once a step no longer
    decreases it; one still moving after ``_MAX_NEWTON`` steps keeps its
    last iterate, which lies beyond the root.
    """
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
            break
        np.copyto(w, new, where=active)
    return w


def _expectation_upper_start(t, w, s, r):
    # w = min(s (s / 3 + sqrt(1 + 2 t / 9)), t + lg(s + t)), s = sqrt(2 t)
    np.multiply(2.0, t, out=s)
    np.sqrt(s, out=s)
    np.multiply(t, 2.0 / 9.0, out=w)
    w += 1.0
    np.sqrt(w, out=w)
    np.divide(s, 3.0, out=r)
    w += r
    w *= s
    np.add(s, t, out=r)
    np.log1p(r, out=r)
    r += t
    np.minimum(w, r, out=w)


def _expectation_upper_step(w, t, d, r):
    # w += (lg - w + t) (1 + w) / w
    np.log1p(w, out=d)
    d -= w
    d += t
    np.add(1.0, w, out=r)
    d *= r
    d /= w
    w += d


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


def _observed_upper_start(t, w, s, r):
    # w = s (s / 6 + sqrt(1 + t / 18)), s = sqrt(2 t)
    np.multiply(2.0, t, out=s)
    np.sqrt(s, out=s)
    np.divide(t, 18.0, out=w)
    w += 1.0
    np.sqrt(w, out=w)
    np.divide(s, 6.0, out=r)
    w += r
    w *= s


def _observed_upper_step(w, t, lg, d):
    # w += (w - (1 + w) lg + t) / lg
    np.log1p(w, out=lg)
    np.add(1.0, w, out=d)
    d *= lg
    np.subtract(w, d, out=d)
    d += t
    d /= lg
    w += d


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


def _bound(counts, log_xi, start, step, residual, far) -> np.ndarray:
    """counts (1 + w), with w the root of one bound at t = -log_xi / count.

    Beyond ``_T_MAX`` the bound is ``far(counts, log_xi)``.  At t = 0 the
    root is w = 0; the smallest positive t solves to 1 + w = 1.
    """
    # Two reductions: NaN carries through both and fails the first test.
    if not (np.maximum.reduce(log_xi, axis=None, initial=-1.0) < 0.0
            and np.minimum.reduce(log_xi, axis=None, initial=-1.0) > -np.inf):
        raise ValueError(f"log_xi must be finite and negative, got {log_xi!r}")
    counts = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        t = -log_xi / counts
    far_t = None
    if not (np.minimum.reduce(t, axis=None, initial=1.0) > 0.0
            and np.maximum.reduce(t, axis=None, initial=1.0) <= _T_MAX):
        far_t = t > _T_MAX
        t = np.clip(t, np.nextafter(0.0, 1.0), _T_MAX)
    w = _solve(start, step, residual, t)
    w += 1.0
    w *= counts
    if far_t is not None:
        np.copyto(w, far(counts, log_xi), where=far_t)
    return w


def _observed_upper_far(Y, log_xi):
    # |ln xi| / (L - ln L - 1), L = ln t, lies beyond the root (its left side
    # exceeds |ln xi|) and tends to 0 only like 1 / L; 0 for Y = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(-log_xi) - np.log(Y)
        return np.where(Y > 0.0, -log_xi / (L - np.log(L) - 1.0), 0.0)


def expectation_upper(X, log_xi) -> np.ndarray:
    """Upper bounds on expected values given observed counts X >= 0.

    X = 0, and any X that puts t beyond ``_T_MAX``, give the limit ln(1/xi).
    """
    return _bound(X, log_xi, _expectation_upper_start, _expectation_upper_step,
                  _expectation_upper_residual, lambda X, log_xi: -log_xi)


def observed_upper(Y, log_xi) -> np.ndarray:
    """Upper bounds on observed counts given expected values Y >= 0.

    Y = 0 gives the limiting value 0.
    """
    return _bound(Y, log_xi, _observed_upper_start, _observed_upper_step,
                  _observed_upper_residual, _observed_upper_far)
