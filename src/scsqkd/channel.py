"""Linear-optics expected-value model of Charlie's measurement station.

Pulses travel symmetric fiber arms to a 50:50 beam splitter at the midpoint,
followed by two threshold detectors (left/right) with dark-count probability
``p_d``.  Misalignment enters through the interference visibility
``V = 1 - 2*e_d``.  Two heralding strategies are modeled:

* ``improved``: Charlie compensates the phase in every window so that
  both-coherent (B) windows steer their energy to the left port; a window
  is effective when the right detector clicks and the left one does not.
* ``baseline``: no phase compensation; the phase difference in B windows is
  uniformly random and a B window is effective when exactly one detector
  clicks.  One-side (Z) and both-vacuum (O) windows are insensitive to the
  phase, so their heralding probabilities match the improved mode.

The baseline mode is a documented approximation of the original protocol,
used only for rate comparisons.

A detector with mean photon number ``nu`` clicks with probability
``1 - (1 - p_d) e^{-nu}``, evaluated as ``p_d - (1 - p_d) expm1(-nu)`` (two
nonnegative terms, so no cancellation at small ``nu`` and ``p_d``).  The
baseline phase average has the closed form
``2q e^{-a} [(I0(c) - 1) + click(a)]`` with ``q = 1 - p_d``, per-detector mean
``a = eta (mu_A + mu_B) / 2`` and interference term
``c = V eta sqrt(mu_A mu_B)``; every bracketed term is nonnegative.
``I0(c) - 1`` is a power series for ``c <= 2``.  Above, the exponentially
scaled ``e^{-c} I0(c)`` comes from ``np.i0`` up to ``c = 700`` and from the
large-``c`` asymptotic expansion beyond, where ``np.i0`` would overflow.  The
package needs nothing but numpy at run time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("improved", "baseline")

# Below this interference term the power series of I0(c) - 1 is used; it
# needs at most 12 terms there.
_I0_SERIES_MAX = 2.0

# Above this interference term np.i0 (which overflows past ~709) gives way to
# the asymptotic expansion of e^{-c} I0(c).
_I0_DIRECT_MAX = 700.0

# Coefficients ((2k-1)!!)^2 / (k! 8^k) of the expansion
# e^{-c} I0(c) ~ (2 pi c)^{-1/2} sum_k coef_k c^{-k}, highest power first for
# np.polyval; each is exact in binary.  At c >= 700 the k = 7 term is
# below 1e-19 of the sum.
_I0E_ASYMPTOTIC = tuple(reversed([
    1.0, 1 / 8, 9 / 128, 75 / 1024, 3675 / 32768, 59535 / 262144,
    2401245 / 4194304, 57972915 / 33554432]))


@dataclass(frozen=True)
class ChannelParams:
    """Fiber and detector parameters (Table-1 style quantities)."""

    distance_km: float
    alpha_f: float  # fiber loss, dB/km
    eta_d: float    # detector efficiency
    p_d: float      # dark-count probability per pulse per detector
    e_d: float      # misalignment-error probability

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        for name in ("distance_km", "alpha_f"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("eta_d", "p_d", "e_d"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Source-choice probabilities, nominal intensities and block size."""

    p0: float
    px: float
    mu_xA: float
    mu_xB: float
    N: float
    mode: str = "improved"

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not abs(self.p0 + self.px - 1.0) <= 1e-12:
            raise ValueError(f"p0 + px must equal 1, got p0={self.p0!r}, "
                             f"px={self.px!r}")
        if not (0.0 < self.px < 1.0):
            raise ValueError(f"px must lie in (0, 1), got {self.px!r}")
        if not (self.mu_xA >= 0.0 and self.mu_xB >= 0.0):
            name = "mu_xB" if self.mu_xA >= 0.0 else "mu_xA"
            raise ValueError(f"intensity {name} must be nonnegative, "
                             f"got {getattr(self, name)!r}")
        if not self.N >= 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class WindowTally:
    """Effective-window counts (or expected values) per window kind."""

    n_O: float
    n_B: float
    n_Z: float

    def __post_init__(self) -> None:
        for name in ("n_O", "n_B", "n_Z"):
            value = getattr(self, name)
            if not value >= 0.0:  # NaN fails it too
                raise ValueError(f"{name} must be nonnegative, got {value!r}")

    @property
    def E_Z(self) -> float:
        """Bit-flip error rate of the raw keys.

        Effective O and B windows always produce opposite bits after Bob's
        flip, effective Z windows always agree, so the raw-key error rate is
        exactly (n_O + n_B) / (n_O + n_B + n_Z).  Returns 0 for an empty tally.
        """
        return raw_error_rate(self.n_O, self.n_B, self.n_Z)


def arm_transmittance(params: ChannelParams, distance_km: float | None = None) -> float:
    """One-arm transmittance with Charlie at the midpoint of the link, over
    ``params.distance_km`` or, if given, ``distance_km`` of its fiber."""
    distance = params.distance_km if distance_km is None else distance_km
    return params.eta_d * 10.0 ** (-params.alpha_f * (distance / 2.0) / 10.0)


def visibility(e_d: float) -> float:
    """Interference visibility implied by the misalignment probability."""
    return 1.0 - 2.0 * e_d


def detector_means(kind: str, mu_A, mu_B, eta, e_d: float,
                   cos_delta=1.0) -> tuple:
    """Mean photon numbers (nu_L, nu_R) at the two detectors for one window.

    ``cos_delta`` is the cosine of the phase difference between the two
    incoming pulses; 1.0 corresponds to Charlie's compensated (improved)
    setting, where B-window energy is steered to the left port.  It only
    affects B windows.  The intensities, ``eta`` and ``cos_delta`` may be
    NumPy arrays, in which case the means are arrays too.  The intensities
    and ``eta`` must be nonnegative; this is not checked here (the
    parameter classes and :func:`heralding_arrays` check it).

    A B window's means are ``eta ((sqrt(mu_A) - sqrt(mu_B))^2 / 2
    + sqrt(mu_A mu_B) (1 +- cos_delta) -+ 2 e_d sqrt(mu_A mu_B) cos_delta)``:
    at a compensated phase every term is nonnegative, so the dark port's
    mean keeps full precision at small misalignment.
    """
    if kind == "O":
        return 0.0, 0.0
    if kind == "Z_A":
        nu = eta * mu_B / 2.0
        return nu, nu
    if kind == "Z_B":
        nu = eta * mu_A / 2.0
        return nu, nu
    if kind == "B":
        root = np.sqrt(mu_A * mu_B)
        tilt = 2.0 * e_d * root * cos_delta
        spread = 0.5 * (np.sqrt(mu_A) - np.sqrt(mu_B)) ** 2
        return (eta * (spread + root * (1.0 + cos_delta) - tilt),
                eta * (spread + root * (1.0 - cos_delta) + tilt))
    raise ValueError(f"unknown window kind {kind!r}")


def click_prob(nu, p_d: float):
    """Probability that a threshold detector with mean ``nu`` clicks.

    ``1 - (1 - p_d) e^{-nu}``, arranged as ``p_d - (1 - p_d) expm1(-nu)``;
    ``nu`` may be a NumPy array.
    """
    return p_d - (1.0 - p_d) * np.expm1(-nu)


def effective_prob(nu_L, nu_R, p_d: float):
    """Probability that the right detector clicks and the left one does not.

    The heralding rule of every window whose detector means are fixed: all
    windows in improved mode, and the O and Z windows in baseline mode
    (baseline B windows are averaged over the phase in
    :func:`b_window_prob`).  Elementwise over the means.  ``p_d`` must lie
    in [0, 1]; this is not checked here (:class:`ChannelParams` checks it).
    """
    return click_prob(nu_R, p_d) * (1.0 - p_d) * np.exp(-nu_L)


def _i0e(c: np.ndarray) -> np.ndarray:
    """``e^{-c} I0(c)`` for a 1-d array of ``c > 2``, elementwise.

    ``np.i0(c) e^{-c}`` up to ``_I0_DIRECT_MAX``; the asymptotic expansion
    in ``1/c`` beyond it.
    """
    out = np.empty_like(c)
    direct = c <= _I0_DIRECT_MAX
    out[direct] = np.i0(c[direct]) * np.exp(-c[direct])
    tail = c[~direct]
    out[~direct] = np.polyval(_I0E_ASYMPTOTIC, 1.0 / tail) / np.sqrt(2.0 * np.pi * tail)
    return out


def _scaled_i0_minus_1(c, a, exp_neg_a):
    """``e^{-a} (I0(c) - 1)`` for ``0 <= c <= a``, elementwise, without cancellation.

    ``exp_neg_a`` is ``np.exp(-a)``, which the caller needs too.

    Small ``c`` sums the series ``sum_k (c^2/4)^k / (k!)^2`` from k = 1, up
    to the first term below 1e-17 of the sum at the largest ``y = c^2/4``.
    Each element's term ratio to its partial sum grows with ``y``, so every
    other element has reached that point no later, and each term it adds
    beyond it is below half an ulp of its sum and leaves the sum unchanged.
    Larger ``c`` has ``I0(c) >= 2.2``, so subtracting 1 loses little; there
    the result is ``e^{c-a} e^{-c} I0(c) - e^{-a}`` with the scaled Bessel
    function of :func:`_i0e`, which never overflows.  That branch runs only
    on the elements that need it.  ``c`` and ``a`` may be 0-d.  Where every
    ``c`` takes the series, the largest ``y`` is that of the largest ``c``
    (rounded products are monotone), so no mask is formed.
    """
    c = np.asarray(c)
    c_max = float(np.maximum.reduce(c, axis=None, initial=0.0))
    if c_max <= _I0_SERIES_MAX:
        series = None
        y = 0.25 * c * c
        y_max = 0.25 * c_max * c_max
    else:  # also where c holds NaN
        series = c <= _I0_SERIES_MAX
        y = np.where(series, 0.25 * c * c, 0.0)
        y_max = float(np.max(y, initial=0.0))
    term = total = y_max
    terms = 1
    while term > 1e-17 * total:
        terms += 1
        term *= y_max / (terms * terms)
        total += term
    # Term k is term k - 1 times y / k^2 and the sum adds the terms in
    # order: the running product, then the running sum, of the rows
    # y / k^2 for k = 1 .. terms (y / 1 is y), in a constant number of
    # array calls.
    squares = (np.arange(1.0, terms + 1.0) ** 2).reshape((terms,) + (1,) * y.ndim)
    steps = np.multiply.accumulate(y / squares, axis=0)
    total = np.add.accumulate(steps, axis=0, out=steps)[-1]
    out = exp_neg_a * total
    if series is None:
        return out
    large = ~series
    if large.any():
        c_large = c[large]
        a_large = np.broadcast_to(a, c.shape)[large]
        out = np.array(out)  # writable, also for 0-d inputs
        out[large] = (np.exp(c_large - a_large) * _i0e(c_large)
                      - np.broadcast_to(exp_neg_a, c.shape)[large])
    return out


def b_window_prob(mu_A, mu_B, eta, e_d: float, p_d: float,
                  mode: str = "improved"):
    """Heralding probability of a both-coherent window, elementwise.

    The intensities and ``eta`` must be nonnegative; this is not checked
    here (:func:`heralding_arrays` checks it).

    In baseline mode the phase difference is uniform in [0, 2pi).  Averaging
    the exactly-one-click probability over it gives the closed form
    ``2q e^{-a} [(I0(c) - 1) + click(a)]`` with ``q = 1 - p_d``,
    ``a = eta (mu_A + mu_B) / 2``, ``c = V eta sqrt(mu_A mu_B)`` and
    ``click(a) = p_d - q expm1(-a)`` (see :func:`click_prob`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "improved":
        return effective_prob(*detector_means("B", mu_A, mu_B, eta, e_d), p_d)
    a = eta * (mu_A + mu_B) / 2.0
    c = abs(visibility(e_d)) * eta * np.sqrt(mu_A * mu_B)
    q = 1.0 - p_d
    exp_neg_a = np.exp(-a)
    return 2.0 * q * (_scaled_i0_minus_1(c, a, exp_neg_a)
                      + exp_neg_a * click_prob(a, p_d))


def heralding_arrays(mu_A, mu_B, eta, e_d: float, p_d: float,
                     mode, mode_index=0) -> tuple:
    """Heralding probabilities (p_O, p_B, p_Z) of the window kinds.

    ``p_Z = p_ZA + p_ZB`` sums the two one-side kinds.  Elementwise over
    intensities, one-arm transmittances ``eta`` and ``mode_index`` that
    broadcast together; ``p_O`` is a scalar, since no light reaches either
    detector in an O window.  One array passed as both intensities gives
    equal Z_A and Z_B probabilities, computed once.

    ``mode`` is one heralding mode, or a tuple of modes of which the integer
    ``mode_index`` picks each element's, so that one channel pass serves
    candidates of every mode.  Each mode's ``p_B`` is computed on the shape
    of the intensities and ``eta``, and ``np.choose`` picks each element's
    from them; a mode's value at an element does not depend on the others.
    An index that is not an integer in [0, len(modes)) raises ValueError.
    """
    # initial=0.0 lets empty arrays pass and leaves every other verdict as is.
    arrays = (mu_A, eta) if mu_B is mu_A else (mu_A, mu_B, eta)
    if min(np.minimum.reduce(x, axis=None, initial=0.0) for x in arrays) < 0.0:
        raise ValueError("intensities and transmittance must be nonnegative")
    # O and Z windows are insensitive to Charlie's phase compensation, so
    # both modes use the single-detector heralding rule there; only B
    # windows depend on the mode.
    p_za = effective_prob(*detector_means("Z_A", mu_A, mu_B, eta, e_d), p_d)
    p_zb = (p_za if mu_B is mu_A
            else effective_prob(*detector_means("Z_B", mu_A, mu_B, eta, e_d), p_d))
    modes = (mode,) if isinstance(mode, str) else mode
    per_mode = [b_window_prob(mu_A, mu_B, eta, e_d, p_d, name) for name in modes]
    try:
        p_b = np.choose(mode_index, per_mode)
    except (TypeError, ValueError) as exc:  # a non-integer or out-of-range index
        raise ValueError(f"mode_index must pick one of {len(modes)} modes") from exc
    return effective_prob(0.0, 0.0, p_d), p_b, p_za + p_zb


def tally_arrays(p0, px, N, p_O, p_B, p_Z) -> tuple:
    """Expected effective-window counts (n_O, n_B, n_Z) over N windows.

    ``N p0^2 p_O``, ``N px^2 p_B`` and ``N p0 px p_Z``, elementwise over
    source-choice probabilities, block sizes and the heralding
    probabilities of :func:`heralding_arrays`, which broadcast together.
    See :func:`expected_tallies`.
    """
    n_p0 = N * p0
    return n_p0 * p0 * p_O, N * px * px * p_B, n_p0 * px * p_Z


def raw_error_rate(n_O, n_B, n_Z):
    """Raw-key bit-flip error rate ``(n_O + n_B) / (n_O + n_B + n_Z)``,
    elementwise, and a float for floats; 0 for an empty tally (see
    :attr:`WindowTally.E_Z`)."""
    wrong = n_O + n_B
    return error_share(wrong, wrong + n_Z)


def error_share(wrong, total):
    """:func:`raw_error_rate` from the error count ``n_O + n_B`` and the
    raw-key length ``total``, for a caller that needs the length too."""
    # An empty tally divides 0 by 1; adding False leaves any other total as is.
    return wrong / (total + (total == 0.0))


def expected_tallies(protocol: ProtocolParams, channel: ChannelParams) -> WindowTally:
    """Expected effective-window counts over N windows.

    The channel model uses the nominal source intensities; the security
    analysis separately uses worst-case bounds.
    """
    probs = heralding_arrays(np.array([protocol.mu_xA]), np.array([protocol.mu_xB]),
                             arm_transmittance(channel), channel.e_d, channel.p_d,
                             protocol.mode)
    counts = tally_arrays(np.array([protocol.p0]), np.array([protocol.px]),
                          protocol.N, *probs)
    n_O, n_B, n_Z = (float(c[0]) for c in counts)
    return WindowTally(n_O=n_O, n_B=n_B, n_Z=n_Z)
