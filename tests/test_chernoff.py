"""Tests for the Chernoff upper bounds."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd import chernoff
from scsqkd.chernoff import (ChernoffDomainError, expectation_upper,
                             observed_upper)
from scsqkd.keyrate import security_budget

# Frozen oracle values, computed independently with 60-digit arithmetic.
GOLDEN_1E6_XI_1E10 = {
    "expectation_upper": 1006801.4996647758,
    "observed_upper": 1006793.8113754313,
}
GOLDEN_OU_50 = 105.16483927042672
LOG_1E_10 = math.log(1e-10)

BOUNDS = {"expectation_upper": expectation_upper,
          "observed_upper": observed_upper}
EMPTY = {"expectation_upper": lambda lx: -lx, "observed_upper": lambda lx: 0.0}


def _g_plus(d: float) -> float:
    return d - (1.0 + d) * math.log1p(d)


def _g_minus(d: float) -> float:
    return -d - (1.0 - d) * math.log1p(-d)


class TestGoldenValues:
    def test_large_count_small_xi(self):
        for name, expected in GOLDEN_1E6_XI_1E10.items():
            assert BOUNDS[name](1e6, LOG_1E_10) == pytest.approx(expected, rel=1e-9), name

    def test_small_mean_observed_upper(self):
        assert observed_upper(50.0, LOG_1E_10) == pytest.approx(GOLDEN_OU_50, rel=1e-9)

    def test_zero_count_expectation_upper_closed_form(self):
        assert expectation_upper(0.0, LOG_1E_10) == pytest.approx(
            math.log(1e10), rel=1e-12)


class TestResiduals:
    """The solved deviation parameter must satisfy its defining equation."""

    XS = (1.0, 10.0, 1e3, 1e6, 1e9)
    XIS = (1e-3, 1e-10)

    def test_expectation_upper(self):
        for x in self.XS:
            for xi in self.XIS:
                bound = expectation_upper(x, math.log(xi))
                delta = 1.0 - x / bound
                resid = x * _g_minus(delta) / (1.0 - delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9

    def test_observed_upper(self):
        for y in self.XS:
            for xi in self.XIS:
                bound = observed_upper(y, math.log(xi))
                delta = bound / y - 1.0
                resid = y * _g_plus(delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9


class TestOrderingAndMonotonicity:
    def test_bounds_bracket_the_input(self):
        for x in (1.0, 37.0, 1e4, 1e8):
            for xi in (1e-3, 1e-10):
                lx = math.log(xi)
                assert x < expectation_upper(x, lx)
                assert x < observed_upper(x, lx)

    def test_tighter_with_larger_xi(self):
        # A looser failure probability gives a tighter bound.
        for func in (expectation_upper, observed_upper):
            assert func(1e4, math.log(1e-3)) < func(1e4, LOG_1E_10)

    def test_monotone_in_count(self):
        for func in (expectation_upper, observed_upper):
            values = [func(x, math.log(1e-6)) for x in (10.0, 1e2, 1e3, 1e4, 1e5)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_relative_width_shrinks_with_count(self):
        widths = [(expectation_upper(x, LOG_1E_10) - x) / x
                  for x in (1e2, 1e4, 1e6, 1e8)]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestLogDomainInput:
    def test_extreme_log_xi_finite(self):
        # Failure probabilities far below the smallest positive double.
        log_xi = -1764.0
        for func in (expectation_upper, observed_upper):
            up = func(1e6, log_xi)
            assert math.isfinite(up)
            assert 1e6 < up

    def test_nonnegative_log_xi_rejected(self):
        with pytest.raises(ChernoffDomainError):
            observed_upper(10.0, 0.0)
        # A failure probability passed where its log is due fails loudly.
        for func in (expectation_upper, observed_upper):
            with pytest.raises(ChernoffDomainError):
                func(np.array([10.0, 1e4]), 1e-10)
        with pytest.raises(ChernoffDomainError):
            observed_upper(10.0, np.array([-1.0, 0.5]))


class TestEdgeCases:
    def test_xi_out_of_range_rejected(self):
        # xi = 0 and xi = 1, as their logs.
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0, -math.inf)
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0, math.log(1.0))


class TestPoissonCrossCheck:
    def test_tail_probability_is_conservative_but_tight(self):
        # If the true mean were the upper bound, the probability of seeing a
        # count as small as the observation must be at most xi, and the bound
        # should not be grossly loose in the exponent (independent evaluation
        # puts the log ratio at ~1.124 for this case).
        from scipy.stats import poisson
        mean = float(expectation_upper(1e6, LOG_1E_10))
        log_tail = poisson.logcdf(1e6, mean)
        ratio = log_tail / math.log(1e-10)
        assert 1.0 <= ratio <= 1.3
        assert ratio == pytest.approx(1.124, abs=0.01)

    def test_empirical_poisson_tail_small_case(self):
        # Exact Poisson tail at a small mean: P(X >= observed_upper) <= xi.
        from scipy.stats import poisson
        mean, xi = 50.0, 1e-4
        bound = float(observed_upper(mean, math.log(xi)))
        tail = poisson.sf(math.floor(bound), mean)
        assert tail <= xi
        # And the bound is tight: one decade looser would be violated.
        assert poisson.sf(math.floor(bound * 0.8), mean) > xi


def _violation_fraction(xi: float, seed: int) -> float:
    """Fraction of 10000 Poisson(1000) draws above observed_upper at xi."""
    draws = np.random.default_rng(seed).poisson(1000.0, size=10000)
    return float(np.mean(draws > observed_upper(1000.0, math.log(xi))))


class TestCoverage:
    def test_violation_fractions_below_budget(self):
        assert _violation_fraction(1e-3, seed=123) <= 2e-3

    def test_tiny_xi_never_violated(self):
        assert _violation_fraction(1e-10, seed=99) == 0.0

    def test_loose_xi_shows_violations(self):
        # Sanity check that the test has power: a huge failure probability
        # must produce a nonzero violation fraction.
        assert _violation_fraction(0.5, seed=7) > 0.0


def _mp_bound(name: str, count: float, log_xi: float, guess: float) -> float:
    """The bound as a 50-digit root of its defining equation.

    Each equation is written as F(z) = 0 with F increasing in z = u or v
    above 1.  The bisection starts from a bracket of relative width 1e-9
    around ``guess`` when F changes sign across it, and from the whole
    branch otherwise.
    """
    with mpmath.workdps(50):
        x, lx = mpmath.mpf(count), mpmath.mpf(log_xi)
        t = -lx / x
        if name == "expectation_upper":
            f = lambda u: x * (u - 1 - mpmath.log(u)) + lx
        else:
            f = lambda v: x * (v * mpmath.log(v) - v + 1) + lx
        lo, hi = mpmath.mpf(1), t + mpmath.sqrt(2 * t) + 2
        z = guess / count
        width = 1e-9 * abs(z)
        a, b = mpmath.mpf(z) - width, mpmath.mpf(z) + width
        if lo < a and b < hi and f(a) <= 0 < f(b):
            lo, hi = a, b
        while hi - lo > mpmath.mpf(10) ** -45 * max(abs(hi), mpmath.mpf(10) ** -300):
            mid = (lo + hi) / 2
            if f(mid) <= 0:
                lo = mid
            else:
                hi = mid
        return float(x * (lo + hi) / 2)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# The smallest log failure probability a scan reaches: the parameter
# estimation share of the budget at the largest block size, N = 1e15.
LOG_XI_MIN = security_budget(1e-10, 1e15, 8).log_eps_share

COUNTS = st.one_of(st.just(0.0), _log_uniform(1e-6, 1e15))
LOG_XIS = _log_uniform(1e-3, -LOG_XI_MIN).map(lambda m: -m)


@pytest.mark.parametrize("name", sorted(BOUNDS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(count=COUNTS, log_xi=LOG_XIS)
def test_bounds_against_mpmath(name, count, log_xi):
    """Both bounds are 50-digit roots to rel 1e-12 over the working range."""
    got = float(BOUNDS[name](np.array([count]), log_xi)[0])
    if count == 0.0:
        assert got == EMPTY[name](log_xi)
        return
    assert got == pytest.approx(_mp_bound(name, count, log_xi, got), rel=1e-12)


@pytest.mark.parametrize("name", sorted(BOUNDS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(COUNTS, min_size=1, max_size=40), log_xi=LOG_XIS)
def test_batch_element_equals_scalar_call(name, counts, log_xi):
    solve = BOUNDS[name]
    batch = solve(np.array(counts), log_xi)
    one_element = [float(solve(np.array([c]), log_xi)[0]) for c in counts]
    assert batch.tolist() == one_element


def test_bisection_fallback_matches_reference(monkeypatch):
    # With Newton disabled every element is solved by the bisection backup.
    rng = np.random.default_rng(3)
    counts = 10.0 ** rng.uniform(-6, 15, 24)
    log_xis = -(10.0 ** rng.uniform(-3, math.log10(-LOG_XI_MIN), 24))
    monkeypatch.setattr(chernoff, "_MAX_NEWTON", 0)
    for name, solve in BOUNDS.items():
        got = solve(counts, log_xis)
        # A scalar count takes the same path as an array element.
        assert solve(float(counts[0]), float(log_xis[0])) == got[0]
        for g, c, lx in zip(got, counts, log_xis):
            assert g == pytest.approx(_mp_bound(name, c, lx, g), rel=1e-12)


# Reference: the solver as it was before it worked in place, kept verbatim
# but for reading the iteration limit from the module under test.  The
# solver must equal it bit for bit.
def _reference_newton(residual, w, *args) -> np.ndarray:
    active = np.ones(w.shape, dtype=bool)
    for _ in range(chernoff._MAX_NEWTON):
        h, slope, scale = residual(w, *args)
        new = w - h / slope
        active &= (np.abs(h) > chernoff._NOISE * scale) & (new < w)
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


def _reference_expectation_upper_residual(w, t):  # w = u - 1 > 0
    lg = np.log1p(w)
    return lg - w + t, -w / (1.0 + w), lg + w + t


def _reference_observed_upper_residual(w, t):  # w = v - 1 > 0
    lg = np.log1p(w)
    return w - (1.0 + w) * lg + t, -lg, w + (1.0 + w) * lg + t


def _reference_ratio(counts, log_xi):
    counts = np.asarray(counts, dtype=float)
    empty = counts == 0.0
    return counts, empty, -log_xi / np.where(empty, 1.0, counts)


def _reference_expectation_upper(X, log_xi):
    X, empty, t = _reference_ratio(X, log_xi)
    w = _reference_newton(_reference_expectation_upper_residual, np.sqrt(2.0 * t) + t, t)
    return np.where(empty, -np.asarray(log_xi, dtype=float), X * (1.0 + w))


def _reference_observed_upper(Y, log_xi):
    Y, empty, t = _reference_ratio(Y, log_xi)
    w = _reference_newton(_reference_observed_upper_residual, np.sqrt(2.0 * t) + t, t)
    return np.where(empty, 0.0, Y * (1.0 + w))


REFERENCES = {"expectation_upper": _reference_expectation_upper,
              "observed_upper": _reference_observed_upper}

ORACLE_COUNTS = st.one_of(st.sampled_from([0.0, 1e-300]), _log_uniform(1e-12, 1e15))
ORACLE_LOG_XIS = _log_uniform(1e-3, 2100.0).map(lambda m: -m)


def _forms(counts: np.ndarray, log_xis: np.ndarray):
    """(count, log_xi) as Python floats, as 0-d arrays, and as (S, n, 1)
    counts with (S, 1, 1) failure probabilities."""
    yield float(counts[0, 0, 0]), float(log_xis[0, 0, 0])
    yield np.array(counts[0, 0, 0]), np.array(log_xis[0, 0, 0])
    yield counts, log_xis


@pytest.mark.parametrize("max_newton", [chernoff._MAX_NEWTON, 2, 0])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), s=st.integers(1, 3), n=st.integers(1, 4))
def test_bounds_equal_reference_bit_for_bit(max_newton, data, s, n):
    """Both bounds equal the reference solver bit for bit, in every input
    form and on the bisection path, and leave their inputs unchanged."""
    counts = np.array(data.draw(st.lists(ORACLE_COUNTS, min_size=s * n,
                                         max_size=s * n))).reshape(s, n, 1)
    log_xis = np.array(data.draw(st.lists(ORACLE_LOG_XIS, min_size=s,
                                          max_size=s))).reshape(s, 1, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chernoff, "_MAX_NEWTON", max_newton)
        for name, solve in BOUNDS.items():
            for count, log_xi in _forms(counts, log_xis):
                before = [np.copy(count), np.copy(log_xi)]
                want = REFERENCES[name](count, log_xi)
                got = solve(count, log_xi)
                assert type(got) is type(want) and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
                assert all(np.copy(a).tobytes() == b.tobytes()
                           for a, b in zip((count, log_xi), before))
