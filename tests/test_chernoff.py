"""Tests for the two-sided Chernoff estimators."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd import chernoff
from scsqkd.chernoff import (ChernoffDomainError, expectation_lower,
                             expectation_lower_array, expectation_upper,
                             expectation_upper_array, observed_lower,
                             observed_lower_array, observed_upper,
                             observed_upper_array)
from scsqkd.keyrate import security_budget

# Frozen oracle values, computed independently with 60-digit arithmetic.
GOLDEN_1E6_XI_1E10 = {
    "expectation_lower": 993229.20145408809,
    "expectation_upper": 1006801.4996647758,
    "observed_upper": 1006793.8113754313,
    "observed_lower": 993221.53920756479,
}
GOLDEN_OU_50 = 105.16483927042672


def _g_plus(d: float) -> float:
    return d - (1.0 + d) * math.log1p(d)


def _g_minus(d: float) -> float:
    return -d - (1.0 - d) * math.log1p(-d)


class TestGoldenValues:
    def test_large_count_small_xi(self):
        solvers = {"expectation_lower": expectation_lower,
                   "expectation_upper": expectation_upper,
                   "observed_upper": observed_upper,
                   "observed_lower": observed_lower}
        for name, expected in GOLDEN_1E6_XI_1E10.items():
            assert solvers[name](1e6, 1e-10) == pytest.approx(expected, rel=1e-9), name

    def test_small_mean_observed_upper(self):
        assert observed_upper(50.0, 1e-10) == pytest.approx(GOLDEN_OU_50, rel=1e-9)

    def test_zero_count_expectation_upper_closed_form(self):
        assert expectation_upper(0.0, 1e-10) == pytest.approx(
            math.log(1e10), rel=1e-12)


class TestResiduals:
    """The solved deviation parameter must satisfy its defining equation."""

    XS = (1.0, 10.0, 1e3, 1e6, 1e9)
    XIS = (1e-3, 1e-10)

    def test_expectation_lower(self):
        for x in self.XS:
            for xi in self.XIS:
                bound = expectation_lower(x, xi)
                delta = x / bound - 1.0
                resid = x * _g_plus(delta) / (1.0 + delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9

    def test_expectation_upper(self):
        for x in self.XS:
            for xi in self.XIS:
                bound = expectation_upper(x, xi)
                delta = 1.0 - x / bound
                resid = x * _g_minus(delta) / (1.0 - delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9

    def test_observed_upper(self):
        for y in self.XS:
            for xi in self.XIS:
                bound = observed_upper(y, xi)
                delta = bound / y - 1.0
                resid = y * _g_plus(delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9

    def test_observed_lower(self):
        for y in self.XS:
            for xi in self.XIS:
                bound = observed_lower(y, xi)
                if bound == 0.0:
                    # Clamped: even a zero observation is not xi-unlikely,
                    # which happens exactly when the mean is below ln(1/xi).
                    assert y <= -math.log(xi) * (1.0 + 1e-12)
                    continue
                delta = 1.0 - bound / y
                resid = y * _g_minus(delta) - math.log(xi)
                assert abs(resid / math.log(xi)) <= 1e-9


class TestOrderingAndMonotonicity:
    def test_bounds_bracket_the_input(self):
        for x in (1.0, 37.0, 1e4, 1e8):
            for xi in (1e-3, 1e-10):
                assert expectation_lower(x, xi) < x < expectation_upper(x, xi)
                assert observed_lower(x, xi) < x < observed_upper(x, xi)

    def test_tighter_with_larger_xi(self):
        # A looser failure probability gives a tighter interval.
        for func, upper in ((expectation_upper, True), (observed_upper, True),
                            (expectation_lower, False), (observed_lower, False)):
            loose = func(1e4, 1e-10)
            tight = func(1e4, 1e-3)
            if upper:
                assert tight < loose
            else:
                assert tight > loose

    def test_monotone_in_count(self):
        for func in (expectation_lower, expectation_upper,
                     observed_lower, observed_upper):
            values = [func(x, 1e-6) for x in (10.0, 1e2, 1e3, 1e4, 1e5)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_relative_width_shrinks_with_count(self):
        widths = [(expectation_upper(x, 1e-10) - expectation_lower(x, 1e-10)) / x
                  for x in (1e2, 1e4, 1e6, 1e8)]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestLogDomainInput:
    def test_log_xi_matches_xi(self):
        for func in (expectation_lower, expectation_upper,
                     observed_lower, observed_upper):
            assert func(1e4, log_xi=math.log(1e-10)) == func(1e4, 1e-10)

    def test_extreme_log_xi_finite(self):
        # Failure probabilities far below the smallest positive double.
        log_xi = -1764.0
        up = expectation_upper(1e6, log_xi=log_xi)
        lo = expectation_lower(1e6, log_xi=log_xi)
        assert math.isfinite(up) and math.isfinite(lo)
        assert lo < 1e6 < up

    def test_exactly_one_of_xi_and_log_xi(self):
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0)
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0, 1e-3, log_xi=-10.0)

    def test_nonnegative_log_xi_rejected(self):
        with pytest.raises(ChernoffDomainError):
            observed_upper(10.0, log_xi=0.0)


class TestEdgeCases:
    def test_expectation_lower_at_zero(self):
        assert expectation_lower(0.0, 1e-10) == 0.0

    def test_observed_lower_clamps_for_small_mean(self):
        # mean below ln(1/xi): zero observations are not xi-unlikely.
        assert observed_lower(1.0, 1e-10) == 0.0
        assert observed_lower(22.0, 1e-10) == 0.0

    def test_observed_upper_rejects_zero_mean(self):
        with pytest.raises(ChernoffDomainError):
            observed_upper(0.0, 1e-10)

    def test_negative_counts_rejected(self):
        for func in (expectation_lower, expectation_upper, observed_lower):
            with pytest.raises(ChernoffDomainError):
                func(-1.0, 1e-3)

    def test_xi_out_of_range_rejected(self):
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0, 0.0)
        with pytest.raises(ChernoffDomainError):
            expectation_upper(10.0, 1.0)


class TestPoissonCrossCheck:
    def test_tail_probability_is_conservative_but_tight(self):
        # If the true mean were the lower bound, the probability of seeing a
        # count as large as the observation must be at most xi, and the bound
        # should not be grossly loose in the exponent (independent evaluation
        # puts the log ratio at ~1.124 for this case).
        from scipy.stats import poisson
        mean = expectation_lower(1e6, 1e-10)
        log_tail = poisson.logsf(1e6 - 1, mean)
        ratio = log_tail / math.log(1e-10)
        assert 1.0 <= ratio <= 1.3
        assert ratio == pytest.approx(1.124, abs=0.01)

    def test_empirical_poisson_tail_small_case(self):
        # Exact Poisson tail at a small mean: P(X >= observed_upper) <= xi.
        from scipy.stats import poisson
        mean, xi = 50.0, 1e-4
        bound = observed_upper(mean, xi)
        tail = poisson.sf(math.floor(bound), mean)
        assert tail <= xi
        # And the bound is tight: one decade looser would be violated.
        assert poisson.sf(math.floor(bound * 0.8), mean) > xi


def _mp_bound(name: str, count: float, log_xi: float, guess: float) -> float:
    """The bound as a 50-digit root of its defining equation.

    Each equation is written as F(z) = 0 with F increasing in z: z = u or v
    for the bounds above the count and for observed_lower, z = ln u for
    expectation_lower (whose u may lie below the smallest double).  The
    bisection starts from a bracket of relative width 1e-9 around ``guess``
    when F changes sign across it, and from the whole branch otherwise.
    """
    with mpmath.workdps(50):
        x, lx = mpmath.mpf(count), mpmath.mpf(log_xi)
        t = -lx / x
        if name == "expectation_lower":
            f = lambda s: x * (s - mpmath.exp(s) + 1) - lx
            lo, hi = -(t + 2), mpmath.mpf(0)
            z = math.log(guess / count) if guess > 0.0 else None
        elif name == "observed_lower":
            f = lambda v: x * (v - 1 - v * mpmath.log(v)) - lx
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            z = guess / count
        else:
            if name == "expectation_upper":
                f = lambda u: x * (u - 1 - mpmath.log(u)) + lx
            else:
                f = lambda v: x * (v * mpmath.log(v) - v + 1) + lx
            lo, hi = mpmath.mpf(1), t + mpmath.sqrt(2 * t) + 2
            z = guess / count
        if z is not None:
            width = 1e-9 * max(abs(z), 1.0 if name == "expectation_lower" else 0.0)
            a, b = mpmath.mpf(z) - width, mpmath.mpf(z) + width
            if lo < a and b < hi and f(a) <= 0 < f(b):
                lo, hi = a, b
        while hi - lo > mpmath.mpf(10) ** -45 * max(abs(hi), mpmath.mpf(10) ** -300):
            mid = (lo + hi) / 2
            if f(mid) <= 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        return float(x * (mpmath.exp(root) if name == "expectation_lower" else root))


SCALAR = {"expectation_lower": expectation_lower,
          "expectation_upper": expectation_upper,
          "observed_lower": observed_lower,
          "observed_upper": observed_upper}
ARRAY = {"expectation_lower": expectation_lower_array,
         "expectation_upper": expectation_upper_array,
         "observed_lower": observed_lower_array,
         "observed_upper": observed_upper_array}
EMPTY = {"expectation_lower": lambda lx: 0.0, "expectation_upper": lambda lx: -lx,
         "observed_lower": lambda lx: 0.0, "observed_upper": lambda lx: 0.0}


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# The smallest log failure probability a scan reaches: the parameter
# estimation share of the budget at the largest block size, N = 1e15.
LOG_XI_MIN = security_budget(1e-10, 1e15).log_epsilon

COUNTS = st.one_of(st.just(0.0), _log_uniform(1e-6, 1e15))
LOG_XIS = _log_uniform(1e-3, -LOG_XI_MIN).map(lambda m: -m)


@pytest.mark.parametrize("name", sorted(SCALAR))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(count=COUNTS, log_xi=LOG_XIS)
def test_bounds_against_mpmath(name, count, log_xi):
    """All four bounds are 50-digit roots to rel 1e-12 over the working range.

    The absolute 1e-300 only admits expectation_lower bounds that underflow
    to subnormal or zero doubles (true values below ~1e-300).
    """
    got = float(ARRAY[name](np.array([count]), log_xi)[0])
    if count == 0.0:
        assert got == EMPTY[name](log_xi)
        return
    if name == "observed_lower" and count + log_xi <= 0.0:
        assert got == 0.0  # the clamp: a zero observation is not xi-unlikely
        return
    assert got == pytest.approx(_mp_bound(name, count, log_xi, got), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("excess", [1e-12, 1e-9, 1e-6, 1e-3, 0.5])
def test_observed_lower_just_above_the_clamp(excess):
    # Y barely above ln(1/xi): the bound is a tiny positive count, computed
    # from Y + ln(xi) without cancellation.
    log_xi = -1000.0
    y = 1000.0 * (1.0 + excess)
    got = observed_lower(y, log_xi=log_xi)
    assert 0.0 < got == pytest.approx(_mp_bound("observed_lower", y, log_xi, got),
                                      rel=1e-12, abs=0)
    assert observed_lower(1000.0, log_xi=log_xi) == 0.0


@pytest.mark.parametrize("name", sorted(SCALAR))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(COUNTS, min_size=1, max_size=40), log_xi=LOG_XIS)
def test_batch_element_equals_scalar_call(name, counts, log_xi):
    if name == "observed_upper":
        counts = [c for c in counts if c > 0.0] or [1.0]
    batch = ARRAY[name](np.array(counts), log_xi)
    scalar = [SCALAR[name](c, log_xi=log_xi) for c in counts]
    assert batch.tolist() == scalar


def test_bisection_fallback_matches_reference(monkeypatch):
    # With Newton disabled every element is solved by the bisection backup.
    rng = np.random.default_rng(3)
    counts = 10.0 ** rng.uniform(-6, 15, 24)
    log_xis = -(10.0 ** rng.uniform(-3, math.log10(-LOG_XI_MIN), 24))
    monkeypatch.setattr(chernoff, "_MAX_NEWTON", 0)
    for name, solve in ARRAY.items():
        got = solve(counts, log_xis)
        for g, c, lx in zip(got, counts, log_xis):
            if name == "observed_lower" and c + lx <= 0.0:
                assert g == 0.0
                continue
            assert g == pytest.approx(_mp_bound(name, c, lx, g), rel=1e-12, abs=1e-300)
