"""Tests for the Chernoff upper bounds."""
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd import chernoff
from scsqkd.chernoff import expectation_upper, observed_upper
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
        with pytest.raises(ValueError, match="log_xi must be finite and negative"):
            observed_upper(10.0, 0.0)
        # A failure probability passed where its log is due fails loudly.
        for func in (expectation_upper, observed_upper):
            with pytest.raises(ValueError, match="log_xi must be finite and negative"):
                func(np.array([10.0, 1e4]), 1e-10)
        with pytest.raises(ValueError, match="log_xi must be finite and negative"):
            observed_upper(10.0, np.array([-1.0, 0.5]))


class TestEdgeCases:
    def test_xi_out_of_range_rejected(self):
        # xi = 0 and xi = 1, as their logs.
        with pytest.raises(ValueError, match="log_xi must be finite and negative"):
            expectation_upper(10.0, -math.inf)
        with pytest.raises(ValueError, match="log_xi must be finite and negative"):
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
LOG_XI_MIN = security_budget(1e-10, 1e15, 8)

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


def test_checked_loop_alone_matches_reference(monkeypatch):
    # With no unchecked step, every element the start leaves outside
    # rounding of its root is solved by the checked loop.
    rng = np.random.default_rng(3)
    counts = 10.0 ** rng.uniform(-6, 15, 24)
    log_xis = -(10.0 ** rng.uniform(-3, math.log10(-LOG_XI_MIN), 24))
    monkeypatch.setattr(chernoff, "_STEPS", 0)
    for name, solve in BOUNDS.items():
        got = solve(counts, log_xis)
        # A scalar count takes the same path as an array element.
        assert solve(float(counts[0]), float(log_xis[0])) == got[0]
        for g, c, lx in zip(got, counts, log_xis):
            assert g == pytest.approx(_mp_bound(name, c, lx, g), rel=1e-12)


def _late(name, t):
    """Mask of the elements of ``t`` whose residual is not within rounding
    after the start and ``_STEPS`` unchecked steps of one bound."""
    start, step, residual = (getattr(chernoff, f"_{name}_{part}")
                             for part in ("start", "step", "residual"))
    w, a, b = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    start(t, w, a, b)
    for _ in range(chernoff._STEPS):
        step(w, t, a, b)
    h, slope, scale = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    residual(w, t, h, slope, scale)
    return np.abs(h) > chernoff._NOISE * scale


@pytest.mark.parametrize("name", sorted(BOUNDS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(count=_log_uniform(1e-300, 1e15), log_xi=LOG_XIS)
def test_start_lies_beyond_the_root(name, count, log_xi):
    """The start's residual is <= 0 (beyond the root), or rounding noise,
    and lies below the Gaussian-guess start s + t."""
    t = np.array([-log_xi / count])
    start = getattr(chernoff, f"_{name}_start")
    w, a, b = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    start(t, w, a, b)
    h, slope, scale = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    getattr(chernoff, f"_{name}_residual")(w, t, h, slope, scale)
    assert h[0] <= chernoff._NOISE * scale[0]
    assert w[0] <= np.sqrt(2.0 * t[0]) + t[0]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_start_agrees_with_the_root_to_second_order(name):
    # The root is sqrt(2t) + O(t) at small t; the start matches that O(t)
    # term too, so its relative error is O(t) (about t / 18) rather than
    # O(sqrt(t)).  Below t = 1e-6 the root's own rounding would show.
    t = np.geomspace(1e-6, 1e-2, 41)
    parts = [getattr(chernoff, f"_{name}_{part}")
             for part in ("start", "step", "residual")]
    root = chernoff._solve(*parts, t)
    w = np.empty_like(t)
    parts[0](t, w, np.empty_like(t), np.empty_like(t))
    assert np.all(np.abs(w - root) <= t * root)


# Three steps settle every element of t = |ln xi| / count in these ranges.
NO_STRAGGLER_T = {"expectation_upper": (1e-300, 1e305),
                  "observed_upper": (1e-30, 1.0)}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_three_steps_leave_no_straggler(name, monkeypatch):
    t = np.geomspace(*NO_STRAGGLER_T[name], 200_001)
    assert not _late(name, t).any()
    # The solve gathers no element for the checked loop either.
    gathered = []
    real = chernoff._newton
    monkeypatch.setattr(chernoff, "_newton",
                        lambda r, w, sub: gathered.append(w.size) or real(r, w, sub))
    BOUNDS[name](1.0 / t, -1.0)
    assert gathered == []


# From the start, the checked loop settles every element within this many
# steps: 3 for expectation_upper and 5 for observed_upper (near t = 800).
WORST_STEPS = 6


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_checked_loop_settles_far_below_its_cap(name):
    """From the start, the checked loop settles every t = |ln xi| / count
    from 1e-320 to _T_MAX within WORST_STEPS steps, so no element keeps its
    iterate at the cap: a slower start or step fails here."""
    assert WORST_STEPS < chernoff._MAX_NEWTON
    t = np.geomspace(1e-320, chernoff._T_MAX, 200_001)
    start, residual = (getattr(chernoff, f"_{name}_{part}")
                       for part in ("start", "residual"))
    w = np.empty_like(t)
    start(t, w, np.empty_like(t), np.empty_like(t))
    calls = []

    def counted(*args):
        calls.append(None)
        residual(*args)

    chernoff._newton(counted, w, t)
    # The last evaluation finds every element settled.
    assert len(calls) - 1 <= WORST_STEPS
    assert np.all(w > 0.0) and np.all(np.isfinite(w))


def _beyond_observed_root(bound: float, count: float, log_xi: float) -> bool:
    """Whether ``bound`` lies at or beyond observed_upper's root, from the
    equation's left side in B = Y v, B (ln(B / Y) - 1) + Y, to 50 digits."""
    with mpmath.workdps(50):
        b, y = mpmath.mpf(bound), mpmath.mpf(count)
        return b * (mpmath.log(b / y) - 1) + y >= -log_xi


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_counts_outside_the_solver_range_take_closed_forms(name):
    """Where t = |ln xi| / count exceeds _T_MAX (a subnormal count) or is 0
    (an infinite count), no bound is NaN: expectation_upper takes its
    count -> 0 limit ln(1/xi), observed_upper an upper bound within 1e-3 of
    its root, and an infinite count an infinite bound."""
    # 7.5e-303 puts t at 2e305, just beyond _T_MAX.
    counts = np.array([5e-324, 1e-310, 7.5e-303, np.inf])
    got = BOUNDS[name](counts, -1500.0)
    assert [float(BOUNDS[name](c, -1500.0)) for c in counts] == got.tolist()
    assert got[-1] == np.inf
    if name == "expectation_upper":
        assert got[:-1].tolist() == [1500.0] * 3
    else:
        for g, c in zip(got[:-1], counts):
            assert 0.0 < g < 3.0
            assert _beyond_observed_root(g, c, -1500.0)
            assert not _beyond_observed_root(g * (1.0 - 1e-3), c, -1500.0)
    # t rounds to 0 at a finite count: no slack.
    assert BOUNDS[name](np.array([1e308]), -1e-20).tolist() == [1e308]


@pytest.mark.parametrize("max_newton", [chernoff._MAX_NEWTON, 0])
def test_stragglers_are_solved_again(max_newton, monkeypatch):
    """Outside the pinned range, observed_upper leaves stragglers: above
    t = 1, and near t = 5e-33, where an unchecked step crosses the root to
    below 0.  They are solved from the start by the checked loop to rel
    1e-12; with no checked step they keep their start, which lies beyond
    the root.  No bound falls below its count."""
    monkeypatch.setattr(chernoff, "_MAX_NEWTON", max_newton)
    counts = 20.0 / np.concatenate((np.geomspace(1.5, 1e300, 30),
                                    np.geomspace(1.8e-33, 8.3e-33, 41)))
    late = _late("observed_upper", 20.0 / counts)
    assert late[:30].all() and late[30:].any()
    gathered = []
    real = chernoff._newton
    monkeypatch.setattr(chernoff, "_newton",
                        lambda r, w, sub: gathered.append(w.size) or real(r, w, sub))
    got = observed_upper(counts, -20.0)
    assert gathered == [late.sum()]
    assert np.all(got >= counts)
    roots = np.array([_mp_bound("observed_upper", c, -20.0, g) for g, c in zip(got, counts)])
    if max_newton:
        assert got == pytest.approx(roots, rel=1e-12)
        return
    t = 20.0 / counts[late]
    start = np.empty_like(t)
    chernoff._observed_upper_start(t, start, np.empty_like(t), np.empty_like(t))
    assert got[late].tobytes() == ((start + 1.0) * counts[late]).tobytes()
    assert np.all(got >= roots * (1.0 - 1e-12))


# Reference: the solver written out of place, reading the step count and
# the iteration limit from the module under test.  The solver must equal it
# bit for bit.
def _reference_solve(start, step, residual, t):
    w = start(t)
    for _ in range(chernoff._STEPS):
        w = step(w, t)
    h, _, scale = residual(w, t)
    idx = np.flatnonzero(np.abs(h) > chernoff._NOISE * scale)
    out = np.array(w, dtype=float)
    sub = np.ravel(t)[idx]
    out.reshape(-1)[idx] = _reference_newton(residual, start(sub), sub)
    return out


def _reference_newton(residual, w, *args) -> np.ndarray:
    active = np.ones(w.shape, dtype=bool)
    for _ in range(chernoff._MAX_NEWTON):
        h, slope, scale = residual(w, *args)
        new = w - h / slope
        active &= (np.abs(h) > chernoff._NOISE * scale) & (new < w)
        if not active.any():
            break
        w = np.where(active, new, w)
    return w


def _reference_expectation_upper_start(t):
    s = np.sqrt(2.0 * t)
    return np.minimum(s * (np.sqrt(t * (2.0 / 9.0) + 1.0) + s / 3.0),
                      np.log1p(s + t) + t)


def _reference_expectation_upper_step(w, t):
    return w + (np.log1p(w) - w + t) * (1.0 + w) / w


def _reference_expectation_upper_residual(w, t):  # w = u - 1 > 0
    lg = np.log1p(w)
    return lg - w + t, -w / (1.0 + w), lg + w + t


def _reference_observed_upper_start(t):
    s = np.sqrt(2.0 * t)
    return s * (np.sqrt(t / 18.0 + 1.0) + s / 6.0)


def _reference_observed_upper_step(w, t):
    lg = np.log1p(w)
    return w + (w - (1.0 + w) * lg + t) / lg


def _reference_observed_upper_residual(w, t):  # w = v - 1 > 0
    lg = np.log1p(w)
    return w - (1.0 + w) * lg + t, -lg, w + (1.0 + w) * lg + t


def _reference_ratio(counts, log_xi):
    counts = np.asarray(counts, dtype=float)
    empty = counts == 0.0
    return counts, empty, -log_xi / np.where(empty, 1.0, counts)


def _reference_expectation_upper(X, log_xi):
    X, empty, t = _reference_ratio(X, log_xi)
    w = _reference_solve(_reference_expectation_upper_start,
                         _reference_expectation_upper_step,
                         _reference_expectation_upper_residual, t)
    return np.where(empty, -np.asarray(log_xi, dtype=float), X * (1.0 + w))


def _reference_observed_upper(Y, log_xi):
    Y, empty, t = _reference_ratio(Y, log_xi)
    w = _reference_solve(_reference_observed_upper_start,
                         _reference_observed_upper_step,
                         _reference_observed_upper_residual, t)
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
    form, after three or one unchecked steps, on the straggler path and
    with the checked loop cut at its cap, and leave their inputs
    unchanged."""
    counts = np.array(data.draw(st.lists(ORACLE_COUNTS, min_size=s * n,
                                         max_size=s * n))).reshape(s, n, 1)
    log_xis = np.array(data.draw(st.lists(ORACLE_LOG_XIS, min_size=s,
                                          max_size=s))).reshape(s, 1, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chernoff, "_MAX_NEWTON", max_newton)
        for steps, name in itertools.product((3, 1), BOUNDS):
            patch.setattr(chernoff, "_STEPS", steps)
            solve = BOUNDS[name]
            for count, log_xi in _forms(counts, log_xis):
                before = [np.copy(count), np.copy(log_xi)]
                want = REFERENCES[name](count, log_xi)
                got = solve(count, log_xi)
                assert type(got) is type(want) and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
                assert all(np.copy(a).tobytes() == b.tobytes()
                           for a, b in zip((count, log_xi), before))
