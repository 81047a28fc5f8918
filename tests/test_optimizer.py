"""Tests for the (px, mu) grid optimizer."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd import optimizer
from scsqkd.channel import ChannelParams, ProtocolParams, arm_transmittance
from scsqkd.keyrate import KeyRateReport
from scsqkd.optimizer import (NoFeasiblePointError, SearchSpace, _axes, optimize,
                              search_points)
from scsqkd.pipeline import (ASYMPTOTIC, SecurityConfig, SourceCalibration,
                             evaluate_point, evaluate_points)


def _channel(distance: float) -> ChannelParams:
    return ChannelParams(distance, 0.2, 0.3, 1e-9, 0.04)


CHANNEL_50 = _channel(50.0)
CALIB = SourceCalibration()
SECURITY = SecurityConfig()


def _search(points, space=SearchSpace(), sizes=None):
    """search_points on (channel, block size, mode) records of one p_d and
    e_d, passed as columns: each record's transmittance, its index into
    ``sizes``, by default the distinct ones in record order, and whether it
    is in baseline mode."""
    sizes = sizes or tuple(dict.fromkeys(block for _, block, _ in points))
    return search_points(points[0][0], CALIB, SECURITY,
                         np.array([arm_transmittance(c) for c, _, _ in points]), sizes,
                         np.array([sizes.index(b) for _, b, _ in points]),
                         np.array([m == "baseline" for _, _, m in points]), space)


def _grid_rates(px_vals, mu_vals) -> np.ndarray:
    """Unclamped coherent rates at the feasible points of a (px, mu) grid,
    at 50 km and N = 1e12."""
    px, mu = (g.ravel() for g in np.meshgrid(px_vals, mu_vals, indexing="ij"))
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu,
                            arm_transmittance(CHANNEL_50), SECURITY, (1e12,))
    return batch.R_coh_signed[batch.feasible]


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(px_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            SearchSpace(mu_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SearchSpace(grid=(0, 10))
        with pytest.raises(ValueError):
            SearchSpace(shrink=1.0)

    def test_shrink_just_above_one_accepted(self):
        shrink = math.nextafter(1.0, 2.0)
        assert SearchSpace(shrink=shrink).shrink == shrink


@pytest.mark.parametrize("space", [np.linspace, np.geomspace])
@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_axes_rows_equal_one_point_calls(space, n):
    # Every open row equals the one-point call bit for bit, also beside a
    # collapsed row, which is n copies of its endpoint.
    rng = np.random.default_rng(n)
    lo = np.exp(rng.uniform(-9.0, -0.7, 200))
    hi = np.minimum(lo * np.exp(rng.uniform(0.0, 3.0, 200)), 0.99)
    hi[::7] = lo[::7]
    axes = _axes(lo, hi, n, space is np.geomspace)
    for row, a, b in zip(axes, lo.tolist(), hi.tolist()):
        expected = [a] * n if a == b else space(a, b, n).tolist()
        assert row.tolist() == expected


@st.composite
def _axis_rows(draw):
    """(space, lo, hi): rows of ranges inside the default search box of
    ``space``, each open, one ulp wide or collapsed."""
    space = draw(st.sampled_from([np.linspace, np.geomspace]))
    box_lo, box_hi = (SearchSpace().px_range if space is np.linspace
                      else SearchSpace().mu_range)
    floats = st.floats(box_lo, math.nextafter(box_hi, 0.0))
    lo, hi = [], []
    for kind in draw(st.lists(st.sampled_from(["open", "ulp", "collapsed"]),
                              min_size=1, max_size=12)):
        a = draw(floats)
        lo.append(a)
        hi.append(draw(st.floats(a, box_hi)) if kind == "open"
                  else math.nextafter(a, math.inf) if kind == "ulp" else a)
    return space, np.array(lo), np.array(hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=_axis_rows(), n=st.integers(1, 64))
def test_axes_rows_equal_one_point_calls_property(rows, n):
    # Also where a one-ulp range has a zero step, on the log axis too,
    # beside open and collapsed rows.
    space, lo, hi = rows
    for row, a, b in zip(_axes(lo, hi, n, space is np.geomspace), lo.tolist(), hi.tolist()):
        expected = np.full(n, a) if a == b else space(a, b, n)
        assert row.tobytes() == expected.tobytes(), (a, b, row.tolist())


_RATES = (-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0)

# The shape of each KeyRateReport field on a (point, px, mu) pass, after
# feasible: the virtual intensities and e_ph have one px, n_O one mu, as in
# an evaluate_points pass.
_FIELD_SHAPES = ("mu", "mu", "px", "full", "full", "mu", "full", "full", "full")


@st.composite
def _passes(draw):
    """(size, n_px, n_mu, passes): one pass per sweep over a sorted subset of
    ``size`` points, each pass ``(points, px, mu, batch)``."""
    size = draw(st.integers(1, 4))
    n_px, n_mu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    passes = []
    for sweep in range(draw(st.integers(1, 3))):
        points = np.array(sorted(draw(st.sets(st.integers(0, size - 1), min_size=1))))
        n = len(points)
        full = (n, n_px, n_mu)
        # Feasibility per candidate, or per mu as in an evaluate_points pass.
        on = full if draw(st.booleans()) else (n, 1, n_mu)
        feasible = np.array(draw(st.lists(st.booleans(), min_size=math.prod(on),
                                          max_size=math.prod(on)))).reshape(on)
        rates = np.array(draw(st.lists(st.sampled_from(_RATES), min_size=math.prod(full),
                                       max_size=math.prod(full)))).reshape(full)
        # Distinct values everywhere, so a wrong index shows in every field.
        offset = 1000.0 * (sweep + 1)
        shapes = {"mu": (n, 1, n_mu), "px": (n, n_px, 1), "full": full}
        fields = [offset + k + np.arange(math.prod(shapes[kind])).reshape(shapes[kind])
                  / 64.0 for k, kind in enumerate(_FIELD_SHAPES[:-1])]
        px = offset + 0.25 + np.arange(n * n_px).reshape(n, n_px)
        mu = offset + 0.75 + np.arange(n * n_mu).reshape(n, n_mu)
        passes.append((points, px, mu, KeyRateReport(feasible, *fields, rates)))
    return size, n_px, n_mu, passes


def _reference_incumbents(size, passes):
    """Each point's (px, mu, report fields) by a plain loop over candidates in
    (px, mu) order, or None."""
    best = [None] * size
    for points, px, mu, batch in passes:
        values = np.broadcast_arrays(*vars(batch).values())
        feasible, rates = values[0], values[-1]
        for r, j in enumerate(points.tolist()):
            pick = None
            for a, b in np.ndindex(feasible.shape[1:]):
                if not feasible[r, a, b]:
                    continue
                # The first feasible candidate, replaced by the first of
                # strictly larger rates after it.
                if pick is None or rates[r, a, b] > rates[r, pick[0], pick[1]]:
                    pick = (a, b)
            if pick is None:
                continue
            a, b = pick
            score = rates[r, a, b]
            if best[j] is None or score > best[j][-1]:
                best[j] = (px[r, a], mu[r, b], *(float(v[r, a, b]) for v in values[1:]))
    return best


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=_passes())
def test_incumbents_match_a_reference_loop(drawn):
    size, _, _, passes = drawn
    best = optimizer._Incumbents(size)
    for points, px, mu, batch in passes:
        best.update(points, px, mu, batch)
    expected = _reference_incumbents(size, passes)
    assert best.found.tolist() == [e is not None for e in expected]
    for j, e in enumerate(expected):
        if e is not None:
            got = best.values[:, j].tolist()
            assert [x.hex() for x in got] == [float(x).hex() for x in e], j


def _rate_pass(rates, feasible=True):
    """One point's pass over px = 0.1, 0.2, ... and one mu, with the given
    coherent rates; every other field is 0."""
    rates = np.array(rates, dtype=float).reshape(1, -1, 1)
    zero = np.zeros((1, 1, 1))
    feasible = np.broadcast_to(np.reshape(feasible, (1, -1, 1)), rates.shape)
    batch = KeyRateReport(feasible, *[zero] * 8, rates)
    px = np.arange(1.0, rates.shape[1] + 1.0)[None, :] / 10.0
    return np.array([0]), px, np.array([[0.3]]), batch


@pytest.mark.parametrize("rates, feasible, expected", [
    ([1e-6, math.nan, 2e-6], True, (0.3, 2e-6)),
    ([math.nan, 3e-6, 2e-6], True, (0.2, 3e-6)),
    # NaN ranks below -inf, and an infeasible candidate ranks below both.
    ([math.nan, -math.inf, 1.0], [True, True, False], (0.2, -math.inf)),
    ([math.nan, math.nan], True, None),
    ([math.nan, 1.0], [True, False], None),
])
def test_nan_rate_never_becomes_the_incumbent(rates, feasible, expected):
    best = optimizer._Incumbents(1)
    best.update(*_rate_pass(rates, feasible))
    # A later pass of NaN rates keeps the incumbent.
    for _ in range(2):
        if expected is None:
            assert not best.found[0]
            assert best.values[:, 0].tolist() == [0.0] * optimizer._Incumbents.ROWS
        else:
            assert best.found[0]
            assert (best.values[0, 0], best.values[-1, 0]) == expected
        best.update(*_rate_pass([math.nan, math.nan]))


class TestIncumbentRule:
    """search_points against a stubbed pass whose feasibility and rates
    are set per sweep, point and candidate; the candidate index is
    lexicographic in (px, mu).  Infeasible candidates carry high rates,
    which must be ignored."""

    N_PX, N_MU = 3, 4

    @staticmethod
    def _table(feasible=None, rates=None, base=-1.0):
        ok = np.ones(12, dtype=bool)
        if feasible is not None:
            ok[:] = False
            ok[feasible] = True
        rate = np.where(ok, base, 9.0)
        for k, value in (rates or {}).items():
            rate[k] = value
        return ok, rate

    def _run(self, monkeypatch):
        t = self._table
        inf = math.inf
        tables = {
            # Equal maxima within a sweep: the first wins, and a later
            # sweep's equal rate does not replace it.
            0: [t(rates={5: 2.0, 7: 2.0}), t(rates={1: 2.0}), t(rates={11: 2.0})],
            # A strictly larger rate replaces the incumbent; an infeasible
            # candidate's larger rate does not.
            1: [t(rates={2: 1.0}), t(feasible=list(range(1, 12)), rates={0: 9.5, 10: 1.5}),
                t(rates={4: 1.2})],
            # All feasible rates -inf: the first feasible candidate, kept
            # against a later all -inf sweep.
            2: [t(feasible=[3, 6], base=-inf), t(base=-inf), t(base=-inf)],
            # No feasible coarse candidate: zeros, never refined.
            3: [t(feasible=[])],
            # Maxima at (px 1, mu 0) and (px 0, mu 3): px decides first.
            4: [t(rates={4: 3.0, 3: 3.0}), t(rates={0: 2.0}), t(rates={0: 2.0})],
        }
        channels = [ChannelParams(10.0 * i, 0.2, 0.3, 1e-9, 0.04) for i in tables]
        point_of = {arm_transmittance(c): i for i, c in enumerate(channels)}
        calls = []
        shape = (self.N_PX, self.N_MU)

        def stub(channel, calib, p0, px, mu_A, mu_B, eta, *rest):
            sweep = len(calls)
            ids = [point_of[e] for e in eta.ravel().tolist()]
            calls.append((ids, px[:, :, 0], mu_A[:, 0, :]))
            full = (len(ids), *shape)
            feasible, rates = (np.array([tables[i][sweep][k] for i in ids]).reshape(full)
                               for k in (0, 1))
            tag = [np.broadcast_to(np.asarray(v, dtype=float).reshape(-1, 1, 1), full)
                   for v in (sweep, ids)]
            index = np.broadcast_to(np.arange(12.0).reshape(shape), full)
            return KeyRateReport(feasible, *tag, *[index] * 5, rates, rates)

        monkeypatch.setattr(optimizer, "evaluate_points", stub)
        space = SearchSpace(grid=shape, refine_rounds=2)
        result = _search([(c, 1e12, "improved") for c in channels], space)
        return result, calls

    def test_incumbents(self, monkeypatch):
        (px, mu, report), calls = self._run(monkeypatch)
        assert [ids for ids, _, _ in calls] == [[0, 1, 2, 3, 4], [0, 1, 2, 4], [0, 1, 2, 4]]
        winners = {0: (0, 5, 2.0), 1: (1, 10, 1.5), 2: (0, 3, -math.inf), 4: (0, 3, 3.0)}
        assert report.feasible.tolist() == [True, True, True, False, True]
        assert [px[3], mu[3], *(getattr(report, f.name)[3] for f in fields(report)[1:])
                ] == [0.0] * 11
        for i, (sweep, k, rate) in winners.items():
            assert (report.mu_virtual_A[i], report.mu_virtual_B[i], report.n_O[i],
                    report.R_coh_signed[i]) == (sweep, i, k, rate)
            ids, px_axes, mu_axes = calls[sweep]
            a, b = divmod(k, self.N_MU)
            assert (px[i], mu[i]) == (px_axes[ids.index(i), a], mu_axes[ids.index(i), b])


class TestOptimize:
    def test_reproducible(self):
        a = optimize(CHANNEL_50, CALIB, 1e12, SECURITY)
        b = optimize(CHANNEL_50, CALIB, 1e12, SECURITY)
        assert a[0] == b[0]
        assert a[1].R_coh == b[1].R_coh

    def test_results_are_python_floats(self):
        protocol, report = optimize(CHANNEL_50, CALIB, 1e12, SECURITY,
                                    SearchSpace(grid=(5, 5), refine_rounds=1))
        for value in (protocol.px, protocol.p0, protocol.mu_xA,
                      report.R_coh, report.e_ph, report.n_Z):
            assert type(value) is float

    def test_result_within_search_bounds(self):
        space = SearchSpace(px_range=(0.05, 0.6), mu_range=(1e-3, 0.1),
                            grid=(8, 8), refine_rounds=1)
        protocol, _ = optimize(CHANNEL_50, CALIB, 1e12, SECURITY, space)
        assert 0.05 <= protocol.px <= 0.6
        assert 1e-3 <= protocol.mu_xA <= 0.1
        assert protocol.mu_xA == protocol.mu_xB

    def test_beats_every_coarse_grid_point(self):
        space = SearchSpace(grid=(10, 10), refine_rounds=1)
        _, report = optimize(CHANNEL_50, CALIB, 1e12, SECURITY, space)
        grid = _grid_rates(np.linspace(*space.px_range, 10),
                           np.geomspace(*space.mu_range, 10))
        assert report.R_coh_signed >= grid.max()

    def test_matches_exhaustive_fine_grid_within_one_percent(self):
        protocol, report = optimize(CHANNEL_50, CALIB, 1e12, SECURITY)
        best = max(_grid_rates(np.linspace(0.01, 0.99, 120),
                               np.geomspace(1e-4, 1.0, 120)).max(), 0.0)
        assert best > 0.0
        assert report.R_coh >= best * 0.99

    def test_infeasible_candidates_are_skipped(self):
        # Intensities above ~0.63 violate the mapping condition with +-10%
        # fluctuation; a range straddling the boundary must still succeed.
        space = SearchSpace(mu_range=(0.01, 2.0), grid=(6, 12), refine_rounds=0)
        protocol, _ = optimize(CHANNEL_50, CALIB, 1e12, SECURITY, space)
        assert protocol.mu_xA < 0.7

    def test_fully_infeasible_space_raises(self):
        space = SearchSpace(mu_range=(1.0, 2.0), grid=(3, 3), refine_rounds=0)
        with pytest.raises(NoFeasiblePointError):
            optimize(CHANNEL_50, CALIB, 1e12, SECURITY, space)

    def test_asymptotic_block_size(self):
        protocol, report = optimize(CHANNEL_50, CALIB, "asymptotic", SECURITY)
        assert report.R_coh == report.R_col
        assert report.R_coh > 0.0
        assert protocol.N == 1

    def test_mode_flag_propagates(self):
        protocol, _ = optimize(CHANNEL_50, CALIB, "asymptotic", SECURITY,
                               SearchSpace(grid=(5, 5), refine_rounds=0),
                               mode="baseline")
        assert protocol.mode == "baseline"


def test_optimize_rejects_an_unknown_mode_before_searching(monkeypatch):
    # The search takes the mode as a baseline flag, in which any name but
    # "baseline" would read as improved: the name is checked first.
    def fail(*args, **kwargs):
        raise AssertionError("evaluated a candidate")

    monkeypatch.setattr(optimizer, "evaluate_points", fail)
    for mode in ("other", "Baseline", None):
        with pytest.raises(ValueError, match="mode must be one of"):
            optimize(CHANNEL_50, CALIB, 1e12, SECURITY, mode=mode)


def test_report_fields_equal_re_evaluation(monkeypatch):
    # Every field of the report at each point's (px, mu) is evaluate_point's
    # bit for bit, leak_EC and R_col_signed too, which no CSV column shows.
    # The pass marks every candidate of the 30 km point infeasible, so that
    # point holds zeros.
    points = [(_channel(0.0), 1e10, "improved"), (_channel(50.0), 1e12, "baseline"),
              (_channel(30.0), 1e12, "improved"), (_channel(50.0), 1e12, "improved"),
              (_channel(100.0), ASYMPTOTIC, "improved"),
              (_channel(100.0), ASYMPTOTIC, "baseline"),
              (_channel(220.0), ASYMPTOTIC, "improved")]
    dead = arm_transmittance(_channel(30.0))

    def masked(*args, **kwargs):
        batch = evaluate_points(*args, **kwargs)
        return replace(batch, feasible=batch.feasible & (args[6] != dead))

    monkeypatch.setattr(optimizer, "evaluate_points", masked)
    px, mu, report = _search(points, SearchSpace(grid=(6, 6), refine_rounds=2))
    assert report.feasible.tolist() == [True, True, False, True, True, True, True]
    for i, (channel, block, mode) in enumerate(points):
        got = [px[i], mu[i], *(getattr(report, f.name)[i] for f in fields(report))]
        if i == 2:
            assert got == [0.0] * 12
            continue
        p, m = float(px[i]), float(mu[i])
        single = evaluate_point(channel, CALIB,
                                ProtocolParams(p0=1.0 - p, px=p, mu_xA=m, mu_xB=m, mode=mode,
                                               N=1 if block == ASYMPTOTIC else block),
                                SECURITY, block)
        want = [p, m, *(getattr(single, f.name) for f in fields(single))]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want], i


def test_dead_point_is_not_swept_again_and_collapse_still_ends_refinement(monkeypatch):
    # The 30 km point has no feasible candidate, as in the test above.  At
    # shrink 1e10 every other point's axes collapse in the second refinement
    # round, which ends the search before refine_rounds: the coarse sweep and
    # one refinement sweep run, one pass per kind of block size each, and
    # the dead point is in the coarse passes only.
    points = [(_channel(0.0), 1e10, "improved"), (_channel(50.0), 1e12, "baseline"),
              (_channel(30.0), 1e12, "improved"), (_channel(50.0), 1e12, "improved"),
              (_channel(100.0), ASYMPTOTIC, "improved"),
              (_channel(100.0), ASYMPTOTIC, "baseline"),
              (_channel(220.0), ASYMPTOTIC, "improved")]
    eta = [arm_transmittance(channel) for channel, _, _ in points]
    swept = []

    def masked(*args, **kwargs):
        swept.append(args[6].ravel().tolist())
        batch = evaluate_points(*args, **kwargs)
        return replace(batch, feasible=batch.feasible & (args[6] != eta[2]))

    monkeypatch.setattr(optimizer, "evaluate_points", masked)
    _, _, report = _search(points, SearchSpace(grid=(6, 6), refine_rounds=4, shrink=1e10))
    assert report.feasible.tolist() == [True, True, False, True, True, True, True]
    assert swept == [eta[:4], eta[4:], [eta[0], eta[1], eta[3]], eta[4:]]


def test_columns_take_sizes_and_modes_in_any_order():
    # The points, of both modes, and the distinct block sizes may come in any
    # order, and the sizes may hold entries no point uses: each point's
    # result keeps every bit, also alone.
    # The channel passed (the first point's: 0 km, then 40 km) gives no
    # distance.
    points = [(_channel(d), block, mode) for d in (0.0, 40.0)
              for block in (1e12, ASYMPTOTIC, 1e10) for mode in ("improved", "baseline")]
    space = SearchSpace(grid=(4, 4), refine_rounds=1)
    want = _search(points, space)
    got = _search(points[6:] + points[:6], space, sizes=(ASYMPTOTIC, 1e11, 1e10, 1e12))
    order = list(range(6, 12)) + list(range(6))
    for a, b in zip(want[:2] + tuple(vars(want[2]).values()),
                    got[:2] + tuple(vars(got[2]).values())):
        assert [float(v).hex() for v in np.asarray(a)[order]] == [
            float(v).hex() for v in b]
    one = _search(points[1:2], space)
    assert [float(v).hex() for v in (one[0][0], one[1][0], one[2].R_coh[0])] == [
        float(v).hex() for v in (want[0][1], want[1][1], want[2].R_coh[1])]


@pytest.mark.parametrize("block, baseline, match", [
    ([0, 2], [False, False], "block"), ([0, -1], [False, False], "block"),
    ([0], [False, False], "block"), ([0, 1], [False], "baseline"),
    ([0, 0], [0, 1], "baseline"), ([0, 1], [0.0, 1.0], "baseline")],
    ids=["block-past-sizes", "block-negative", "short-block", "short-baseline",
         "int-baseline", "float-baseline"])
def test_search_rejects_indices_that_pick_no_size_or_mode(block, baseline, match):
    with pytest.raises(ValueError, match=match):
        search_points(CHANNEL_50, CALIB, SECURITY, np.full(2, 0.1), (1e12, ASYMPTOTIC),
                      np.array(block), np.array(baseline))


def test_default_search_within_stated_gap_of_a_dense_search():
    # The last positive improved row of each README curve (220 km
    # asymptotic, 90 km at N = 1e12, 0 km at N = 1e10) and one mid-range row
    # (50 km at N = 1e12), searched at the README's (default) settings and on
    # a 200 x 200 grid with 8 refinement rounds.  Measured relative gaps:
    # 3.6e-4, 3.0e-4, 1.8e-4 and 1.1e-4; the bound leaves a margin of 1.4x
    # over the largest.
    points = [(_channel(220.0), ASYMPTOTIC, "improved"),
              (_channel(90.0), 1e12, "improved"),
              (_channel(0.0), 1e10, "improved"),
              (_channel(50.0), 1e12, "improved")]
    _, _, got = _search(points)
    _, _, dense = _search(points, SearchSpace(grid=(200, 200), refine_rounds=8))
    assert (dense.R_coh > 0.0).all()
    assert (1.0 - got.R_coh / dense.R_coh < 5e-4).all(), got.R_coh / dense.R_coh
