"""Tests for the (px, mu) grid optimizer."""
import numpy as np
import pytest

from scsqkd.channel import ChannelParams, arm_transmittance
from scsqkd.optimizer import NoFeasiblePointError, SearchSpace, _axes, optimize
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_points

CHANNEL_50 = ChannelParams(50.0, 0.2, 0.3, 1e-9, 0.04)
CALIB = SourceCalibration()
SECURITY = SecurityConfig()


def _grid_rates(px_vals, mu_vals) -> np.ndarray:
    """Unclamped coherent rates at the feasible points of a (px, mu) grid,
    at 50 km and N = 1e12."""
    px, mu = (g.ravel() for g in np.meshgrid(px_vals, mu_vals, indexing="ij"))
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu,
                            arm_transmittance(CHANNEL_50), SECURITY, 1e12)
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


@pytest.mark.parametrize("space", [np.linspace, np.geomspace])
@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_axes_rows_equal_one_point_calls(space, n):
    # Every open row equals the one-point call bit for bit, also beside a
    # collapsed row, which is n copies of its endpoint.
    rng = np.random.default_rng(n)
    lo = np.exp(rng.uniform(-9.0, -0.7, 200))
    hi = np.minimum(lo * np.exp(rng.uniform(0.0, 3.0, 200)), 0.99)
    hi[::7] = lo[::7]
    axes = _axes(lo, hi, n, space)
    for row, a, b in zip(axes, lo.tolist(), hi.tolist()):
        expected = [a] * n if a == b else space(a, b, n).tolist()
        assert row.tolist() == expected


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
