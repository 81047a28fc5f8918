"""Tests for the scan command-line interface and the README examples."""
import argparse
import contextlib
import copy
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from scsqkd import chernoff, keyrate, optimizer, phase_error, pipeline
from scsqkd.channel import arm_transmittance
from scsqkd.cli import (CSV_HEADER, ConfigError, build_parser, emit_plot,
                        load_config, main, rows_to_csv, run_scan)
from scsqkd.pipeline import ASYMPTOTIC, evaluate_points

README = Path(__file__).resolve().parent.parent / "README.md"

BASE_CONFIG = {
    "channel": {"alpha_f": 0.2, "eta_d": 0.3, "p_d": 1e-9, "e_d": 0.04},
    "source": {"av0": 0.99999999, "bv0": 0.99999999, "fluct": 0.1},
    "security": {"eps_coh": 1e-10, "f": 1.1, "d": 8},
    "search": {"px_range": [0.05, 0.5], "mu_range": [1e-3, 0.1],
               "grid": [5, 5], "refine_rounds": 1, "shrink": 4.0},
    "scan": {"distance": [0, 50, 50], "blocks": ["1e12"],
             "modes": ["improved"]},
    "seed": 42,
    "mc_windows": 100000,
}


def _write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _no_overrides():
    return argparse.Namespace(distance=None, blocks=None, mode=None,
                              seed=None, mc_validate=False)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(_write_config(tmp_path), _no_overrides())
        assert cfg.distances == (0.0, 50.0)
        assert cfg.blocks == ("1000000000000",)
        assert cfg.modes == ("improved",)
        assert cfg.seed == 42

    def test_missing_key_is_named(self, tmp_path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["channel"]["eta_d"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="channel.eta_d"):
            load_config(str(path), _no_overrides())

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), _no_overrides())

    def test_bad_block_size(self, tmp_path):
        # "12345.6" and 12345.6 used to run at N = 12345.
        for block in ("huge", "12345.6", 12345.6, "1e-3"):
            path = _write_config(tmp_path, {"scan": {
                "distance": [0, 50, 50], "blocks": [block], "modes": ["improved"]}})
            with pytest.raises(ConfigError,
                               match="scan.blocks holds an invalid block size"):
                load_config(path, _no_overrides())
            ns = argparse.Namespace(distance=None, blocks=f"1e10,{block}", mode=None,
                                    seed=None, mc_validate=False)
            with pytest.raises(ConfigError, match="--blocks holds an invalid block size"):
                load_config(_write_config(tmp_path), ns)

    def test_whole_block_sizes_in_any_spelling(self, tmp_path):
        path = _write_config(tmp_path, {"scan": {
            "distance": [0, 50, 50], "blocks": ["1e12", "3.162278e+10", 12345.0],
            "modes": ["improved"]}})
        assert load_config(path, _no_overrides()).blocks == (
            "1000000000000", "31622780000", "12345")

    def test_bad_mode(self, tmp_path):
        path = _write_config(tmp_path, {"scan": {
            "distance": [0, 50, 50], "blocks": ["1e10"], "modes": ["fancy"]}})
        with pytest.raises(ConfigError, match="mode"):
            load_config(path, _no_overrides())

    def test_flag_overrides(self, tmp_path):
        ns = argparse.Namespace(distance="10:30:10", blocks="1e10,asymptotic",
                                mode="both", seed=7, mc_validate=True)
        cfg = load_config(_write_config(tmp_path), ns)
        assert cfg.distances == (10.0, 20.0, 30.0)
        assert cfg.blocks == ("10000000000", "asymptotic")
        assert cfg.modes == ("improved", "baseline")
        assert cfg.seed == 7 and cfg.mc_validate

    def test_distance_step_below_resolution(self, tmp_path):
        # 1e17 + 1 == 1e17 in floating point: the axis would never end.
        ns = argparse.Namespace(distance="1e17:2e17:1", blocks=None, mode=None,
                                seed=None, mc_validate=False)
        with pytest.raises(ConfigError, match="--distance step"):
            load_config(_write_config(tmp_path), ns)


class TestCsvEmission:
    def test_schema_and_sorting(self, tmp_path):
        cfg = load_config(_write_config(tmp_path), _no_overrides())
        rows = run_scan(cfg)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cfg.distances) * len(cfg.blocks)
        distances = [float(line.split(",")[0]) for line in lines[1:]]
        assert distances == sorted(distances)

    def test_empty_table_is_header_only(self):
        assert rows_to_csv([]) == CSV_HEADER + "\n"


def _reference_row(cfg, distance: float, label: str, mode: str) -> dict:
    """One scan row from a search of this point alone: a coarse sweep, then
    ``refine_rounds`` sweeps around the incumbent, each one array pass.
    Within a sweep the first feasible maximum in (px, mu) order wins; a later
    sweep needs a strictly larger rate."""
    channel = replace(cfg.channel, distance_km=distance)
    block = label if label == ASYMPTOTIC else float(label)
    space = cfg.space

    def axis(lo, hi, n, log):
        if n == 1 or lo == hi:
            return [lo]
        return (np.geomspace if log else np.linspace)(lo, hi, n).tolist()

    best = None

    def sweep(px_vals, mu_vals):
        nonlocal best
        px, mu = (g.ravel() for g in np.meshgrid(px_vals, mu_vals, indexing="ij"))
        batch = evaluate_points(channel, cfg.calib, 1.0 - px, px, mu, mu,
                                arm_transmittance(channel), cfg.security, block, mode)
        feasible = np.flatnonzero(batch.feasible)
        if feasible.size:
            k = int(feasible[np.argmax(batch.R_coh_signed[feasible])])
            if best is None or batch.R_coh_signed[k] > best[0]:
                best = (float(batch.R_coh_signed[k]), float(px[k]), float(mu[k]),
                        batch.row(k))

    (px_lo, px_hi), (mu_lo, mu_hi), (n_px, n_mu) = (space.px_range, space.mu_range,
                                                    space.grid)
    sweep(axis(px_lo, px_hi, n_px, False), axis(mu_lo, mu_hi, n_mu, True))
    px_width, log_mu_width = px_hi - px_lo, math.log(mu_hi / mu_lo)
    for _ in range(space.refine_rounds if best else 0):
        px_width /= space.shrink
        log_mu_width /= space.shrink
        _, px_c, mu_c, _ = best
        sweep(axis(max(px_lo, px_c - px_width / 2.0), min(px_hi, px_c + px_width / 2.0),
                   n_px, False),
              axis(max(mu_lo, mu_c * math.exp(-log_mu_width / 2.0)),
                   min(mu_hi, mu_c * math.exp(log_mu_width / 2.0)), n_mu, True))
    row = dict.fromkeys(CSV_HEADER.split(","), 0.0)
    row.update(distance_km=distance, N=label, mode=mode, feasible_flag=0)
    if best is not None:
        _, px, mu, report = best
        # Every other column is the report attribute of its name.
        row.update({name: getattr(report, name) for name in row
                    if hasattr(report, name)}, px=px, mu_x=mu, feasible_flag=1)
    return row


def _check_batched_scan(tmp_path, search: dict, blocks: list[str]) -> None:
    """The batched scan of ``blocks`` in both modes, without dark counts,
    equals a search of each point alone.  At 20050 km every rate is far
    below zero; at 40050 km the transmittance underflows to 0, so n_Z = 0
    and every feasible rate is -inf: the first feasible candidate, at the
    low ends of both ranges, wins."""
    search = dict({"px_range": [0.01, 0.99], "mu_range": [1e-4, 1.0],
                   "grid": [8, 7], "refine_rounds": 2, "shrink": 4.0}, **search)
    path = _write_config(tmp_path, {
        "channel": dict(BASE_CONFIG["channel"], p_d=0.0),
        "search": search,
        "scan": {"distance": [50, 40050, 20000], "blocks": blocks,
                 "modes": ["improved", "baseline"]}})
    cfg = load_config(path, _no_overrides())
    rows = run_scan(cfg)
    assert len(rows) == 3 * len(blocks) * 2
    for row in rows:
        assert row == _reference_row(cfg, row["distance_km"], row["N"], row["mode"])
    far = [row for row in rows if row["distance_km"] == 40050.0]
    assert len(far) == len(blocks) * 2
    for row in far:
        assert (row["px"], row["mu_x"], row["feasible_flag"], row["R_coh"]) == (
            search["px_range"][0], search["mu_range"][0], 1, 0.0)
    assert any(row["R_coh"] > 0.0 for row in rows)


class TestBatchedScan:
    def test_batched_scan_equals_per_point_search(self, tmp_path):
        _check_batched_scan(tmp_path, {}, ["1e10", "1e13", "asymptotic"])

    @pytest.mark.parametrize("search", [
        {"mu_range": [0.01, 0.01]},
        # np.geomspace(0.03, 0.03, n) has inner values an ulp off 0.03.
        {"mu_range": [0.03, 0.03]},
        {"px_range": [0.3, 0.3]},
        {"grid": [1, 9]}], ids=["mu-0.01", "mu-0.03", "px-0.3", "grid-1x9"])
    def test_degenerate_axes_equal_per_point_search(self, tmp_path, search):
        # A collapsed axis is searched as n equal candidates, where the
        # per-point search has one; the first of equal rates gives the
        # same row.
        _check_batched_scan(tmp_path, search, ["1e12", "asymptotic"])

    def test_per_axis_work_stays_on_its_axis(self, tmp_path, monkeypatch):
        # Within a pass of S points on an n_px x n_mu grid, the source
        # mapping and the heralding probabilities run once on S x n_mu
        # intensities, and a finite pass makes one n_O and n_B Chernoff
        # solve on S x n_px + S x n_px x n_mu counts.  A finite pass runs
        # two Newton loops (that solve and the phase-error count's), an
        # asymptotic pass none.  An asymptotic pass takes the mean
        # phase-error count and H(e_ph) on S x n_mu elements; only the
        # leakage's H(E_Z) spans the whole grid.
        n_px, n_mu = 5, 3
        path = _write_config(tmp_path, {
            "search": {"px_range": [0.05, 0.5], "mu_range": [1e-3, 0.1],
                       "grid": [n_px, n_mu], "refine_rounds": 1, "shrink": 4.0},
            "scan": {"distance": [0, 100, 50], "blocks": ["1e10", "1e12", "asymptotic"],
                     "modes": ["improved", "baseline"]}})
        cfg = load_config(path, _no_overrides())
        passes = []

        def spy(module, name, size):
            real = getattr(module, name)

            def recorded(*args, **kwargs):
                result = real(*args, **kwargs)
                passes[-1][name].append(size(args, result))
                return result
            monkeypatch.setattr(module, name, recorded)

        def evaluated(*args, **kwargs):
            points = np.broadcast(args[3], args[4]).size // (n_px * n_mu)
            passes.append({"points": points, "asymptotic": args[8] == (ASYMPTOTIC,),
                           "virtual_intensity_array": [], "heralding_arrays": [],
                           "expectation_upper": [], "_newton": [], "_mean_count": [],
                           "binary_entropy": []})
            return evaluate_points(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_points", evaluated)
        spy(pipeline, "virtual_intensity_array", lambda args, _: np.size(args[0]))
        spy(pipeline, "heralding_arrays", lambda _, probs: np.size(probs[1]))
        spy(phase_error, "expectation_upper", lambda args, _: np.size(args[0]))
        spy(chernoff, "_newton", lambda args, _: np.size(args[1]))
        spy(phase_error, "_mean_count", lambda _, mean: np.size(mean))
        spy(keyrate, "binary_entropy", lambda args, _: np.size(args[0]))
        run_scan(cfg)
        assert len(passes) == 2 * 2 * 2  # rounds x modes x (finite, asymptotic)
        for p in passes:
            s, asymptotic = p["points"], p["asymptotic"]
            grid = s * n_px * n_mu
            assert p["virtual_intensity_array"] == [s * n_mu]
            assert p["heralding_arrays"] == [s * n_mu]
            assert p["expectation_upper"] == ([] if asymptotic else [s * n_px + grid])
            assert p["_newton"] == ([] if asymptotic else [s * n_px + grid, grid])
            assert p["_mean_count"] == [s * n_mu if asymptotic else grid]
            assert p["binary_entropy"] == [grid, s * n_mu if asymptotic else grid]
        assert {p["points"] for p in passes} == {3, 6}

    def test_refinement_stops_once_every_axis_collapses(self, tmp_path, monkeypatch):
        # At shrink 4 both axes collapse to one float within ~30 rounds; the
        # sweeps after that would evaluate only the incumbents.  The rows
        # equal a per-point search that runs every one of the 60 rounds.
        path = _write_config(tmp_path, {
            "search": {"px_range": [0.01, 0.99], "mu_range": [1e-4, 1.0],
                       "grid": [3, 3], "refine_rounds": 60, "shrink": 4.0},
            "scan": {"distance": [0, 50, 50], "blocks": ["1e12", "asymptotic"],
                     "modes": ["improved"]}})
        cfg = load_config(path, _no_overrides())
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_points(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_points", counted)
        rows = run_scan(cfg)
        passes = len(calls)
        assert 2 * 20 < passes < 2 * 40  # a finite and an asymptotic pass per sweep
        for row in rows:
            assert row == _reference_row(cfg, row["distance_km"], row["N"], row["mode"])
        calls.clear()
        longest = replace(cfg, space=replace(cfg.space,
                                             refine_rounds=optimizer.MAX_REFINE_ROUNDS))
        assert run_scan(longest) == rows
        assert len(calls) == passes

    @pytest.mark.parametrize("chunk, passes", [
        (None, 3 * 2),       # one pass per round and mode
        (60, 3 * 2 * 3),     # two 25-candidate points per pass
        (20, 3 * 2 * 6)])    # each point larger than the limit, a pass of its own
    def test_one_pass_per_round_and_group(self, tmp_path, monkeypatch, chunk, passes):
        path = _write_config(tmp_path, {
            "search": {"px_range": [0.05, 0.5], "mu_range": [1e-3, 0.1],
                       "grid": [5, 5], "refine_rounds": 2, "shrink": 4.0},
            "scan": {"distance": [0, 100, 50], "blocks": ["1e10", "1e12"],
                     "modes": ["improved", "baseline"]}})
        cfg = load_config(path, _no_overrides())
        expected = run_scan(cfg)
        calls = []

        def counted(*args, **kwargs):
            # Candidates of the pass: its px broadcast against its mu.
            calls.append(np.broadcast(args[3], args[4]).size)
            return evaluate_points(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_points", counted)
        if chunk is not None:
            monkeypatch.setattr(optimizer, "_CHUNK", chunk)
        assert run_scan(cfg) == expected
        assert len(calls) == passes
        assert sum(calls) == 3 * 12 * 25  # 3 rounds of 12 points of 25


class TestPlot:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([])

    def test_valid_svg_document(self, tmp_path):
        cfg = load_config(_write_config(tmp_path), _no_overrides())
        rows = run_scan(cfg)
        svg = emit_plot(rows)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg  # at least one positive-rate curve
        assert emit_plot(rows) == svg


class TestMain:
    def test_end_to_end_and_determinism(self, tmp_path):
        config = _write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["scan", "--config", config, "--out", str(out_a)]) == 0
        assert main(["scan", "--config", config, "--out", str(out_b)]) == 0
        csv_a = (out_a / "scan.csv").read_bytes()
        csv_b = (out_b / "scan.csv").read_bytes()
        assert csv_a == csv_b
        assert (out_a / "scan.svg").read_bytes() == (out_b / "scan.svg").read_bytes()

    def test_mc_validate_writes_report(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "mc"
        assert main(["scan", "--config", config, "--out", str(out),
                     "--mc-validate"]) == 0
        report = (out / "mc_report.csv").read_text()
        lines = report.strip().split("\n")
        assert lines[0] == "distance_km,N,mode,component,expected,observed"
        # One line per tally component per feasible row; each count lies
        # within the five-sigma two-sided tail of its exact binomial law.
        assert len(lines) > 1
        n = BASE_CONFIG["mc_windows"]
        for line in lines[1:]:
            expected, observed = (float(v) for v in line.split(",")[-2:])
            p = expected / n
            tail = 2.0 * min(binom.cdf(observed, n, p), binom.sf(observed - 1, n, p))
            assert tail >= math.erfc(5.0 / math.sqrt(2.0)), line

    def test_bad_config_returns_error_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        out = tmp_path / "out"
        assert main(["scan", "--config", str(path), "--out", str(out)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("eps_coh", 2.0),  # used to raise SecurityBudgetError mid-scan
        ("f", -1.0),       # used to credit negative leakage and exit 0
        ("d", 0),          # used to exit 0 with a RuntimeWarning
        ("d", 2.5),        # used to be truncated to 2
    ])
    def test_invalid_security_setting_names_key(self, tmp_path, capsys, key, value):
        security = dict(BASE_CONFIG["security"], **{key: value})
        config = _write_config(tmp_path, {"security": security})
        out = tmp_path / "out"
        assert main(["scan", "--config", config, "--out", str(out)]) == 2
        assert f"error: security.{key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, where):
        # A negative seed used to end in an OverflowError from the Monte
        # Carlo simulator's unsigned Philox key.
        config = _write_config(tmp_path, {"seed": -1} if where == "config" else None)
        argv = ["scan", "--config", config, "--out", str(tmp_path / "out"),
                "--mc-validate"]
        if where == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        assert "error: seed " in capsys.readouterr().err

    def test_largest_seed_runs_mc_validation(self, tmp_path):
        # Each row's simulation seed is offset from the scan seed; the
        # offset must not push it past the 64-bit Philox key.
        config = _write_config(tmp_path, {"seed": 2**64 - 1})
        assert main(["scan", "--config", config, "--out", str(tmp_path / "out"),
                     "--mc-validate"]) == 0

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


@pytest.mark.parametrize("section, key, value", [
    # Each of these used to end in a traceback.
    ("source", "av0", 0.3),
    ("source", "fluct", 1.5),
    ("source", "av0", "x"),
    ("search", "px_range", [0.5, 1.5]),
    ("search", "grid", [0, 20]),
    ("search", "grid", "ab"),
    ("search", "mu_range", [-1, 1]),
    ("search", "refine_rounds", "x"),
    ("search", "shrink", 1.0),
    ("security", "f", "x"),
    pytest.param("security", "eps_coh", 10**400, id="security-eps_coh-10**400"),
    (None, "seed", "x"),
    (None, "mc_windows", 0),      # failed only after the whole scan
    # overflowed the multinomial after the scan
    pytest.param(None, "mc_windows", 2**63, id="None-mc_windows-2**63"),
    # 1e17 + 1 == 1e17: the axis never ended
    pytest.param("scan", "distance", [1e17, 2e17, 1], id="scan-distance-1e17-step-1"),
    # These used to be truncated to 2 and run.
    (None, "seed", 2.5),
    (None, "mc_windows", 2.5),
    # Misspelt keys used to be ignored, their values left at the default.
    ("security", "eps_col", 1e-10),
    ("search", "grids", [5, 5]),
    ("scan", "block", ["1e12"]),
    (None, "scna", {}),
    # A fractional block size used to be truncated and run.
    ("scan", "blocks", ["12345.6"]),
    # Sizes beyond the bounds: the grid overflowed the axes, and the
    # distance axis was built until memory ran out.
    pytest.param("search", "grid", [10**400, 3], id="search-grid-10**400"),
    pytest.param("search", "grid", [1025, 1024], id="search-grid-2**20+1024"),
    # Looped over 10**400 refinement rounds.
    pytest.param("search", "refine_rounds", 10**400, id="search-refine_rounds-10**400"),
    ("search", "refine_rounds", 1001),
    pytest.param("scan", "distance", [0, 1e300, 10], id="scan-distance-1e300"),
    pytest.param("scan", "distance", [0, 1e6, 1], id="scan-distance-10**6+1"),
])
def test_invalid_value_is_a_config_error(tmp_path, capsys, section, key, value):
    cfg = copy.deepcopy(BASE_CONFIG)
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    name = f"{section}.{key}" if section else key
    assert main(["scan", "--config", str(path), "--out", str(out), "--mc-validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ")
    if key not in (BASE_CONFIG[section] if section else BASE_CONFIG):
        assert err == f"error: {name} is not a known key\n"
    assert not out.exists()  # rejected before any scan work


def test_size_bounds_are_inclusive(tmp_path):
    path = _write_config(tmp_path, {
        "search": dict(BASE_CONFIG["search"], grid=[1024, 1024],
                       refine_rounds=optimizer.MAX_REFINE_ROUNDS),
        "scan": dict(BASE_CONFIG["scan"], distance=[0, 999999, 1])})
    cfg = load_config(path, _no_overrides())
    assert cfg.space.grid == (1024, 1024)
    assert cfg.space.refine_rounds == optimizer.MAX_REFINE_ROUNDS
    assert len(cfg.distances) == 10**6


def test_oversized_distance_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                 "--distance", "0:1e300:10"]) == 2
    assert capsys.readouterr().err.startswith("error: --distance ")
    assert not out.exists()


def _readme_block(lang: str) -> str:
    """The first fenced ``lang`` code block of README.md."""
    return README.read_text().split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_python_example_has_positive_rate():
    namespace = {}
    exec(_readme_block("python"), namespace)
    assert namespace["report"].R_coh > 0.0


def test_readme_config_example_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(_readme_block("json"))
    cfg = load_config(str(path), _no_overrides())
    assert cfg.distances[0] == 0.0 and cfg.distances[-1] == 300.0
    assert cfg.blocks == ("10000000000", "1000000000000", "asymptotic")


# The README config with a two-point scan and a 3x3 grid, so that a valid
# mutation runs in milliseconds.
_SMALL_README_CONFIG = json.loads(_readme_block("json"))
_SMALL_README_CONFIG["scan"]["distance"] = [0, 50, 50]
_SMALL_README_CONFIG["search"]["grid"] = [3, 3]

_DELETE = object()
_VALUES = st.sampled_from([
    _DELETE, None, True, False, "x", "", [], {}, [1, 2, 3], ["x", 1],
    -1, 0, 1, 2, 3, 100, -1.5, 0.5, 1.5, 2.5, 8.0,
    math.nan, math.inf, -math.inf])


@st.composite
def _mutations(draw):
    """(config, name of the mutated key): one key replaced or deleted.

    Keys are the README config's top-level keys, the keys of its sections
    and the unset mc_validate and mc_windows; a list value may instead have
    one element replaced.
    """
    cfg = copy.deepcopy(_SMALL_README_CONFIG)
    paths = [(None, key) for key in (*cfg, "mc_validate", "mc_windows")]
    paths += [(section, key) for section, body in cfg.items()
              if isinstance(body, dict) for key in body]
    section, key = draw(st.sampled_from(paths))
    target = cfg[section] if section else cfg
    value = draw(_VALUES)
    if value is _DELETE:
        target.pop(key, None)
    elif isinstance(target.get(key), list) and draw(st.booleans()):
        target[key][draw(st.integers(0, len(target[key]) - 1))] = value
    else:
        target[key] = value
    return cfg, f"{section}.{key}" if section else key


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=_mutations())
def test_config_mutation_runs_or_names_the_key(mutation):
    """``main`` returns 0, or 2 with an error that names the mutated key."""
    cfg, name = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scan", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 0 or (code == 2 and err.getvalue().startswith(f"error: {name}")), \
        (code, err.getvalue())
