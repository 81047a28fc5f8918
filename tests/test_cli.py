"""Tests for the scan command-line interface and the README examples."""
import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import scsqkd.channel
from scsqkd import chernoff, cli, keyrate, optimizer, phase_error, pipeline
from scsqkd.channel import (MODES, ChannelParams, ProtocolParams, WindowTally,
                            arm_transmittance, expected_tallies)
from scsqkd.cli import (CSV_HEADER, ConfigError, build_parser, emit_plot,
                        load_config, main, rows_to_csv, run_scan)
from scsqkd.keyrate import KeyRateReport
from scsqkd.mc_oracle import simulate
from scsqkd.optimizer import SearchSpace
from scsqkd.pipeline import ASYMPTOTIC, SecurityConfig, SourceCalibration, evaluate_points

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


CSV_COLUMNS = CSV_HEADER.split(",")


def _rows(table):
    """The CSV rows of a column table from ``run_scan``, as dicts."""
    return [dict(zip(CSV_COLUMNS, row)) for row in zip(*map(table.get, CSV_COLUMNS))]


def _table(rows):
    """The column table of CSV rows given as dicts."""
    return {name: [row[name] for row in rows] for name in CSV_COLUMNS}


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
        # "1e306" used to overflow the d = 8 rates into -inf.
        for block in ("huge", "12345.6", 12345.6, "1e-3", "1e306",
                      repr(math.nextafter(pipeline.MAX_BLOCK, math.inf))):
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

    def test_stop_takes_a_billionth_of_a_step_of_slack(self, tmp_path):
        # 0.1 + 0.1 + 0.1 lands past 0.3 by rounding and is kept; a distance
        # 1.5e-9 steps past the stop is not.
        for axis, expected in (([0, 0.3, 0.1], (0.0, 0.1, 0.2, 0.3)),
                               ([0, 1 - 1.5e-9, 1], (0.0,))):
            path = _write_config(tmp_path, {"scan": dict(BASE_CONFIG["scan"], distance=axis)})
            assert load_config(path, _no_overrides()).distances == expected


# One valid record per config section, and out-of-range values of each field.
_RECORDS = (ChannelParams(50.0, 0.2, 0.3, 1e-9, 0.04), SourceCalibration(),
            SecurityConfig(), SearchSpace())
_OUT_OF_RANGE = {
    "distance_km": [-1.0, math.nan], "alpha_f": [-0.1, math.nan],
    "eta_d": [-0.1, 1.5, math.nan], "p_d": [-1e-9, 1.5, math.nan],
    "e_d": [-0.1, 1.5, math.nan],
    "av0": [0.4, 1.1, math.nan], "bv0": [0.4, 1.1, math.nan],
    "fluct": [-0.1, 1.0, math.nan],
    "eps_coh_target": [0.0, 1.0, math.nan],
    "f": [0.5, math.nan, math.nextafter(pipeline.MAX_F, math.inf)],
    "d": [1, 10**50 + 1, 2.5],
    "px_range": [(0.0, 0.5), (0.5, 0.4), (0.5, 1.0), (math.nan, 0.5)],
    "mu_range": [(0.0, 1.0), (0.5, 0.4), (math.nan, 1.0),
                 (1e-4, math.nextafter(optimizer.MAX_MU, math.inf))],
    "grid": [(0, 5), (5, 0), (1025, 1024)],
    "refine_rounds": [-1, 1001],
    "shrink": [1.0, math.nan],
    "p0": [0.4, math.nan], "px": [0.0, 1.0],
    "mu_xA": [-1e-3, math.nan, math.nextafter(1.0, 2.0)],
    "mu_xB": [-1e-3, math.nan, math.nextafter(1.0, 2.0)], "N": [0.5, math.nan],
    "mode": ["other", math.nan],
    "n_O": [-1.0, math.nan], "n_B": [-1.0, math.nan], "n_Z": [-1.0, math.nan],
}


@pytest.mark.parametrize("record, field, value", [
    pytest.param(record, field.name, value, id=f"{type(record).__name__}-{field.name}-{value!r}")
    for record in _RECORDS + (ProtocolParams(0.5, 0.5, 0.1, 0.1, 1e10),
                              WindowTally(1.0, 2.0, 3.0))
    for field in dataclasses.fields(record) for value in _OUT_OF_RANGE[field.name]])
def test_every_record_check_names_its_field_first(record, field, value):
    # load_config builds each section's record once and names the bad key
    # by the field that opens the failed check's message.  p0 moves with px,
    # so that p0 + px = 1 still holds and the px check is the one that fails
    # (a NaN px fails that closure first, named by p0).
    changes = {field: value, "p0": 1.0 - value} if field == "px" else {field: value}
    with pytest.raises(ValueError) as info:
        replace(record, **changes)
    assert re.match(rf"{field} must .+, got {re.escape(repr(value))}$", str(info.value))


def test_load_config_builds_each_record_once(tmp_path, monkeypatch):
    built = []
    for record in _RECORDS:
        def counted(self, check=type(record).__post_init__):
            built.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(type(record), "__post_init__", counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("dataclasses.replace called")

    monkeypatch.setattr(dataclasses, "replace", forbidden)
    load_config(_write_config(tmp_path), _no_overrides())
    assert sorted(built) == sorted(type(record).__name__ for record in _RECORDS)


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
        assert rows_to_csv(_table([])) == CSV_HEADER + "\n"


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
        batch = evaluate_points(channel, cfg.calib, px, mu, mu,
                                arm_transmittance(channel), cfg.security, (block,),
                                baseline=mode == "baseline")
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
    rows = _rows(run_scan(cfg))
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
        # A pass holds the points of both modes.  Within a pass of S points
        # on an n_px x n_mu grid, the source mapping and the heralding
        # probabilities run once on S x n_mu intensities, and a finite pass
        # makes one n_O and n_B Chernoff solve on S x n_px + S x n_px x n_mu
        # counts.  A finite pass runs two root solves (that one and the
        # phase-error count's), an asymptotic pass none.  An asymptotic pass
        # takes the mean phase-error count and H(e_ph) on S x n_mu elements;
        # only the leakage's H(E_Z) spans the whole grid.
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
            points = np.broadcast(args[2], args[3]).size // (n_px * n_mu)
            passes.append({"points": points, "asymptotic": args[7] == (ASYMPTOTIC,),
                           "virtual_intensity_array": [], "heralding_arrays": [],
                           "expectation_upper": [], "_solve": [], "_mean_count": [],
                           "asymptotic_phase_error": [], "binary_entropy": []})
            return evaluate_points(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_points", evaluated)
        spy(pipeline, "virtual_intensity_array", lambda args, _: np.size(args[0]))
        spy(pipeline, "heralding_arrays", lambda _, probs: np.size(probs[1]))
        spy(phase_error, "expectation_upper", lambda args, _: np.size(args[0]))
        spy(chernoff, "_solve", lambda args, _: np.size(args[3]))
        spy(phase_error, "_mean_count", lambda _, mean: np.size(mean))
        spy(pipeline, "asymptotic_phase_error", lambda _, e_ph: np.size(e_ph))
        spy(keyrate, "binary_entropy", lambda args, _: np.size(args[0]))
        run_scan(cfg)
        assert len(passes) == 2 * 2  # rounds x (finite, asymptotic)
        for p in passes:
            s, asymptotic = p["points"], p["asymptotic"]
            grid = s * n_px * n_mu
            assert p["virtual_intensity_array"] == [s * n_mu]
            assert p["heralding_arrays"] == [s * n_mu]
            assert p["expectation_upper"] == ([] if asymptotic else [s * n_px + grid])
            assert p["_solve"] == ([] if asymptotic else [s * n_px + grid, grid])
            assert p["_mean_count"] == ([] if asymptotic else [grid])
            assert p["asymptotic_phase_error"] == ([s * n_mu] if asymptotic else [])
            assert p["binary_entropy"] == [grid, s * n_mu if asymptotic else grid]
        # Both modes share each pass: 3 distances x 2 modes x 2 finite
        # blocks, and 3 distances x 2 modes at the asymptotic block.
        assert {p["points"] for p in passes} == {6, 12}

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
        table = run_scan(cfg)
        passes = len(calls)
        assert 2 * 20 < passes < 2 * 40  # a finite and an asymptotic pass per sweep
        for row in _rows(table):
            assert row == _reference_row(cfg, row["distance_km"], row["N"], row["mode"])
        calls.clear()
        longest = replace(cfg, space=replace(cfg.space,
                                             refine_rounds=optimizer.MAX_REFINE_ROUNDS))
        assert run_scan(longest) == table
        assert len(calls) == passes

    @pytest.mark.parametrize("chunk, passes", [
        (None, 3),           # one pass per round, for both modes
        (60, 3 * 6),         # two 25-candidate points per pass
        (20, 3 * 12)])       # each point larger than the limit, a pass of its own
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
            calls.append(np.broadcast(args[2], args[3]).size)
            return evaluate_points(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_points", counted)
        if chunk is not None:
            monkeypatch.setattr(optimizer, "_CHUNK", chunk)
        assert run_scan(cfg) == expected
        assert len(calls) == passes
        assert sum(calls) == 3 * 12 * 25  # 3 rounds of 12 points of 25


@pytest.mark.parametrize("mu_range, feasible", [([1e-3, 0.1], 1), ([0.9, 1.0], 0)])
def test_scan_builds_no_per_point_result_objects(tmp_path, monkeypatch, mu_range,
                                                 feasible):
    # The rows come from one report over all the scan's points, and match
    # byte for byte what optimize gives for each point alone, in row order;
    # a point with no feasible candidate gives a row of zeros.
    path = _write_config(tmp_path, {
        "search": {"px_range": [0.05, 0.5], "mu_range": mu_range,
                   "grid": [3, 3], "refine_rounds": 1, "shrink": 4.0},
        "scan": {"distance": [0, 100, 50], "blocks": ["asymptotic", "1e12", "1e10"],
                 "modes": ["baseline", "improved"]}})
    cfg = load_config(path, _no_overrides())
    reports = []

    def built(*args, **kwargs):
        raise AssertionError("a per-point result object was built")

    def report(*args, **kwargs):
        reports.append(KeyRateReport(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(optimizer, "ProtocolParams", built)
    monkeypatch.setattr(optimizer, "KeyRateReport", report)
    table = run_scan(cfg)
    monkeypatch.undo()
    rows = _rows(table)
    assert len(reports) == 1
    labels = {"asymptotic": ASYMPTOTIC, "1000000000000": 1e12, "10000000000": 1e10}
    expected = []
    for row in rows:
        reference = dict.fromkeys(row, 0.0)
        reference.update(distance_km=row["distance_km"], N=row["N"], mode=row["mode"],
                         feasible_flag=0)
        try:
            protocol, result = optimizer.optimize(
                replace(cfg.channel, distance_km=row["distance_km"]), cfg.calib,
                labels[row["N"]], cfg.security, cfg.space, row["mode"])
        except optimizer.NoFeasiblePointError:
            pass
        else:
            reference.update({name: getattr(result, name) for name in row
                              if hasattr(result, name)},
                             px=protocol.px, mu_x=protocol.mu_xA, feasible_flag=1)
        expected.append(reference)
    assert [(r["distance_km"], r["N"], r["mode"]) for r in rows] == [
        (d, n, m) for d in (0.0, 50.0, 100.0)
        for n in ("10000000000", "1000000000000", "asymptotic")
        for m in ("improved", "baseline")]
    assert rows_to_csv(table) == rows_to_csv(_table(expected))
    assert {row["feasible_flag"] for row in rows} == {feasible}


def test_improved_only_scan_makes_no_bessel_work(tmp_path, monkeypatch):
    # An improved-only scan, as the finite-scan workload is, needs no
    # baseline phase average: neither its search passes nor the Monte Carlo
    # report's channel pass may compute one only to drop it.  A scan of
    # both modes computes it.
    path = _write_config(tmp_path, {
        "scan": {"distance": [0, 100, 50], "blocks": ["1e12", "asymptotic"],
                 "modes": ["improved"]}})
    cfg = load_config(path, _no_overrides())
    calls = []
    real = scsqkd.channel._scaled_i0_minus_1

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scsqkd.channel, "_scaled_i0_minus_1", counted)
    table = run_scan(cfg)
    assert any(table["feasible_flag"])
    cli._mc_report(cfg, table)
    assert calls == []
    run_scan(replace(cfg, modes=("improved", "baseline")))
    assert calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(distances=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=40, unique=True),
       alpha_f=st.floats(0.1, 0.4), eta_d=st.floats(0.05, 1.0))
def test_transmittance_column_is_arm_transmittance(distances, alpha_f, eta_d):
    # Each row's transmittance is arm_transmittance on its own distance,
    # bit for bit; numpy's vectorized power is an ulp off at some distances.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(_write_config(Path(tmp), {
            "channel": dict(BASE_CONFIG["channel"], alpha_f=alpha_f, eta_d=eta_d),
            "search": {"grid": [1, 1], "refine_rounds": 0},
            "scan": {"distance": [0, 0, 1], "blocks": ["asymptotic"]}}), _no_overrides())
    table = run_scan(replace(cfg, distances=tuple(distances)))
    assert table["distance_km"] == distances
    assert [eta.hex() for eta in table["eta"]] == [
        arm_transmittance(ChannelParams(d, alpha_f, eta_d, 1e-9, 0.04)).hex()
        for d in distances]


def test_scan_path_builds_no_record_after_load_config(tmp_path, monkeypatch):
    # After load_config, the search, the CSV, the plot and the Monte Carlo
    # report build no record and call no dataclasses.replace: the points and
    # rows pass as columns, and the table is one list per column.
    path = _write_config(tmp_path, {
        "scan": {"distance": [0, 100, 50], "blocks": ["1e12", "asymptotic"],
                 "modes": ["improved", "baseline"]},
        "mc_validate": True})
    cfg = load_config(path, _no_overrides())

    def forbidden(*args, **kwargs):
        raise AssertionError("a record was built after load_config")

    for record in (ChannelParams, ProtocolParams, scsqkd.channel.WindowTally,
                   SourceCalibration, SecurityConfig, SearchSpace):
        monkeypatch.setattr(record, "__post_init__", forbidden)
    monkeypatch.setattr(dataclasses, "replace", forbidden)
    with pytest.raises(AssertionError, match="a record was built"):
        replace(cfg.channel, distance_km=1.0)
    table = run_scan(cfg)
    outputs = rows_to_csv(table), emit_plot(table), cli._mc_report(cfg, table)
    monkeypatch.undo()
    assert list(table) == [*CSV_COLUMNS, "eta", "baseline"]
    assert all(type(column) is list and len(column) == 12 for column in table.values())
    assert table["baseline"] == [mode == "baseline" for mode in table["mode"]]
    assert sum(table["feasible_flag"]) > 1
    assert len(outputs[2].split("\n")) == 2 + 3 * sum(table["feasible_flag"])
    assert outputs == (rows_to_csv(run_scan(cfg)), emit_plot(run_scan(cfg)),
                       cli._mc_report(cfg, run_scan(cfg)))


class TestPlot:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_plot(_table([]))

    @staticmethod
    def _axes(rows):
        """The y decade and x tick labels of the plot of (distance, R_coh,
        feasible_flag) rows."""
        svg = emit_plot(_table([dict(dict.fromkeys(CSV_COLUMNS, 0.0), distance_km=d,
                                     N="asymptotic", mode="improved", R_coh=r,
                                     feasible_flag=f) for d, r, f in rows]))
        return (re.findall(r'>1e(-?\d+)</text>', svg),
                re.findall(r'font-size="11" text-anchor="middle">([^<]*)</text>', svg),
                svg.count("<polyline"))

    def test_axes_without_a_positive_rate(self):
        # No curve: the rate axis spans 1e-12 to 1e0.
        decades, ticks, curves = self._axes([(0.0, 0.0, 1), (50.0, 1e-3, 0)])
        assert decades == [str(k) for k in range(-12, 1)]
        assert ticks == ["0", "10", "20", "30", "40", "50"]
        assert curves == 0

    def test_axes_of_one_distance_and_one_decade(self):
        # One distance spans 1 km; rates within one power of ten span a decade.
        decades, ticks, curves = self._axes([(10.0, 1e-3, 1)])
        assert decades == ["-3", "-2"]
        assert ticks == ["10", "10.2", "10.4", "10.6", "10.8", "11"]
        assert curves == 1

    def test_valid_svg_document(self, tmp_path):
        cfg = load_config(_write_config(tmp_path), _no_overrides())
        rows = run_scan(cfg)
        svg = emit_plot(rows)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg  # at least one positive-rate curve
        assert emit_plot(rows) == svg


class TestMcReport:
    # Three distances in both modes: all rows share one channel pass, and
    # the modes differ in n_B, so a pass that gives a row the other mode's
    # B-window probability or reorders the rows writes another expected
    # column.
    CONFIG = {"scan": {"distance": [0, 100, 50], "blocks": ["asymptotic"],
                       "modes": ["improved", "baseline"]}}

    def _scan(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, self.CONFIG), _no_overrides())
        return cfg, run_scan(cfg)

    def test_expected_column_is_expected_tallies_bit_for_bit(self, tmp_path):
        cfg, table = self._scan(tmp_path)
        feasible = [row for row in _rows(table) if row["feasible_flag"]]
        assert {row["mode"] for row in feasible} == {"improved", "baseline"}
        assert len({row["distance_km"] for row in feasible}) == 3
        lines = cli._mc_report(cfg, table).strip().split("\n")[1:]
        assert len(lines) == 3 * len(feasible)
        for i, row in enumerate(feasible):
            protocol = ProtocolParams(p0=1.0 - row["px"], px=row["px"],
                                      mu_xA=row["mu_x"], mu_xB=row["mu_x"],
                                      N=cfg.mc_windows, mode=row["mode"])
            tally = expected_tallies(
                protocol, replace(cfg.channel, distance_km=row["distance_km"]))
            for component, line in zip(("n_O", "n_B", "n_Z"), lines[3 * i:3 * i + 3]):
                assert line.split(",")[:5] == [
                    repr(row["distance_km"]), row["N"], row["mode"], component,
                    repr(getattr(tally, component))]

    def test_one_heralding_pass_for_all_rows(self, tmp_path, monkeypatch):
        # An expected_tallies call per feasible row would make one heralding
        # pass per row, and a pass per mode two: this scan makes one, whose
        # baseline mask marks each row's mode, and the simulator draws with
        # that same mask.
        cfg, table = self._scan(tmp_path)
        calls, drawn = [], []
        real, real_simulate = scsqkd.channel.heralding_arrays, cli.simulate_arrays

        def counted(*args, **kwargs):
            calls.append(args[5:])
            return real(*args, **kwargs)

        def simulated(*args):
            drawn.append(args[6])
            return real_simulate(*args)

        monkeypatch.setattr(scsqkd.channel, "heralding_arrays", counted)
        monkeypatch.setattr(cli, "heralding_arrays", counted)
        monkeypatch.setattr(cli, "simulate_arrays", simulated)
        cli._mc_report(cfg, table)
        feasible = [row["mode"] for row in _rows(table) if row["feasible_flag"]]
        assert set(feasible) == set(MODES)
        ((baseline,),) = calls
        assert baseline.tolist() == [mode == "baseline" for mode in feasible]
        assert len(drawn) == 1 and drawn[0] is baseline

    def test_observed_column_is_simulate_of_each_row(self, tmp_path):
        # The report draws from the scan's arrays; each row's counts are
        # those of the record API, seeded by the row's index among all rows.
        cfg, rows = self._scan(tmp_path)
        assert all(rows["feasible_flag"])
        # Every row of this scan is feasible; with every other one marked
        # infeasible, a seed offset by the index among feasible rows differs.
        # A seed near 2**64 wraps from the third row on.
        every_other = dict(rows, feasible_flag=[i % 2 for i in range(len(rows["px"]))])
        for scan_cfg, table in ((cfg, rows), (cfg, every_other),
                                (replace(cfg, seed=2**64 - 2), rows)):
            lines = iter(cli._mc_report(scan_cfg, table).strip().split("\n")[1:])
            for i, row in enumerate(_rows(table)):
                if not row["feasible_flag"]:
                    continue
                tally = simulate(
                    ProtocolParams(p0=1.0 - row["px"], px=row["px"], mu_xA=row["mu_x"],
                                   mu_xB=row["mu_x"], N=cfg.mc_windows, mode=row["mode"]),
                    replace(cfg.channel, distance_km=row["distance_km"]),
                    (scan_cfg.seed + i) % 2**64)
                for component in ("n_O", "n_B", "n_Z"):
                    assert next(lines).split(",")[-1] == repr(float(getattr(tally, component)))
            assert next(lines, None) is None

    def test_no_feasible_row_gives_header_only(self, tmp_path):
        # At mu >= 0.7 and fluct 0.1 the worst-case vacuum weight is below
        # 1/2 everywhere, so no row is feasible and the channel pass gets
        # empty arrays.
        search = dict(BASE_CONFIG["search"], mu_range=[0.7, 1.0])
        config = _write_config(tmp_path, dict(self.CONFIG, search=search))
        out = tmp_path / "out"
        assert main(["scan", "--config", config, "--out", str(out),
                     "--mc-validate"]) == 0
        assert (out / "mc_report.csv").read_text() == (
            "distance_km,N,mode,component,expected,observed\n")


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

    @pytest.mark.parametrize("text", ["[1, 2]", "42"])
    def test_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config must be a JSON object, got {json.loads(text)!r}")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("eps_coh", 2.0),  # used to fail in security_budget mid-scan
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

    @pytest.mark.parametrize("d", [8, pipeline.MAX_D])
    def test_largest_mu_range_and_f_run_clean(self, tmp_path, d):
        # The suite turns RuntimeWarnings into errors, so at the largest
        # accepted mu and f no term may overflow; no NaN may be written.
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["search"]["mu_range"] = [1e-4, optimizer.MAX_MU]
        cfg["security"].update(f=pipeline.MAX_F, d=d)
        cfg["scan"].update(distance=[0, 300, 300], blocks=["1", "1e200", "asymptotic"],
                           modes=list(MODES))
        out = tmp_path / "out"
        assert main(["scan", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert "nan" not in (out / "scan.csv").read_text()

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

    @pytest.mark.parametrize("where", ["file", "below-file"])
    def test_unusable_out_is_an_error(self, tmp_path, capsys, monkeypatch, where):
        # An --out that is a file, or lies below one, used to end in a
        # FileExistsError or NotADirectoryError traceback from os.makedirs.
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker if where == "file" else blocker / "sub"
        monkeypatch.setattr(cli, "run_scan", lambda cfg: pytest.fail("scan ran"))
        assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("name", ["scan.csv", "scan.svg", "mc_report.csv"])
    @pytest.mark.parametrize("blocker", ["directory", "full-device"])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, name, blocker):
        # An output path held by a directory used to end in an
        # IsADirectoryError traceback after the scan; a write that fails
        # (here /dev/full: no space left) must name the file too.
        out = tmp_path / "out"
        out.mkdir()
        if blocker == "directory":
            (out / name).mkdir()
        elif Path("/dev/full").exists():
            (out / name).symlink_to("/dev/full")
        else:
            pytest.skip("no /dev/full")
        assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                     "--mc-validate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(out / name)) in err, err
        assert (out / name).is_dir() if blocker == "directory" else (out / name).is_symlink()

    def test_output_may_be_a_device(self, tmp_path):
        # A file that is not a regular one, such as /dev/null, is written to
        # and not cut, as with open(path, "w").
        out = tmp_path / "out"
        out.mkdir()
        (out / "scan.svg").symlink_to(os.devnull)
        assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
        assert (out / "scan.csv").read_bytes().startswith(CSV_HEADER.encode())

    def test_failed_rewrite_keeps_no_old_tail(self, tmp_path):
        # A write that fails partway (here at a file size limit, as at a full
        # disk) leaves a prefix of the new output, never new bytes followed by
        # the tail of a longer old file.
        config = _write_config(tmp_path)
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert main(["scan", "--config", config, "--out", str(fresh)]) == 0
        new = (fresh / "scan.csv").read_bytes()
        rerun.mkdir()
        (rerun / "scan.csv").write_bytes(b"#" * (4 * len(new)))
        limit = len(new) // 2

        def cap_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from scsqkd.cli import main; sys.exit(main(sys.argv[2:]))")
        out = subprocess.run([sys.executable, "-c", code, str(Path(cli.__file__).parent.parent),
                              "scan", "--config", config, "--out", str(rerun)],
                             capture_output=True, text=True, timeout=60,
                             preexec_fn=cap_file_size)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and repr(str(rerun / "scan.csv")) in out.stderr
        assert (rerun / "scan.csv").read_bytes() == new[:limit]

    @pytest.mark.parametrize("junk", [b"x" * 100_000 + b"\n", b"x"], ids=["longer", "shorter"])
    def test_rerun_overwrites_each_output_in_place(self, tmp_path, junk):
        # A rerun into an --out that holds outputs writes what a scan into a
        # fresh directory writes, into the same files: same inode, same
        # permissions.
        config = _write_config(tmp_path)
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        rerun.mkdir()
        names = ("scan.csv", "scan.svg", "mc_report.csv")
        for mode, name in zip((0o600, 0o640, 0o604), names):
            (rerun / name).write_bytes(junk)
            (rerun / name).chmod(mode)
        before = {name: (rerun / name).stat() for name in names}
        for out in (fresh, rerun):
            assert main(["scan", "--config", config, "--out", str(out),
                         "--mc-validate"]) == 0
        for name in names:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
            after = (rerun / name).stat()
            assert (after.st_ino, after.st_mode) == (before[name].st_ino,
                                                    before[name].st_mode), name

    def test_new_outputs_take_the_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            assert main(["scan", "--config", _write_config(tmp_path), "--out",
                         str(tmp_path / "out"), "--mc-validate"]) == 0
        finally:
            os.umask(old)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for path in (tmp_path / "out").iterdir()}
        assert modes == dict.fromkeys(("scan.csv", "scan.svg", "mc_report.csv"), 0o664)

    def test_repeated_calls_carry_no_state(self, tmp_path):
        # main reuses one parser per process.  After a call with every
        # override, a call without flags writes what a first call without
        # flags, in a fresh interpreter, writes.
        config = _write_config(tmp_path)
        fresh, flags, again = (tmp_path / name for name in ("fresh", "flags", "again"))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from scsqkd.cli import main; "
                "sys.exit(main(['scan', '--config', sys.argv[2], '--out', sys.argv[3]]))")
        subprocess.run([sys.executable, "-c", code, str(Path(cli.__file__).parent.parent),
                        config, str(fresh)], check=True, timeout=60)
        assert main(["scan", "--config", config, "--out", str(flags),
                     "--distance", "0:20:10", "--blocks", "asymptotic",
                     "--mode", "baseline", "--mc-validate", "--seed", "7"]) == 0
        assert main(["scan", "--config", config, "--out", str(again)]) == 0

        def files(directory):
            return {path.name: path.read_bytes() for path in directory.iterdir()}

        assert files(flags) != files(fresh)
        assert files(again) == files(fresh)


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
    # An empty list used to write a header-only scan.csv and exit 0, and a
    # repeated entry, also one spelt another way, scanned its points twice.
    pytest.param("scan", "blocks", [], id="scan-blocks-empty"),
    pytest.param("scan", "modes", [], id="scan-modes-empty"),
    pytest.param("scan", "blocks", ["1e12", "1000000000000"], id="scan-blocks-1e12-twice"),
    pytest.param("scan", "modes", ["improved", "improved"], id="scan-modes-improved-twice"),
    # A stop below the start used to give an empty axis and a header-only
    # scan.csv.
    pytest.param("scan", "distance", [50, 0, 10], id="scan-distance-stop-below-start"),
    # Rounded to 1e-9 km, the axis held (0.0,)*5 + (1e-09,)*6, and each of
    # those points was scanned and written 5-6 times.
    pytest.param("scan", "distance", [0, 1e-9, 1e-10], id="scan-distance-repeats"),
    # Overflowed converting d * d - 1 to float in the first finite pass.
    pytest.param("security", "d", 10**160, id="security-d-10**160"),
    # Overflowed n_Z (1 + bits) into -inf rates at d = 8, and exited 0.
    pytest.param("scan", "blocks", ["1e306"], id="scan-blocks-1e306"),
    # Overflowed mu_A mu_B in the channel model, and exited 0.
    pytest.param("search", "mu_range", [1e-4, 1e155], id="search-mu_range-1e155"),
    # Just above the intensity cap, channel.MAX_MU.
    pytest.param("search", "mu_range", [1e-4, math.nextafter(1.0, 2.0)],
                 id="search-mu_range-above-1"),
    # Overflowed the leakage f n H(E_Z) at a 1e200 block, and exited 0.
    pytest.param("security", "f", 1e150, id="security-f-1e150"),
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


def test_repeated_blocks_flag_entry_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                 "--blocks", "1e12,asymptotic,1000000000000"]) == 2
    assert capsys.readouterr().err == "error: --blocks lists '1000000000000' twice\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--blocks", "--blocks must not be empty"),
    ("--distance", "--distance must look like start:stop:step")])
def test_empty_override_flag_is_a_config_error(tmp_path, capsys, flag, message):
    # An empty flag used to be taken as no flag, so the config's axis was
    # scanned and the call exited 0.
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                 flag, ""]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_distance_flag_stop_below_start_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                 "--distance", "50:0:10"]) == 2
    assert capsys.readouterr().err == (
        "error: --distance needs 0 <= start <= stop and step > 0, got [50.0, 0.0, 10.0]\n")
    assert not out.exists()
    overrides = _no_overrides()
    overrides.distance = "50:50:10"
    assert load_config(_write_config(tmp_path), overrides).distances == (50.0,)


def test_size_bounds_are_inclusive(tmp_path):
    path = _write_config(tmp_path, {
        "search": dict(BASE_CONFIG["search"], grid=[1024, 1024],
                       refine_rounds=optimizer.MAX_REFINE_ROUNDS),
        "scan": dict(BASE_CONFIG["scan"], distance=[0, 999999, 1])})
    cfg = load_config(path, _no_overrides())
    assert cfg.space.grid == (1024, 1024)
    assert cfg.space.refine_rounds == optimizer.MAX_REFINE_ROUNDS
    assert len(cfg.distances) == 10**6
    # The bound counts the distances of the span, not the start's size.
    path = _write_config(tmp_path, {
        "scan": dict(BASE_CONFIG["scan"], distance=[10**6, 10**6 + 2, 1])})
    assert load_config(path, _no_overrides()).distances == (1e6, 1e6 + 1, 1e6 + 2)


def test_oversized_distance_flag_is_a_config_error(tmp_path, capsys):
    # Also an axis whose rounding repeats a distance.
    out = tmp_path / "out"
    for axis in ("0:1e300:10", "0:1e-9:1e-10"):
        assert main(["scan", "--config", _write_config(tmp_path), "--out", str(out),
                     "--distance", axis]) == 2
        assert capsys.readouterr().err.startswith("error: --distance ")
        assert not out.exists()


def _run_cli(config, out, **env) -> subprocess.CompletedProcess:
    """``scsqkd scan`` in a fresh interpreter, with ``env`` added to its
    environment; its output is read as UTF-8."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from scsqkd.cli import main; sys.exit(main(sys.argv[2:]))")
    return subprocess.run([sys.executable, "-c", code, str(Path(cli.__file__).parent.parent),
                           "scan", "--config", str(config), "--out", str(out)],
                          capture_output=True, encoding="utf-8", timeout=120,
                          env={**os.environ, **env})


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    # It used to end in a UnicodeDecodeError traceback with exit status 1.
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(BASE_CONFIG).encode().replace(b'"improved"',
                                                                b'"improved\xff"'))
    run = _run_cli(config, tmp_path / "out")
    assert run.returncode == 2
    assert run.stderr.startswith("error: config is not valid JSON: ")
    assert "\n" not in run.stderr[:-1]  # one line, no traceback
    assert not (tmp_path / "out").exists()


def test_config_is_read_as_utf8_in_any_locale(tmp_path):
    # Under an ASCII locale the config was decoded as ASCII: a non-ASCII key
    # ended in a UnicodeDecodeError traceback instead of naming the key.
    config = tmp_path / "config.json"
    raw = copy.deepcopy(BASE_CONFIG)
    raw["channel"]["\u00e9"] = 1.0
    config.write_bytes(json.dumps(raw, ensure_ascii=False).encode())
    run = _run_cli(config, tmp_path / "out", LC_ALL="C", PYTHONUTF8="0",
                   PYTHONIOENCODING="utf-8")
    assert (run.returncode, run.stderr) == (2, "error: channel.\u00e9 is not a known key\n")


def _px_range_scan(tmp_path, px_lo) -> subprocess.CompletedProcess:
    """The README config at 0 km, N = 1e10 and 1e12, improved mode, with
    ``search.px_range`` [px_lo, 0.5], in a fresh interpreter."""
    raw = json.loads(_readme_block("json"))
    raw["search"]["px_range"] = [px_lo, 0.5]
    raw["scan"] = {"distance": [0, 0, 1], "blocks": ["1e10", "1e12"],
                   "modes": ["improved"]}
    config = tmp_path / f"config_{px_lo!r}.json"
    config.write_text(json.dumps(raw))
    return _run_cli(config, tmp_path / f"out_{px_lo!r}")


@pytest.fixture(scope="module")
def px_reference(tmp_path_factory) -> str:
    """scan.csv of the px_range [1e-150, 0.5] scan."""
    tmp_path = tmp_path_factory.mktemp("px_reference")
    assert _px_range_scan(tmp_path, 1e-150).returncode == 0
    return (tmp_path / "out_1e-150" / "scan.csv").read_text()


@pytest.mark.parametrize("px_lo", [5e-324, 1e-310, 1e-160])
def test_subnormal_px_never_becomes_the_optimum(tmp_path, px_lo, px_reference):
    # As px -> 0 the mean phase-error count's bracket overflows: at 1e-160
    # each Chernoff bound gave NaN and argmax ranked the NaN rate first, so
    # the rows were written with px = 1e-160 and nan rates with exit status
    # 0; at 5e-324, p0 px / 2 rounded to 0 and 0 inf gave NaN; and each run
    # printed overflow warnings.  The bound's limit is +inf (e_ph = 1/2), so
    # no candidate that small wins and the scan is the one from 1e-150.
    run = _px_range_scan(tmp_path, px_lo)
    assert (run.returncode, run.stderr) == (0, "")
    text = (tmp_path / f"out_{px_lo!r}" / "scan.csv").read_text()
    assert "nan" not in text
    assert text == px_reference
    rows = [dict(zip(CSV_HEADER.split(","), row.split(",")))
            for row in text.splitlines()[1:]]
    assert [f"{float(row['R_coh']):.4e}" for row in rows] == ["9.4875e-06", "1.7296e-04"]


@pytest.mark.parametrize("spelling", ["config", "flag"])
def test_negative_zero_start_writes_zero(tmp_path, spelling):
    # -0.0 passed the 0 <= start check and was written as the distance -0.0.
    def scan(name, distance, *flags):
        out = tmp_path / name
        config = _write_config(tmp_path, {
            "scan": dict(BASE_CONFIG["scan"], distance=distance), "mc_validate": True})
        assert main(["scan", "--config", config, "--out", str(out), *flags]) == 0
        return [(out / f).read_bytes() for f in ("scan.csv", "mc_report.csv")]

    expected = scan("zero", [0, 10, 10])
    if spelling == "config":
        got = scan("negative", [-0.0, 10, 10])
    else:
        got = scan("negative", [5, 10, 10], "--distance=-0:10:10")
    assert got == expected
    assert b"-0.0" not in b"".join(got)


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
