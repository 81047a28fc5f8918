"""Tests for the scan command-line interface and the README examples."""
import argparse
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd.cli import (CSV_HEADER, ConfigError, build_parser, emit_plot,
                        load_config, main, rows_to_csv, run_scan)

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
        path = _write_config(tmp_path, {"scan": {
            "distance": [0, 50, 50], "blocks": ["huge"], "modes": ["improved"]}})
        with pytest.raises(ConfigError, match="block"):
            load_config(path, _no_overrides())

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
        assert lines[0] == "distance_km,N,mode,component,expected,observed,sigma,z"
        # One line per tally component per feasible row; all z-scores sane.
        assert len(lines) > 1
        for line in lines[1:]:
            z = float(line.split(",")[-1])
            assert abs(z) <= 5.0

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
])
def test_invalid_value_is_a_config_error(tmp_path, capsys, section, key, value):
    cfg = copy.deepcopy(BASE_CONFIG)
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    name = f"{section}.{key}" if section else key
    assert main(["scan", "--config", str(path), "--out", str(out), "--mc-validate"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} ")
    assert not out.exists()  # rejected before any scan work


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
