"""Distance/block-size scans with CSV and SVG emission.

Configuration is a single JSON document; command-line flags override the
corresponding config keys.  Rows are sorted before emission.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .channel import MODES, ChannelParams, ProtocolParams, expected_tallies
from .mc_oracle import SimConfigError, require_seed, require_windows, simulate
from .optimizer import SearchSpace, optimize_points
from .pipeline import ASYMPTOTIC, SecurityConfig, SourceCalibration, require_block

# The scan.csv columns a row's KeyRateReport gives, read by name.
_REPORT_COLUMNS = ("mu_virtual_A", "mu_virtual_B", "n_O", "n_B", "n_Z", "E_Z",
                   "e_ph", "R_col", "R_coh")

CSV_HEADER = ",".join(("distance_km", "N", "mode", "px", "mu_x", *_REPORT_COLUMNS,
                       "feasible_flag"))


# Most distances a scan axis may hold.
MAX_DISTANCES = 10 ** 6


class ConfigError(ValueError):
    """Raised with the offending key named when the config is invalid."""


@dataclass(frozen=True)
class ScanConfig:
    channel: ChannelParams          # distance_km=0 placeholder, replaced per point
    calib: SourceCalibration
    security: SecurityConfig
    space: SearchSpace
    distances: tuple[float, ...]
    blocks: tuple[str, ...]         # numeric strings or "asymptotic"
    modes: tuple[str, ...]
    seed: int
    mc_validate: bool
    mc_windows: int


def _number(name: str, value) -> float:
    """A finite JSON number as a float; ``name`` is the key it came from."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """A JSON integer; 2.5, 8.0 and true are rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _pair(convert):
    """Converter of a two-element list whose elements ``convert`` checks."""
    def pair(name: str, value) -> tuple:
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{name} must be a list of two values, got {value!r}")
        return tuple(convert(name, v) for v in value)
    return pair


# Per config section: key -> (dataclass field, converter).
_CHANNEL_KEYS = {key: (key, _number) for key in ("alpha_f", "eta_d", "p_d", "e_d")}
_SOURCE_KEYS = {key: (key, _number) for key in ("av0", "bv0", "fluct")}
_SECURITY_KEYS = {"eps_coh": ("eps_coh_target", _number), "f": ("f", _number),
                  "d": ("d", _integer)}
_SEARCH_KEYS = {"px_range": ("px_range", _pair(_number)),
                "mu_range": ("mu_range", _pair(_number)),
                "grid": ("grid", _pair(_integer)),
                "refine_rounds": ("refine_rounds", _integer),
                "shrink": ("shrink", _number)}
_SCAN_KEYS = ("distance", "blocks", "modes")
_TOP_KEYS = ("channel", "source", "security", "search", "scan", "seed",
             "mc_validate", "mc_windows")


def _reject_unknown(obj: dict, known, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of ``obj`` not in ``known``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{prefix}{key} is not a known key")


def _object(raw: dict, name: str, known) -> dict:
    """Config section ``name``, an object holding only ``known`` keys."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    _reject_unknown(section, known, f"{name}.")
    return section


def _section(raw: dict, name: str, template, keys: dict, required: bool = False):
    """``template`` with the keys of config section ``name`` applied in turn.

    Every check these dataclasses make involves one field, so a check that
    fails names the key just applied.
    """
    section = _object(raw, name, keys)
    result = template
    for key, (field, convert) in keys.items():
        if key not in section:
            if required:
                raise ConfigError(f"{name}.{key} is missing")
            continue
        value = convert(f"{name}.{key}", section[key])
        try:
            result = replace(result, **{field: value})
        except ValueError as exc:
            raise ConfigError(f"{name}.{key} is invalid: {exc}")
    return result


def _block_label(name: str, raw) -> str:
    """"asymptotic", or a finite whole block size of at least 1 as an integer
    string.

    A number may also be written as a string, such as "1e12"; a fractional
    one, such as "12345.6", is rejected, not truncated.
    """
    if raw == ASYMPTOTIC:
        return ASYMPTOTIC
    try:
        value = raw if isinstance(raw, bool) else float(raw)
        require_block(value)
        if not value.is_integer():
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} holds an invalid block size {raw!r}: "
                          f"need {ASYMPTOTIC!r} or a whole number >= 1")
    return str(int(value))


def _distances(name: str, axis) -> tuple[float, ...]:
    """The distances start, start + step, ... up to stop, at most MAX_DISTANCES
    of them, counted before any is built."""
    if not (isinstance(axis, list) and len(axis) == 3):
        raise ConfigError(f"{name} must be [start, stop, step], got {axis!r}")
    start, stop, step = (_number(name, v) for v in axis)
    if start < 0.0 or step <= 0.0:
        raise ConfigError(f"{name} needs start >= 0 and step > 0, got {axis!r}")
    # A step too small to advance the start is named by the loop, at once.
    if start + step > start and (stop - start) / step >= MAX_DISTANCES:
        raise ConfigError(f"{name} must span at most {MAX_DISTANCES} distances, "
                          f"got {axis!r}")
    out = []
    d = start
    while d <= stop + step * 1e-9:
        out.append(round(d, 9))
        if d + step == d:
            raise ConfigError(f"{name} step {step!r} does not advance the "
                              f"distance past {d!r}")
        d += step
    return tuple(out)


def load_config(path: str, overrides: argparse.Namespace) -> ScanConfig:
    """The scan configuration, with flags applied; ConfigError names a bad key."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")
    _reject_unknown(raw, _TOP_KEYS)

    channel = _section(raw, "channel", ChannelParams(0.0, 0.0, 0.0, 0.0, 0.0),
                       _CHANNEL_KEYS, required=True)
    calib = _section(raw, "source", SourceCalibration(), _SOURCE_KEYS)
    security = _section(raw, "security", SecurityConfig(), _SECURITY_KEYS)
    space = _section(raw, "search", SearchSpace(), _SEARCH_KEYS)

    scan = _object(raw, "scan", _SCAN_KEYS)
    if overrides.distance:
        try:
            axis = [float(v) for v in overrides.distance.split(":")]
        except ValueError:
            raise ConfigError("--distance must look like start:stop:step")
        distances = _distances("--distance", axis)
    else:
        distances = _distances("scan.distance", scan.get("distance"))

    if overrides.blocks:
        blocks_name, blocks = "--blocks", overrides.blocks.split(",")
    else:
        blocks_name, blocks = "scan.blocks", scan.get("blocks")
        if not isinstance(blocks, list):
            raise ConfigError(f"scan.blocks must be a list, got {blocks!r}")
    blocks = tuple(_block_label(blocks_name, b) for b in blocks)

    if overrides.mode:
        modes = list(MODES) if overrides.mode == "both" else [overrides.mode]
    else:
        modes = scan.get("modes", ["improved"])
    if not (isinstance(modes, list)
            and all(isinstance(m, str) and m in MODES for m in modes)):
        raise ConfigError(f"scan.modes must list modes among {MODES}, got {modes!r}")

    seed = (overrides.seed if overrides.seed is not None
            else _integer("seed", raw.get("seed", 0)))
    try:
        require_seed(seed)
    except SimConfigError as exc:
        raise ConfigError(str(exc))
    mc_validate = raw.get("mc_validate", False)
    if not isinstance(mc_validate, bool):
        raise ConfigError(f"mc_validate must be true or false, got {mc_validate!r}")
    mc_windows = _integer("mc_windows", raw.get("mc_windows", 10**6))
    try:
        require_windows(mc_windows)
    except SimConfigError as exc:
        raise ConfigError(f"mc_windows is invalid: {exc}")
    return ScanConfig(
        channel=channel, calib=calib, security=security, space=space,
        distances=distances, blocks=blocks, modes=tuple(modes),
        seed=seed, mc_validate=overrides.mc_validate or mc_validate,
        mc_windows=mc_windows,
    )


def _block_value(label: str):
    return ASYMPTOTIC if label == ASYMPTOTIC else float(label)


def run_scan(cfg: ScanConfig) -> list[dict]:
    """Optimize and evaluate every (distance, block size, mode) point."""
    keys = [(d, b, m) for d in cfg.distances for b in cfg.blocks for m in cfg.modes]
    results = optimize_points(
        [(replace(cfg.channel, distance_km=d), _block_value(b), m) for d, b, m in keys],
        cfg.calib, cfg.security, cfg.space)
    rows = []
    for (distance, block_label, mode), result in zip(keys, results):
        row = {"distance_km": distance, "N": block_label, "mode": mode}
        if result is None:
            row.update(dict.fromkeys(("px", "mu_x", *_REPORT_COLUMNS), 0.0),
                       feasible_flag=0)
        else:
            protocol, report = result
            row.update({name: getattr(report, name) for name in _REPORT_COLUMNS},
                       px=protocol.px, mu_x=protocol.mu_xA, feasible_flag=1)
        rows.append(row)
    rows.sort(key=lambda r: (r["distance_km"],
                             math.inf if r["N"] == ASYMPTOTIC else float(r["N"]),
                             MODES.index(r["mode"])))
    return rows


def _format_value(key: str, value) -> str:
    if key in ("N", "mode"):
        return str(value)
    if key == "feasible_flag":
        return str(int(value))
    return repr(float(value))


def rows_to_csv(rows: list[dict]) -> str:
    keys = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_format_value(k, row[k]) for k in keys))
    return "\n".join(lines) + "\n"


# SVG canvas size in pixels.
_WIDTH, _HEIGHT = 720, 480

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf")


def emit_plot(rows: list[dict]) -> str:
    """Rate-vs-distance SVG with a logarithmic rate axis.

    Byte-deterministic for a fixed input table.
    """
    if not rows:
        raise ValueError("cannot plot an empty table")
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in rows:
        if row["feasible_flag"] and row["R_coh"] > 0.0:
            curves.setdefault((row["mode"], row["N"]), []).append(
                (row["distance_km"], row["R_coh"]))
    xs = [row["distance_km"] for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    rates = [r for pts in curves.values() for _, r in pts]
    if rates:
        y_lo = math.floor(math.log10(min(rates)))
        y_hi = math.ceil(math.log10(max(rates)))
    else:
        y_lo, y_hi = -12, 0
    if y_hi == y_lo:
        y_hi += 1
    margin = 60

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * margin)

    def sy(rate: float) -> float:
        frac = (math.log10(rate) - y_lo) / (y_hi - y_lo)
        return _HEIGHT - margin - frac * (_HEIGHT - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{_WIDTH - 2 * margin}" '
        f'height="{_HEIGHT - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for decade in range(y_lo, y_hi + 1):
        y = sy(10.0 ** decade)
        parts.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{margin - 5}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">1e{decade}</text>')
    n_xticks = 5
    for i in range(n_xticks + 1):
        x_val = x_lo + (x_hi - x_lo) * i / n_xticks
        x = sx(x_val)
        parts.append(f'<line x1="{x:.2f}" y1="{_HEIGHT - margin}" x2="{x:.2f}" '
                     f'y2="{_HEIGHT - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_HEIGHT - margin + 18}" font-size="11" '
                     f'text-anchor="middle">{x_val:g}</text>')
    parts.append(f'<text x="{_WIDTH / 2:g}" y="{_HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle">distance (km)</text>')
    parts.append(f'<text x="16" y="{_HEIGHT / 2:g}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {_HEIGHT / 2:g})">'
                 f'key rate (bits/window)</text>')
    for idx, (key, pts) in enumerate(sorted(curves.items(), key=lambda kv: kv[0])):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(r):.2f}" for x, r in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        label = f"{key[0]}, N={key[1]}"
        ly = margin + 16 + 16 * idx
        parts.append(f'<line x1="{_WIDTH - margin - 150}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - margin - 125}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_WIDTH - margin - 120}" y="{ly}" font-size="11">'
                     f'{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _mc_report(cfg: ScanConfig, rows: list[dict]) -> str:
    lines = ["distance_km,N,mode,component,expected,observed"]
    for idx, row in enumerate(rows):
        if not row["feasible_flag"]:
            continue
        protocol = ProtocolParams(p0=1.0 - row["px"], px=row["px"],
                                  mu_xA=row["mu_x"], mu_xB=row["mu_x"],
                                  N=cfg.mc_windows, mode=row["mode"])
        channel = replace(cfg.channel, distance_km=row["distance_km"])
        expected = expected_tallies(protocol, channel)
        # Row seeds wrap, so that every valid scan seed stays a valid key.
        observed = simulate(protocol, channel, (cfg.seed + idx) % 2**64)
        for component in ("n_O", "n_B", "n_Z"):
            lines.append(",".join([
                repr(float(row["distance_km"])), row["N"], row["mode"], component,
                repr(float(getattr(expected, component))),
                repr(float(getattr(observed, component)))]))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scsqkd")
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="run a distance/block-size scan")
    scan.add_argument("--config", required=True, help="path to JSON config")
    scan.add_argument("--distance", help="override axis as start:stop:step (km)")
    scan.add_argument("--blocks", help="override block sizes, e.g. 1e10,1e12,asymptotic")
    scan.add_argument("--mode", choices=(*MODES, "both"))
    scan.add_argument("--mc-validate", action="store_true", dest="mc_validate")
    scan.add_argument("--seed", type=int)
    scan.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    rows = run_scan(cfg)
    with open(os.path.join(args.out, "scan.csv"), "w", newline="") as handle:
        handle.write(rows_to_csv(rows))
    if rows:
        with open(os.path.join(args.out, "scan.svg"), "w", newline="") as handle:
            handle.write(emit_plot(rows))
    if cfg.mc_validate:
        with open(os.path.join(args.out, "mc_report.csv"), "w", newline="") as handle:
            handle.write(_mc_report(cfg, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
