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

from .channel import ChannelParams, ProtocolParams, expected_tallies
from .mc_oracle import SimConfig, SimConfigError, require_seed, simulate
from .optimizer import NoFeasiblePointError, SearchSpace, optimize
from .pipeline import (ASYMPTOTIC, SecurityConfig, SecurityConfigError,
                       SourceCalibration)

CSV_HEADER = ("distance_km,N,mode,px,mu_x,mu_virtual_A,mu_virtual_B,"
              "n_O,n_B,n_Z,E_Z,e_ph,R_col,R_coh,feasible_flag")

_MODE_ORDER = {"improved": 0, "baseline": 1}

# Key of the security section for each SecurityConfig field.
_SECURITY_KEYS = {"eps_coh_target": "eps_coh", "f": "f", "d": "d"}


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


def _get(section: dict, config_key: str, key: str, default=None):
    if key in section:
        return section[key]
    if default is None:
        raise ConfigError(f"missing config key {config_key}.{key}")
    return default


def _block_label(raw) -> str:
    if raw == ASYMPTOTIC:
        return ASYMPTOTIC
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid block size {raw!r} in scan.blocks")
    if value < 1:
        raise ConfigError(f"block size must be >= 1, got {raw!r}")
    return str(int(value))


def _distances(axis) -> tuple[float, ...]:
    try:
        start, stop, step = (float(v) for v in axis)
    except (TypeError, ValueError):
        raise ConfigError("scan.distance must be [start, stop, step]")
    if step <= 0:
        raise ConfigError("scan.distance step must be > 0")
    out = []
    d = start
    while d <= stop + step * 1e-9:
        out.append(round(d, 9))
        d += step
    return tuple(out)


def load_config(path: str, overrides: argparse.Namespace) -> ScanConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")

    chan = raw.get("channel", {})
    try:
        channel = ChannelParams(
            distance_km=0.0,
            alpha_f=float(_get(chan, "channel", "alpha_f")),
            eta_d=float(_get(chan, "channel", "eta_d")),
            p_d=float(_get(chan, "channel", "p_d")),
            e_d=float(_get(chan, "channel", "e_d")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid channel section: {exc}")

    src = raw.get("source", {})
    calib = SourceCalibration(
        av0=float(src.get("av0", 1.0 - 1e-8)),
        bv0=float(src.get("bv0", 1.0 - 1e-8)),
        fluct=float(src.get("fluct", 0.1)),
    )

    sec = raw.get("security", {})
    try:
        security = SecurityConfig(
            eps_coh_target=float(sec.get("eps_coh", 1e-10)),
            f=float(sec.get("f", 1.1)),
            d=sec.get("d", 8),
        )
    except SecurityConfigError as exc:
        raise ConfigError(f"security.{_SECURITY_KEYS[exc.field]} {exc.problem}")

    search = raw.get("search", {})
    space = SearchSpace(
        px_range=tuple(search.get("px_range", (0.01, 0.99))),
        mu_range=tuple(search.get("mu_range", (1e-4, 1.0))),
        grid=tuple(search.get("grid", (20, 20))),
        refine_rounds=int(search.get("refine_rounds", 2)),
        shrink=float(search.get("shrink", 4.0)),
    )

    scan = raw.get("scan", {})
    if overrides.distance:
        parts = overrides.distance.split(":")
        if len(parts) != 3:
            raise ConfigError("--distance must look like start:stop:step")
        axis = parts
    else:
        axis = _get(scan, "scan", "distance")
    distances = _distances(axis)

    blocks_raw = (overrides.blocks.split(",") if overrides.blocks
                  else _get(scan, "scan", "blocks"))
    blocks = tuple(_block_label(b) for b in blocks_raw)

    if overrides.mode:
        modes_raw = ["improved", "baseline"] if overrides.mode == "both" else [overrides.mode]
    else:
        modes_raw = scan.get("modes", ["improved"])
    for mode in modes_raw:
        if mode not in _MODE_ORDER:
            raise ConfigError(f"invalid mode {mode!r} in scan.modes")

    seed = overrides.seed if overrides.seed is not None else int(raw.get("seed", 0))
    try:
        require_seed(seed)
    except SimConfigError as exc:
        raise ConfigError(str(exc))
    mc_validate = overrides.mc_validate or bool(raw.get("mc_validate", False))
    return ScanConfig(
        channel=channel, calib=calib, security=security, space=space,
        distances=distances, blocks=blocks, modes=tuple(modes_raw),
        seed=seed, mc_validate=mc_validate,
        mc_windows=int(raw.get("mc_windows", 10**6)),
    )


def _block_value(label: str):
    return ASYMPTOTIC if label == ASYMPTOTIC else float(label)


def _scan_one(cfg: ScanConfig, distance: float, block_label: str, mode: str) -> dict:
    channel = replace(cfg.channel, distance_km=distance)
    row = {"distance_km": distance, "N": block_label, "mode": mode,
           "px": 0.0, "mu_x": 0.0, "mu_virtual_A": 0.0, "mu_virtual_B": 0.0,
           "n_O": 0.0, "n_B": 0.0, "n_Z": 0.0, "E_Z": 0.0, "e_ph": 0.0,
           "R_col": 0.0, "R_coh": 0.0, "feasible_flag": 0}
    try:
        protocol, report = optimize(channel, cfg.calib, _block_value(block_label),
                                    cfg.security, cfg.space, mode)
    except NoFeasiblePointError:
        return row
    tally = report.tally
    row.update({
        "px": protocol.px, "mu_x": protocol.mu_xA,
        "mu_virtual_A": report.mu_virtual_A, "mu_virtual_B": report.mu_virtual_B,
        "n_O": tally.n_O, "n_B": tally.n_B, "n_Z": tally.n_Z,
        "E_Z": tally.E_Z, "e_ph": report.e_ph,
        "R_col": report.R_col, "R_coh": report.R_coh, "feasible_flag": 1,
    })
    return row


def run_scan(cfg: ScanConfig) -> list[dict]:
    """Optimize and evaluate every (distance, block size, mode) point."""
    rows = [_scan_one(cfg, d, b, m) for d in cfg.distances for b in cfg.blocks
            for m in cfg.modes]
    rows.sort(key=lambda r: (r["distance_km"],
                             math.inf if r["N"] == ASYMPTOTIC else float(r["N"]),
                             _MODE_ORDER[r["mode"]]))
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


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf")


def emit_plot(rows: list[dict], width: int = 720, height: int = 480) -> str:
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
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(rate: float) -> float:
        frac = (math.log10(rate) - y_lo) / (y_hi - y_lo)
        return height - margin - frac * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
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
        parts.append(f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" '
                     f'y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - margin + 18}" font-size="11" '
                     f'text-anchor="middle">{x_val:g}</text>')
    parts.append(f'<text x="{width / 2:g}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">distance (km)</text>')
    parts.append(f'<text x="16" y="{height / 2:g}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {height / 2:g})">key rate (bits/window)</text>')
    for idx, (key, pts) in enumerate(sorted(curves.items(), key=lambda kv: kv[0])):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(r):.2f}" for x, r in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        label = f"{key[0]}, N={key[1]}"
        ly = margin + 16 + 16 * idx
        parts.append(f'<line x1="{width - margin - 150}" y1="{ly - 4}" '
                     f'x2="{width - margin - 125}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin - 120}" y="{ly}" font-size="11">'
                     f'{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _mc_report(cfg: ScanConfig, rows: list[dict]) -> str:
    lines = ["distance_km,N,mode,component,expected,observed,sigma,z"]
    for idx, row in enumerate(rows):
        if not row["feasible_flag"]:
            continue
        n_mc = cfg.mc_windows
        protocol = ProtocolParams(p0=1.0 - row["px"], px=row["px"],
                                  mu_xA=row["mu_x"], mu_xB=row["mu_x"],
                                  N=n_mc, mode=row["mode"])
        channel = replace(cfg.channel, distance_km=row["distance_km"])
        expected = expected_tallies(protocol, channel)
        phase_model = "compensated" if row["mode"] == "improved" else "uniform-random"
        # Row seeds wrap, so that every valid scan seed stays a valid key.
        observed = simulate(SimConfig(seed=(cfg.seed + idx) % 2**64, N=n_mc,
                                      protocol=protocol, channel=channel,
                                      phase_model=phase_model))
        for component in ("n_O", "n_B", "n_Z"):
            exp_val = getattr(expected, component)
            obs_val = getattr(observed, component)
            p = exp_val / n_mc
            sigma = math.sqrt(max(n_mc * p * (1.0 - p), 0.0))
            z = (obs_val - exp_val) / sigma if sigma > 0 else 0.0
            lines.append(",".join([
                repr(float(row["distance_km"])), row["N"], row["mode"], component,
                repr(float(exp_val)), repr(float(obs_val)),
                repr(float(sigma)), repr(float(z))]))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scsqkd")
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", help="run a distance/block-size scan")
    scan.add_argument("--config", required=True, help="path to JSON config")
    scan.add_argument("--distance", help="override axis as start:stop:step (km)")
    scan.add_argument("--blocks", help="override block sizes, e.g. 1e10,1e12,asymptotic")
    scan.add_argument("--mode", choices=("improved", "baseline", "both"))
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
