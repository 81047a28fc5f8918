"""Distance/block-size scans with CSV and SVG emission.

Configuration is a single JSON document; command-line flags override the
corresponding config keys.  Rows are sorted by distance, block size and mode.

``load_config`` builds each section's record once, and the record checks
its ranges; the scan builds no record after it and passes its points and
rows as columns.  With ``mc_validate``, the Monte Carlo cross-check passes
the feasible rows' own arrays to ``mc_oracle.simulate_arrays``, which
checks only its row counts, so the checks it needs are made here:
``load_config`` checks the seed (each row's seed wraps modulo 2**64) and
the window count, as ``mc_oracle.simulate`` does for one run, the search
keeps px in (0, 1) with p0 = 1 - px, and ``heralding_arrays``, which gives
the expected counts first, rejects a negative intensity or transmittance.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (MODES, ChannelParams, arm_transmittance, heralding_arrays,
                      tally_arrays)
from .mc_oracle import require_seed, require_windows, simulate_arrays
from .optimizer import SearchSpace, search_points
from .pipeline import (ASYMPTOTIC, MAX_BLOCK, SecurityConfig, SourceCalibration,
                       require_block)

_COLUMNS = ("distance_km", "N", "mode", "px", "mu_x", "mu_virtual_A", "mu_virtual_B",
            "n_O", "n_B", "n_Z", "E_Z", "e_ph", "R_col", "R_coh", "feasible_flag")

CSV_HEADER = ",".join(_COLUMNS)


# Most distances a scan axis may hold.
MAX_DISTANCES = 10 ** 6


class ConfigError(ValueError):
    """Raised with the offending key named when the config is invalid."""


@dataclass(frozen=True)
class ScanConfig:
    # Its distance_km=0.0 placeholder is read only by perfbench/gate.py,
    # which replaces it per row; removing it is a change to the benchmark.
    channel: ChannelParams
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


def _section(raw: dict, name: str, record, keys: dict, required: bool = False):
    """``record`` built once from the keys of config section ``name``.

    Each key is converted in turn; then every check of the record starts
    its message with the field it checks, which names the key.
    """
    section = _object(raw, name, keys)
    fields = {}
    for key, (field, convert) in keys.items():
        if key in section:
            fields[field] = convert(f"{name}.{key}", section[key])
        elif required:
            raise ConfigError(f"{name}.{key} is missing")
    try:
        return record(**fields)
    except ValueError as exc:
        key = {field: key for key, (field, _) in keys.items()}[str(exc).partition(" ")[0]]
        raise ConfigError(f"{name}.{key} is invalid: {exc}")


def _block_label(name: str, raw) -> str:
    """"asymptotic", or a whole block size in [1, MAX_BLOCK] as an integer
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
                          f"need {ASYMPTOTIC!r} or a whole number in [1, {MAX_BLOCK:.0e}]")
    return str(int(value))


def _distinct(name: str, entries: list[str]) -> tuple[str, ...]:
    """``entries``, which must be nonempty and name no entry twice: an empty
    list would scan nothing, and a repeated one would scan a point twice."""
    if not entries:
        raise ConfigError(f"{name} must not be empty")
    for k, entry in enumerate(entries):
        if entry in entries[:k]:
            raise ConfigError(f"{name} lists {entry!r} twice")
    return tuple(entries)


def _distances(name: str, axis) -> tuple[float, ...]:
    """The distances start, start + step, ... up to stop, rounded to 1e-9 km:
    ascending, distinct and at most MAX_DISTANCES of them, counted before
    any is built."""
    if not (isinstance(axis, list) and len(axis) == 3):
        raise ConfigError(f"{name} must be [start, stop, step], got {axis!r}")
    start, stop, step = (_number(name, v) for v in axis)
    start += 0.0  # -0.0 becomes 0.0, the distance written for it
    if not 0.0 <= start <= stop or step <= 0.0:
        raise ConfigError(f"{name} needs 0 <= start <= stop and step > 0, "
                          f"got {axis!r}")
    # A step too small to advance the start is named by the loop, at once.
    if start + step > start and (stop - start) / step >= MAX_DISTANCES:
        raise ConfigError(f"{name} must span at most {MAX_DISTANCES} distances, "
                          f"got {axis!r}")
    out = []
    d = start
    while d <= stop + step * 1e-9:
        value = round(d, 9)
        # A step too small to advance d, or to move it past the rounding.
        if out and value == out[-1]:
            raise ConfigError(f"{name} step {step!r} repeats the distance {value!r} "
                              f"(distances are rounded to 1e-9 km)")
        out.append(value)
        d += step
    return tuple(out)


def load_config(path: str, overrides: argparse.Namespace) -> ScanConfig:
    """The scan configuration, with flags applied; ConfigError names a bad key."""
    try:
        # As bytes, json detects UTF-8 (or -16, -32) whatever the locale.
        with open(path, "rb") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")
    _reject_unknown(raw, _TOP_KEYS)

    channel = _section(raw, "channel", functools.partial(ChannelParams, 0.0),
                       _CHANNEL_KEYS, required=True)
    calib = _section(raw, "source", SourceCalibration, _SOURCE_KEYS)
    security = _section(raw, "security", SecurityConfig, _SECURITY_KEYS)
    space = _section(raw, "search", SearchSpace, _SEARCH_KEYS)

    scan = _object(raw, "scan", _SCAN_KEYS)
    if overrides.distance is not None:
        try:
            axis = [float(v) for v in overrides.distance.split(":")]
        except ValueError:
            raise ConfigError("--distance must look like start:stop:step")
        distances = _distances("--distance", axis)
    else:
        distances = _distances("scan.distance", scan.get("distance"))

    if overrides.blocks is not None:
        blocks_name, blocks = "--blocks", overrides.blocks.split(",") if overrides.blocks else []
    else:
        blocks_name, blocks = "scan.blocks", scan.get("blocks")
        if not isinstance(blocks, list):
            raise ConfigError(f"scan.blocks must be a list, got {blocks!r}")
    blocks = _distinct(blocks_name, [_block_label(blocks_name, b) for b in blocks])

    if overrides.mode:
        modes = list(MODES) if overrides.mode == "both" else [overrides.mode]
    else:
        modes = scan.get("modes", ["improved"])
    if not (isinstance(modes, list)
            and all(isinstance(m, str) and m in MODES for m in modes)):
        raise ConfigError(f"scan.modes must list modes among {MODES}, got {modes!r}")
    modes = _distinct("scan.modes", modes)

    seed = (overrides.seed if overrides.seed is not None
            else _integer("seed", raw.get("seed", 0)))
    try:
        require_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    mc_validate = raw.get("mc_validate", False)
    if not isinstance(mc_validate, bool):
        raise ConfigError(f"mc_validate must be true or false, got {mc_validate!r}")
    mc_windows = _integer("mc_windows", raw.get("mc_windows", 10**6))
    try:
        require_windows(mc_windows)
    except ValueError as exc:
        raise ConfigError(f"mc_windows is invalid: {exc}")
    return ScanConfig(
        channel=channel, calib=calib, security=security, space=space,
        distances=distances, blocks=blocks, modes=modes,
        seed=seed, mc_validate=overrides.mc_validate or mc_validate,
        mc_windows=mc_windows,
    )


def run_scan(cfg: ScanConfig) -> dict[str, list]:
    """Optimize and evaluate every (distance, block size, mode) point: a
    column table of lists, each CSV column by name in order, then ``eta``,
    each row's one-arm transmittance.  The rows follow ``cfg.distances``,
    then ascend in block size (asymptotic last) and follow MODES order."""
    blocks = sorted((math.inf if b == ASYMPTOTIC else float(b), b) for b in cfg.blocks)
    modes = tuple(sorted(cfg.modes, key=MODES.index))
    # Once per distance, by arm_transmittance's scalar arithmetic: numpy's
    # vectorized power differs from it in the last bit at some distances.
    eta = np.array([arm_transmittance(cfg.channel, d) for d in cfg.distances])
    d, b, m = np.indices((len(eta), len(blocks), len(modes))).reshape(3, -1)
    sizes = tuple(ASYMPTOTIC if size == math.inf else size for size, _ in blocks)
    px, mu, report = search_points(cfg.channel, cfg.calib, cfg.security, eta[d],
                                   sizes, b, modes, m, cfg.space)
    # Each column between mu_x and feasible_flag is the report attribute of its name.
    numbers = (px, mu, *(getattr(report, name) for name in _COLUMNS[5:-1]),
               report.feasible.astype(int), eta[d])
    return dict(zip((*_COLUMNS, "eta"), (
        [cfg.distances[i] for i in d.tolist()], [blocks[i][1] for i in b.tolist()],
        [modes[i] for i in m.tolist()], *(column.tolist() for column in numbers))))


def rows_to_csv(table: dict[str, list]) -> str:
    """The CSV text of a column table, one line per row."""
    distance, block, mode, *numbers = (table[name] for name in _COLUMNS)
    cells = zip(map(repr, distance), block, mode, *(map(repr, c) for c in numbers))
    return "\n".join([CSV_HEADER, *map(",".join, cells)]) + "\n"


# SVG canvas size in pixels.
_WIDTH, _HEIGHT = 720, 480

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf")


def emit_plot(table: dict[str, list]) -> str:
    """Rate-vs-distance SVG of a column table with a logarithmic rate axis.

    Byte-deterministic for a fixed input table.
    """
    xs = table["distance_km"]
    if not xs:
        raise ValueError("cannot plot an empty table")
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for x, block, mode, rate, flag in zip(xs, table["N"], table["mode"], table["R_coh"],
                                          table["feasible_flag"]):
        if flag and rate > 0.0:
            curves.setdefault((mode, block), []).append((x, rate))
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


def _mc_report(cfg: ScanConfig, table: dict[str, list]) -> str:
    # The feasible rows by their index among all rows, which offsets their seeds.
    rows = [i for i, flag in enumerate(table["feasible_flag"]) if flag]
    px, mu, eta = (np.array(table[name])[rows] for name in ("px", "mu_x", "eta"))
    mode_index = np.array([MODES.index(table["mode"][i]) for i in rows], dtype=int)
    p0 = 1.0 - px
    e_d, p_d = cfg.channel.e_d, cfg.channel.p_d
    # The expected counts of all rows come from one channel pass, with each
    # row's scalar transmittance and mode, so they keep every bit of
    # expected_tallies(protocol, channel); heralding_arrays checks the
    # intensities and transmittance that simulate_arrays needs.
    probs = heralding_arrays(mu, mu, eta, e_d, p_d, MODES, mode_index)
    expected = np.array(tally_arrays(p0, px, cfg.mc_windows, *probs))
    # Row seeds wrap, so that every valid scan seed stays a valid key.
    observed = simulate_arrays(
        p0, px, mu, mu, eta, np.full(len(rows), e_d), np.full(len(rows), p_d),
        mode_index == MODES.index("baseline"), [cfg.mc_windows] * len(rows),
        [(cfg.seed + i) % 2**64 for i in rows])
    distance, block, mode = table["distance_km"], table["N"], table["mode"]
    lines = ["distance_km,N,mode,component,expected,observed"]
    for i, counts, tally in zip(rows, expected.T.tolist(), observed):
        for component, value, count in zip(("n_O", "n_B", "n_Z"), counts, tally):
            lines.append(",".join([repr(distance[i]), block[i], mode[i], component,
                                   repr(value), repr(float(count))]))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the ``scsqkd`` command line on each call."""
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call, not at import."""
    return build_parser()


def _overwrite(path: str, text: str) -> None:
    """Make ``text``, as UTF-8 bytes, the whole content of the file ``path``.

    An existing regular file is written over from its start and then cut at
    the bytes written, also when a write fails partway, so it never keeps a
    tail of its old content; it keeps its inode, permissions and links, as
    with ``open(path, "w")``.  A new file is created with the same
    umask-masked mode; a device or a pipe is written to and not cut.  The
    truncating open is avoided because on ext4 (``auto_da_alloc``) closing a
    file that was truncated and rewritten starts its writeback, and the next
    truncating open, such as a rerun milliseconds later, waits for it:
    0.06-0.5 ms per file (2 shared cores, ext4 mounted with ``discard``),
    against ~0.003 ms for this open.  The writeback is deferred to the
    kernel's periodic flush, not saved, and the rewrite is not atomic: a
    host crash soon after a rerun can leave old bytes within the new length,
    where the truncating open could leave an empty file.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb", buffering=0) as handle:
            try:
                data = memoryview(text.encode())
                while data:
                    data = data[handle.write(data):]
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    handle.truncate()
    except OSError as exc:  # a failed write names no file
        raise OSError(exc.errno, exc.strerror, path) from exc


def main(argv: list[str] | None = None) -> int:
    """Run ``scsqkd`` on ``argv`` (default ``sys.argv[1:]``); the exit status.

    One parser serves every call in a process; each call parses its own
    arguments and reads and checks its config anew.  A config that cannot be
    read or is invalid, or an ``--out`` directory that cannot be created,
    ends the call with ``error: ...`` and status 2 before any scan work; an
    output file that cannot be written ends it so after the scan.  Every
    call writes every output in full, over the file of a previous call.
    """
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = run_scan(cfg)  # a scan has a row, since load_config rejects empty axes
    try:
        _overwrite(os.path.join(args.out, "scan.csv"), rows_to_csv(table))
        _overwrite(os.path.join(args.out, "scan.svg"), emit_plot(table))
        if cfg.mc_validate:
            _overwrite(os.path.join(args.out, "mc_report.csv"), _mc_report(cfg, table))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
