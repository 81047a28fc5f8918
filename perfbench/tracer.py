"""Spans at the layer boundaries of scsqkd, recorded from outside the package.

Each boundary is wrapped by rebinding the name in the module that calls it,
so that ``scsqkd`` itself is not changed.  ``scsqkd.channel.expected_tallies``
is also rebound at its definition, because ``cli._mc_report`` imports it
inside its function body.  The Chernoff layer's root-finder callable is
counted by rebinding ``scsqkd.chernoff.brentq``.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends.  A span's self time is its duration minus the time covered by its
child spans; a layer's self time is the sum over the spans of that layer.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute, span name); the layer is the span name's first part.
BOUNDARIES = (
    ("scsqkd.cli", "load_config", "cli.load_config"),
    ("scsqkd.cli", "run_scan", "cli.run_scan"),
    ("scsqkd.cli", "rows_to_csv", "cli.emit"),
    ("scsqkd.cli", "emit_plot", "cli.emit"),
    ("scsqkd.cli", "_mc_report", "cli.mc_report"),
    ("scsqkd.cli", "optimize", "optimizer.optimize"),
    ("scsqkd.cli", "simulate", "mc_oracle.simulate"),
    ("scsqkd.optimizer", "evaluate_point", "pipeline.evaluate_point"),
    ("scsqkd.pipeline", "virtual_intensities_for", "mapping.virtual_intensities_for"),
    ("scsqkd.pipeline", "expected_tallies", "channel.expected_tallies"),
    ("scsqkd.channel", "expected_tallies", "channel.expected_tallies"),
    ("scsqkd.pipeline", "decomposition_coeffs", "phase_error.decomposition_coeffs"),
    ("scsqkd.pipeline", "phase_error_rate_upper", "phase_error.phase_error_rate_upper"),
    ("scsqkd.pipeline", "security_budget", "keyrate.security_budget"),
    ("scsqkd.pipeline", "ec_leakage", "keyrate.ec_leakage"),
    ("scsqkd.pipeline", "binary_entropy", "keyrate.binary_entropy"),
    ("scsqkd.pipeline", "key_rate_collective", "keyrate.key_rate_collective"),
    ("scsqkd.pipeline", "key_rate_coherent", "keyrate.key_rate_coherent"),
    ("scsqkd.phase_error", "expectation_upper", "chernoff.expectation_upper"),
    ("scsqkd.phase_error", "observed_upper", "chernoff.observed_upper"),
)
ROOT_FINDER = ("scsqkd.chernoff", "brentq")

LAYERS = ("mapping", "channel", "chernoff", "phase_error", "keyrate",
          "pipeline", "optimizer", "mc_oracle", "cli")


def _point_kind(args, kwargs):
    block = kwargs["block_size"] if "block_size" in kwargs else args[4]
    return "asymptotic" if block == "asymptotic" else "finite"


def _sim_windows(args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[0]
    return (config.phase_model, int(config.N))


TAGS = {"pipeline.evaluate_point": _point_kind,
        "mc_oracle.simulate": _sim_windows}

# Span record fields.
_NAME, _PARENT, _START, _END, _ERROR, _TAG = range(6)


class Tracer:
    """Records spans for one traced scan; install() before, uninstall() after."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.fevals = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, None, None]
            if tag is not None:
                try:
                    rec[_TAG] = tag(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError):
                    pass
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[_ERROR] = type(exc).__name__
                raise
            finally:
                rec[_END] = clock()
                stack.pop()

        return traced

    def _counting(self, root_finder):
        @functools.wraps(root_finder)
        def counted_root_finder(f, *args, **kwargs):
            def counted(x, *fargs):
                self.fevals += 1
                return f(x, *fargs)
            return root_finder(counted, *args, **kwargs)

        return counted_root_finder

    def _rebind(self, module_name: str, attr: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Rebind every boundary; boundaries that no longer exist are listed
        in ``missing`` instead of failing the run."""
        wrappers: dict[int, object] = {}
        for module_name, attr, name in BOUNDARIES:
            def make(original, name=name):
                # One wrapper per function, so a function reachable under two
                # names records one span per call.
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, name)
                return wrappers[key]
            self._rebind(module_name, attr, make)
        self._rebind(*ROOT_FINDER, self._counting)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn(*args)`` under a root span named ``cli.main``."""
        return self._wrap(fn, "cli.main")(*args)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                covered[rec[_PARENT]] += rec[_END] - rec[_START]
        return [rec[_END] - rec[_START] - c for rec, c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("index,name,parent,start_s,end_s,error,tag\n")
            for i, rec in enumerate(self.spans):
                tag = "" if rec[_TAG] is None else str(rec[_TAG]).replace(",", ";")
                handle.write(f"{i},{rec[_NAME]},{rec[_PARENT]},"
                             f"{rec[_START] - t0!r},{rec[_END] - t0!r},"
                             f"{rec[_ERROR] or ''},{tag}\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios of the recorded scan."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        count: dict[str, int] = {}
        duration: dict[str, list[float]] = {}
        errors: dict[str, int] = {}
        point_us: dict[str, list[float]] = {"finite": [], "asymptotic": []}
        windows: dict[str, list[float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            name = rec[_NAME]
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
            count[name] = count.get(name, 0) + 1
            dur = rec[_END] - rec[_START]
            duration.setdefault(name, []).append(dur)
            if rec[_ERROR]:
                key = f"{name}:{rec[_ERROR]}"
                errors[key] = errors.get(key, 0) + 1
            if name == "pipeline.evaluate_point" and rec[_TAG] in point_us:
                point_us[rec[_TAG]].append(dur * 1e6)
            if name == "mc_oracle.simulate" and rec[_TAG]:
                model, n = rec[_TAG]
                acc = windows.setdefault(model, [0.0, 0.0])
                acc[0] += n
                acc[1] += dur

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        solves = (count.get("chernoff.expectation_upper", 0)
                  + count.get("chernoff.observed_upper", 0))
        tallies = count.get("channel.expected_tallies", 0)
        mapped = count.get("mapping.virtual_intensities_for", 0)
        evals = count.get("pipeline.evaluate_point", 0)
        optimizes = count.get("optimizer.optimize", 0)
        failed_evals = sum(v for k, v in errors.items()
                           if k.startswith("pipeline.evaluate_point:"))
        optimize_ms = [d * 1e3 for d in duration.get("optimizer.optimize", [])]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "chernoff.solves": solves,
            "chernoff.us_per_solve": ratio(self_s["chernoff"] * 1e6, solves),
            "chernoff.fevals_per_solve": ratio(self.fevals, solves),
            "channel.expected_tallies.calls": tallies,
            "channel.us_per_call": ratio(self_s["channel"] * 1e6, tallies),
            "mapping.infeasible_ratio": ratio(
                errors.get("mapping.virtual_intensities_for:InfeasibleError", 0), mapped),
            "pipeline.us_per_point.finite": _mean(point_us["finite"]),
            "pipeline.us_per_point.asymptotic": _mean(point_us["asymptotic"]),
            "optimizer.evals_per_optimize": ratio(evals, optimizes),
            "optimizer.feasible_ratio": ratio(evals - failed_evals, evals),
            "optimizer.optimize_ms.p50": _percentile(optimize_ms, 50),
            "optimizer.optimize_ms.p90": _percentile(optimize_ms, 90),
            "optimizer.no_feasible_rows":
                errors.get("optimizer.optimize:NoFeasiblePointError", 0),
            "mc_oracle.windows": sum(acc[0] for acc in windows.values()),
            "cli.load_config_s": sum(duration.get("cli.load_config", [])),
            "cli.emit_s": sum(duration.get("cli.emit", [])),
            "trace.spans": len(self.spans),
            "trace.missing_boundaries": len(self.missing),
        })
        for model in ("compensated", "uniform-random"):
            n, secs = windows.get(model, (0.0, 0.0))
            out[f"mc_oracle.windows_per_s.{model}"] = ratio(n, secs)
        return out


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_" in name:
        return "us"
    if "_ms." in name:
        return "ms"
    if ".windows_per_s." in name:
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
