"""Seeded scan configurations for the benchmark workloads.

Each workload is a ``scsqkd scan`` config document generated from a seed.
The seed jitters the distances, the misalignment error e_d, the dark-count
probability p_d and the finite block sizes; the number of scan points and
the search grid are fixed per workload, so the amount of work a scan does
barely depends on the seed.

Why these three workloads (measured with the traced run at the commit that
introduced them):

* ``finite-scan``: finite blocks only.  Every grid point makes three
  log-domain Chernoff root solves, which take most of the self time; the
  channel takes little.  The root solves take more iterations at larger
  blocks, so one block is drawn in each decade of 1e10-1e14: with two
  blocks drawn over the whole range, the brentq evaluations of a scan
  spread by 7 % (quartiles over ten seeds) against 2 % this way.
* ``asymptotic-scan``: the ``asymptotic`` block in both heralding modes.
  It makes no Chernoff solve at all; the baseline mode's B-window phase
  grid makes the channel and the pipeline glue the largest layers.  It
  runs the same optimizer and pipeline as ``finite-scan`` another way.
* ``mc-validate``: a small scan with the Monte Carlo cross-check in both
  modes, so it mixes the compensated and the uniform-random phase models.
  The simulator takes most of the time and sets peak memory.
"""
from __future__ import annotations

import random

WORKLOADS = ("finite-scan", "asymptotic-scan", "mc-validate")

# The reference rows in perfbench/reference/ were recorded with DEFAULT_SEED.
# HELD_OUT_SEED is kept for confirming a claimed gain on a seed that was not
# used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Two full simulator chunks (the simulator works in chunks of 2**21 windows),
# so peak memory is that of a large run while a scan stays short.
MC_WINDOWS = 1 << 22


def _axis(rng: random.Random, points: int, step_lo: float, step_hi: float,
          start_hi: float) -> list[float]:
    """[start, stop, step] giving exactly ``points`` distances."""
    start = round(rng.uniform(0.0, start_hi), 3)
    step = round(rng.uniform(step_lo, step_hi), 3)
    return [start, round(start + (points - 0.5) * step, 3), step]


def _blocks(rng: random.Random) -> list[str]:
    """One block size drawn log-uniformly in each decade of 1e10-1e14."""
    return [f"{10.0 ** rng.uniform(low, low + 1.0):.6e}" for low in (10.0, 11.0, 12.0, 13.0)]


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The scan config of one workload for one seed.

    ``tiny`` shrinks the scan and the search grid for the self-test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    config = {
        "channel": {"alpha_f": 0.2, "eta_d": 0.3,
                    "p_d": 10.0 ** rng.uniform(-9.5, -8.5),
                    "e_d": rng.uniform(0.03, 0.05)},
        "source": {"av0": 0.99999999, "bv0": 0.99999999, "fluct": 0.1},
        "security": {"eps_coh": 1e-10, "f": 1.1, "d": 8},
        "search": {"px_range": [0.01, 0.99], "mu_range": [1e-4, 1.0],
                   "grid": [6, 6] if tiny else [20, 20],
                   "refine_rounds": 1 if tiny else 2, "shrink": 4.0},
        "seed": seed,
    }
    if workload == "finite-scan":
        config["scan"] = {"distance": _axis(rng, 1 if tiny else 3, 80.0, 96.0, 8.0),
                          "blocks": _blocks(rng), "modes": ["improved"]}
    elif workload == "asymptotic-scan":
        config["scan"] = {"distance": _axis(rng, 2 if tiny else 13, 17.0, 19.5, 8.0),
                          "blocks": ["asymptotic"],
                          "modes": ["improved", "baseline"]}
    else:
        config["scan"] = {"distance": _axis(rng, 1 if tiny else 3, 20.0, 30.0, 10.0),
                          "blocks": ["asymptotic"],
                          "modes": ["improved", "baseline"]}
        config["mc_validate"] = True
        config["mc_windows"] = (1 << 18) if tiny else MC_WINDOWS
    return config
