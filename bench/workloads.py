"""Workload inputs: the experiment configs each workload feeds to the CLI.

The configs are the paper's Fig.-1 setting (d=1365, p=2048, n=1092,
relu/sin, eta~=3.3, lambda=0.01) and the Fig.-2 setting (relu/tanh,
eta~=2), each with the k=1 and the k=4 spike vocabulary.  The workload seed
only sets the config's `seed` field: it changes the simulation's random
draws and the config hash, never the theory's numbers, so the committed
theory references hold for every seed.
"""
from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("theory-spectrum", "generror-sweep", "simulate")
# the CLI validates theory commands with for_theory=True and `simulate` without
FOR_THEORY = {"theory-spectrum": True, "generror-sweep": True, "simulate": False}
# the speed probe that matches each workload's commands (speed.py): small-array theory, BLAS-bound simulation
SPEED_PROBE = {"theory-spectrum": "small_ops", "generror-sweep": "small_ops", "simulate": "gemm"}

D, P, N = 1365, 2048, 1092
K1 = {"zeta": [1.0], "pi": [1.0]}
K4 = {"zeta": [1.0, -0.5, 1.5, -2.0], "pi": [0.7, 0.1, 0.1, 0.1]}

SPECTRUM_GRID = "0.001:3:400"
SPECTRUM_POINTS = 400
ALPHA_SWEEP = "0.5:4:8"
ALPHA_ROWS = 8
CACHED_RERUNS = 8  # per group of reruns; one lasts ~0.1 s, so take the median of many


def _fig1(seed: int, vocab: dict, n0: int | None = None) -> dict:
    cfg = {"d": D, "p": P, "n": N, "eta_tilde": 3.3, "lambda": 0.01, "seed": seed,
           "activation": "relu", "link": "sin", "vocab": vocab}
    if n0 is not None:
        cfg["n0"] = n0
    return cfg


def _fig2(seed: int, vocab: dict) -> dict:
    return {"d": D, "p": P, "n": D, "n0": 30 * D, "eta_tilde": 2.0, "lambda": 0.01, "seed": seed,
            "activation": "relu", "link": "tanh", "vocab": vocab}


def configs(workload: str, seed: int) -> dict:
    """Config name -> config dict for one workload and seed."""
    seed = abs(int(seed)) % 2**32
    if workload == "theory-spectrum":
        return {"fig1_k1": _fig1(seed, K1), "fig1_k4": _fig1(seed, K4)}
    if workload == "generror-sweep":
        return {"fig2_k1": _fig2(seed, K1), "fig2_k4": _fig2(seed, K4)}
    if workload == "simulate":
        # default n0 = ceil(d^1.2) = 5784, and the n0 = 30 d of the Fig.-2 acceptance runs
        return {"fig1_k1": _fig1(seed, K1), "fig1_k1_n0_30d": _fig1(seed, K1, n0=30 * D)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's configs as JSON files; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload, seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        paths[name] = path
    return paths



# the name each command role of a workload has in the result files and the baseline
ROLE_NAMES = {
    "theory-spectrum": {"first": "spectrum_k1_s", "second": "spectrum_k4_s", "rerun": "spectrum_cached_s"},
    "generror-sweep": {"first": "generror_k1_s", "second": "generror_k4_s", "rerun": "generror_k1_rerun_s"},
    "simulate": {"first": "simulate_s", "second": "simulate_n0_30d_s", "rerun": "simulate_rerun_s"},
}
