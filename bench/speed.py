"""Command times at a fixed host speed, from a speed probe sampled during the commands.

On a shared host a core's speed changes while a command runs: on the 2-vCPU
VM the benchmark was built on, each core switches between two levels about
1.3-1.6x apart, for periods from under a second to minutes, and the two
cores switch independently.  A 10 s command's wall time therefore depends on
how long its core spent at the slow level, and medians over runs cannot
remove that.  Instead, the worker is pinned to one core and a `Speedometer`
thread times a fixed probe on that core every INTERVAL_S, also while the
command is inside a long C call (a GEMM releases the GIL).  A command's time
is then reported as

    (wall - time spent sampling) * reference probe time / mean probe time during the command

that is, the seconds the command would take on a core where the probe takes
its reference time.  The slow level costs interpreter-bound code more than
BLAS-bound code (about 1.6x against 1.3x for a GEMM), so each workload names
the probe that matches its commands (workloads.SPEED_PROBE): "small_ops",
the shape of one step of the theory's fixed-point map on fixed random data (a
4 x 4 complex solve, an einsum and products over 201 quadrature nodes) plus
the small Python objects the solver makes around it, or "gemm", one
128 x 128 matrix product like the simulation's.  On that VM, scaling by
"small_ops" cut the spread of 61 repeated k=1 density-grid commands
(IQR / median) from 0.15 to 0.04; the map-shaped part alone gave 0.05.  A sample takes
the best of PROBE_REPEATS runs, so that the cache state the command leaves
behind, or a time slice lost to the command's thread, does not count as
slowness.
"""
from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.025
PROBE_REPEATS = 3
MIN_SAMPLES = 5  # a shorter command borrows the samples nearest to it in time

_RNG = np.random.default_rng(0)
_V = _RNG.random((4, 4)) + 1j * _RNG.random((4, 4))
_B = _RNG.random(4) + 1j
_C = _RNG.random((201, 4))
_R = _RNG.random((201, 4))
_G = _RNG.random((128, 128))


@dataclass
class _Point:
    x: float
    z: complex
    rho: tuple


def small_ops_probe() -> float:
    L = np.linalg.solve(np.eye(4, dtype=complex) + _V * _B[None, :], _V)
    psi = np.diag(_B) - L * np.outer(_B, _B)
    weights = 1.0 / (1.0 + np.einsum("mq,qr,mr->m", _C, psi, _C) + _R @ _B)
    total = abs((_C.T @ (_C * weights[:, None])).sum())
    latest = {}
    for i in range(60):
        point = _Point(float(i), complex(i, 1.0), (i, i + 1))
        latest[i % 7] = point
        total += abs(point.z) + point.rho[1]
    return total + len(latest)


def gemm_probe() -> np.ndarray:
    return _G @ _G


PROBES = {"small_ops": small_ops_probe, "gemm": gemm_probe}
# each probe's typical time on one core of a 2-vCPU Intel Xeon VM
REFERENCE_PROBE_S = {"small_ops": 150e-6, "gemm": 150e-6}


def pin_to_one_core() -> int:
    """Pin this process (and the threads it starts later) to the first core it may use."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Speedometer:
    """Samples the probe's time from a thread that shares the pinned core with the command."""

    def __init__(self, probe: str):
        self.probe = PROBES[probe]
        self.reference_s = REFERENCE_PROBE_S[probe]
        self.samples = []  # (start, best probe seconds, seconds the sample took)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            best = float("inf")
            for _ in range(PROBE_REPEATS):
                t = time.perf_counter()
                self.probe()
                best = min(best, time.perf_counter() - t)
            self.samples.append((start, best, time.perf_counter() - start))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling, after a short tail so that the last command has neighbours on both sides."""
        time.sleep(MIN_SAMPLES * INTERVAL_S)
        self._stop.set()
        self._thread.join()

    def adjusted(self, start: float, end: float, exclude_s: float = 0.0) -> float:
        """Seconds the command [start, end] would take at the reference speed, less `exclude_s`."""
        inside = [s for s in self.samples if start <= s[0] <= end]
        sampling_s = sum(s[2] for s in inside)
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        probe_s = statistics.fmean(s[1] for s in inside)
        return (end - start - sampling_s - exclude_s) * self.reference_s / probe_s
