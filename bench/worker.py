"""Run one workload's CLI commands in this process and record times and checks.

Started by run.py in a fresh interpreter (so that its peak RSS is the
workload's), with PYTHONPATH pointing at the checkout's `src/` and the BLAS
thread count pinned in the environment.  Every command goes through the
public entry point `spikedrf.cli.main` with `--jobs 1` where it applies.

A pass runs the workload's commands once.  Without tracing, passes repeat
while the next one is expected to end within `--seconds`.  With tracing, one
untraced pass is followed by one traced pass, and the difference between
their command times is the tracing overhead (the untraced pass also pays the
process's warm-up, so short runs can show a negative overhead).  Command
times are reported at a fixed host speed (speed.py), with the wall times
kept beside them.  The result, a JSON file, holds the per-command times of
every pass, the operations attempted and failed with the failure reasons,
and (traced) the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed as speeds  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from spikedrf import cli  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference"


class Pass:
    """Command times and operation tally of one pass over a workload."""

    def __init__(self, work: Path, log, tracer: tracing.Tracer | None = None):
        self.work = work
        self.log = log
        self.tracer = tracer
        self.windows = []  # (role, start, end, seconds of benchmark work inside) of each command
        self.tally = checks.Tally()
        self.command_spans = []  # (role, first span, end span) of each traced command

    def command(self, role: str, argv: list) -> bool:
        """Run one CLI command, timing it under `role`; False when it crashed or exited non-zero."""
        self.log.write(f"$ spikedrf {' '.join(argv)}\n")
        self.log.flush()
        out = io.StringIO()
        first_span = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if self.tracer:
                    code = self.tracer.call("cli.main", cli.main, (argv,), {})
                else:
                    code = cli.main(argv)
        except Exception:  # a crash is a failed operation, and the run goes on
            out.write(traceback.format_exc())
            code = None
        end = time.perf_counter()
        self.log.write(out.getvalue())
        bench_s = 0.0
        if self.tracer:
            self.command_spans.append((role, first_span, len(self.tracer.spans)))
            bench_s = sum(s[2] - s[1] for s in self.tracer.spans[first_span:] if s[0] == tracing.GEMM_REF)
        self.windows.append((role, start, end, bench_s))
        if code != 0:
            self.log.write(f"exit code {code}\n")
        return code == 0

    def account(self, role: str, ok: bool, items: checks.Tally, reasons=()) -> None:
        """Count the command itself (failed if it exited non-zero or any check failed) and its items."""
        problems = list(reasons) + items.reasons
        self.tally.add(ok and not problems and items.failed == 0,
                       f"{role}: " + ("non-zero exit; " if not ok else "") + "; ".join(problems[:3]))
        self.tally.merge(items)

    def times(self, speed: speeds.Speedometer) -> dict:
        """Role -> command times at the reference host speed, less the benchmark's own work."""
        times = {}
        for role, start, end, bench_s in self.windows:
            times.setdefault(role, []).append(speed.adjusted(start, end, bench_s))
        return times

    def wall_times(self) -> dict:
        times = {}
        for role, start, end, _ in self.windows:
            times.setdefault(role, []).append(end - start)
        return times

    def e2e_seconds(self, speed: speeds.Speedometer) -> float:
        return sum(sum(v) for v in self.times(speed).values())


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, when numpy ships a scipy-openblas build."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def _missing(n: int, what: str) -> checks.Tally:
    tally = checks.Tally()
    for i in range(n):
        tally.add(False, f"{what} {i}: no output")
    return tally


def pass_theory_spectrum(run: Pass, inputs: dict) -> None:
    reference = {name: (REFERENCE / f"spectrum_{name}.csv").read_text() for name in ("fig1_k1", "fig1_k4")}

    def cold(role: str, name: str) -> str:
        cache = run.work / f"cache_{name}.jsonl"
        cache.unlink(missing_ok=True)  # each cold command starts from a fresh cache file
        out = run.work / f"spectrum_{name}"
        ok = run.command(role, ["theory-spectrum", str(inputs[name]), "--grid", wl.SPECTRUM_GRID,
                                "--out", str(out), "--cache", str(cache)])
        text = _read(out / "theory_spectrum.csv")
        run.account(role, ok, checks.check_density_csv(text, reference[name]))
        return text

    def reruns(cold_csv: str) -> None:
        points = checks.check_density_csv(cold_csv, reference["fig1_k4"])
        for i in range(wl.CACHED_RERUNS):
            out = run.work / f"spectrum_fig1_k4_rerun{i}"
            ok = run.command("rerun", ["theory-spectrum", str(inputs["fig1_k4"]), "--grid", wl.SPECTRUM_GRID,
                                       "--out", str(out), "--cache", str(run.work / "cache_fig1_k4.jsonl")])
            if _read(out / "theory_spectrum.csv") == cold_csv:
                run.account("rerun", ok, points)
            else:
                run.account("rerun", ok, _missing(wl.SPECTRUM_POINTS, "cached density point"),
                            ["cached CSV differs from the cold run's"])

    # the cached reruns are short, so half of them run on each side of the k=1 command
    cold_k4 = cold("second", "fig1_k4")
    reruns(cold_k4)
    cold("first", "fig1_k1")
    reruns(cold_k4)


def pass_generror_sweep(run: Pass, inputs: dict) -> None:
    csvs = {}
    for role, name in (("first", "fig2_k1"), ("second", "fig2_k4")):
        out = run.work / f"generror_{name}"
        ok = run.command(role, ["theory-generror", str(inputs[name]), "--alpha-sweep", wl.ALPHA_SWEEP,
                                "--out", str(out)])
        csvs[name] = _read(out / "theory_generror.csv")
        reference = (REFERENCE / f"generror_{name}.csv").read_text()
        run.account(role, ok, checks.check_generror_csv(csvs[name], reference))
    out = run.work / "generror_fig2_k1_rerun"
    ok = run.command("rerun", ["theory-generror", str(inputs["fig2_k1"]), "--alpha-sweep", wl.ALPHA_SWEEP,
                               "--out", str(out)])
    same = _read(out / "theory_generror.csv") == csvs["fig2_k1"]
    items = checks.check_generror_csv(csvs["fig2_k1"], (REFERENCE / "generror_fig2_k1.csv").read_text()) \
        if same else _missing(wl.ALPHA_ROWS, "rerun alpha row")
    run.account("rerun", ok, items, [] if same else ["rerun CSV differs from the first run's"])


def _simulate(run: Pass, role: str, config: Path, out: Path) -> tuple:
    ok = run.command(role, ["simulate", str(config), "--seeds", "1", "--spectrum", "--jobs", "1", "--out", str(out)])
    artifact = _read(out / "run_seed000.json")
    seed = checks.Tally()
    try:
        problems = checks.simulation_problems(json.loads(artifact), json.loads(config.read_text())["p"])
    except ValueError as exc:
        problems = [f"unreadable run artifact: {exc}"]
    seed.add(not problems, f"{role} seed 0: " + "; ".join(problems))
    return ok, seed, artifact + _read(out / "aggregate.json")


def pass_simulate(run: Pass, inputs: dict) -> None:
    ok, seed, first = _simulate(run, "first", inputs["fig1_k1"], run.work / "simulate_default")
    run.account("first", ok, seed)
    ok, seed, _ = _simulate(run, "second", inputs["fig1_k1_n0_30d"], run.work / "simulate_n0_30d")
    run.account("second", ok, seed)
    ok, seed, again = _simulate(run, "rerun", inputs["fig1_k1"], run.work / "simulate_default_rerun")
    run.account("rerun", ok, seed, [] if again == first else ["same-seed rerun differs from the first run"])


PASSES = {"theory-spectrum": pass_theory_spectrum, "generror-sweep": pass_generror_sweep, "simulate": pass_simulate}

def warm_up(workload: str, inputs: dict, work: Path, log) -> None:
    """A small untimed command before the first pass, so that the first timed command does not also pay
    the process's first calls into the theory; the simulation's first calls are a negligible part of a command."""
    out = str(work / "warm_up")
    if workload == "theory-spectrum":
        cache = work / "warm_up_cache.jsonl"
        cache.unlink(missing_ok=True)
        argv = ["theory-spectrum", str(inputs["fig1_k4"]), "--grid", "0.001:3:20", "--out", out, "--cache", str(cache)]
    elif workload == "generror-sweep":
        argv = ["theory-generror", str(inputs["fig2_k4"]), "--alpha-sweep", "1:2:2", "--out", out]
    else:
        return
    Pass(work, log).command("warm-up", argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    inputs = {p.stem: p for p in args.inputs.glob("*.json")}
    run_pass = PASSES[args.workload]
    passes = []
    core = speeds.pin_to_one_core()
    speed = speeds.Speedometer(wl.SPEED_PROBE[args.workload])
    speed.start()
    try:
        with open(args.work / "commands.log", "w") as log:
            warm_up(args.workload, inputs, args.work, log)
            start = time.perf_counter()
            while True:
                begun = time.perf_counter()
                p = Pass(args.work, log)
                run_pass(p, inputs)
                passes.append(p)
                took = time.perf_counter() - begun
                if args.trace or time.perf_counter() - start + took > args.seconds:
                    break
            if args.trace:
                tr = tracing.Tracer()
                traced = Pass(args.work, log, tr)
                tr.install()
                try:
                    run_pass(traced, inputs)
                finally:
                    tr.uninstall()
    finally:
        speed.stop()
    result = {"passes": [{"times": p.times(speed), "wall_times": p.wall_times(), "attempted": p.tally.attempted,
                          "failed": p.tally.failed} for p in passes]}
    probe_s = [s[1] for s in speed.samples]
    result["speed"] = {"pinned_core": core, "probe": wl.SPEED_PROBE[args.workload],
                       "reference_probe_s": speed.reference_s, "samples": len(probe_s),
                       "probe_s_median": statistics.median(probe_s), "sampling_s": sum(s[2] for s in speed.samples)}
    if args.trace:
        tr.write(args.work / "spans.csv")
        untraced_s, traced_s = passes[0].e2e_seconds(speed), traced.e2e_seconds(speed)
        result["layers"] = tracing.layer_metrics(tr.spans)
        result["layers"]["trace.overhead_s"] = traced_s - untraced_s
        result["layers"]["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        result["layers"]["trace.spans"] = len(tr.spans)
        result["traced_pass"] = {"times": traced.times(speed), "wall_times": traced.wall_times()}
        # per command, named as in the baseline; commands repeated under one role give medians
        by_role = {}
        for role, i, j in traced.command_spans:
            by_role.setdefault(role, []).append(tracing.layer_metrics(tracing.slice_spans(tr.spans, i, j)))
        result["layers_by_command"] = {
            wl.ROLE_NAMES[args.workload][role].removesuffix("_s"):
                {k: statistics.median(m[k] for m in ms) for k in ms[0] if any(m[k] for m in ms)}
            for role, ms in by_role.items()}
    tally = checks.Tally()
    for p in passes + ([traced] if args.trace else []):
        tally.merge(p.tally)
    config = json.loads(next(iter(inputs.values())).read_text())
    result["environment"] = {"workload": args.workload, "workload_seed": config["seed"], **environment()}
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.reasons[:50])
    for key, field in (("median_s", "times"), ("wall_median_s", "wall_times")):
        result[key] = {role: statistics.median([t for p in result["passes"] for t in p[field][role]])
                       for role in result["passes"][0][field]}
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
