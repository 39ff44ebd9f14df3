"""spikedrf benchmark: end-to-end CLI times, set-up time, peak memory and output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configs are made from the
seed, then set-up is timed in fresh interpreters, then a fresh worker
process (bench/worker.py) runs the workload's commands through
`spikedrf.cli.main` with the BLAS thread count pinned.  Set-up and command
times are scaled to a fixed host speed (bench/speed.py).  With --trace 0 the
last stdout line reports every end-to-end metric of BENCHMARK.json; with
--trace 1 it reports every per-layer metric, from a separate traced pass.
Everything the run writes goes under `.bench_out/<workload>/`; the full
result, with the environment record, is `result_seed<N>_trace<T>.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed as speeds  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


# One BLAS thread, so that times depend on one core only; on 2 cores a second
# thread makes the simulation ~25% faster and the theory no faster.
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["SPIKEDRF_JOBS"] = "1"
    return env


def run_child(argv: list, deadline: float, stdout=subprocess.DEVNULL) -> tuple:
    """Run a child to completion; returns (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=subprocess.STDOUT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            return None, time.perf_counter() - start, 0.0
        time.sleep(0.005)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def counter_mismatches(workload: str, layers: dict, units: dict) -> list:
    """Integer counters that differ from the committed reference run (they must repeat exactly)."""
    path = HERE / "reference" / "counters.json"
    reference = json.loads(path.read_text()).get(workload, {}) if path.exists() else {}
    return sorted(name for name, unit in units.items()
                  if unit == "count" and name in reference and layers.get(name) != reference[name])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    if not (ROOT / "src" / "spikedrf" / "cli.py").is_file():
        print(f"error: no spikedrf sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = ROOT / ".bench_out" / args.workload
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    inputs = wl.write_inputs(args.workload, args.seed, out / "inputs")

    # set-up runs on one core beside a speedometer, and is reported at the reference speed like the commands
    cores = os.sched_getaffinity(0)
    speeds.pin_to_one_core()
    speed = speeds.Speedometer("small_ops")
    speed.start()
    setup_windows = []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            code, _, _ = run_child([str(HERE / "setup_probe.py"), str(int(wl.FOR_THEORY[args.workload])),
                                    *map(str, inputs.values())], deadline)
            if code != 0:
                print(f"error: set-up probe exited with {code}", file=sys.stderr)
                return 1
            setup_windows.append((start, time.perf_counter()))
    finally:
        speed.stop()
        os.sched_setaffinity(0, cores)  # the worker pins itself; this process waits on another core
    setup_times = [speed.adjusted(start, end) for start, end in setup_windows]

    worker_result = work / "worker_result.json"
    worker_result.unlink(missing_ok=True)
    with open(out / "worker.log", "w") as log:
        code, wall, peak_mb = run_child(
            [str(HERE / "worker.py"), "--workload", args.workload, "--inputs", str(out / "inputs"),
             "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(worker_result)],
            deadline, stdout=log)
    if code != 0 or not worker_result.exists():
        print(f"error: worker exited with {code}; see {out / 'worker.log'}", file=sys.stderr)
        return 1
    res = json.loads(worker_result.read_text())

    if args.trace:
        values = dict(res["layers"])
        mismatched = counter_mismatches(args.workload, values, wanted)
        values["trace.counter_mismatches"] = len(mismatched)
        if mismatched:
            print(f"warning: counters differ from bench/reference/counters.json: {mismatched}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "first_cmd_s": res["median_s"]["first"],
            "second_cmd_s": res["median_s"]["second"],
            "rerun_s": res["median_s"]["rerun"],
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**res["environment"], "git_sha": git_sha()},
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": [end - start for start, end in setup_windows],
        "named_s": {wl.ROLE_NAMES[args.workload][role]: t for role, t in res["median_s"].items()},
        "named_wall_s": {wl.ROLE_NAMES[args.workload][role]: t for role, t in res["wall_median_s"].items()},
        "worker_peak_rss_mb": peak_mb,
        "wall_s": time.perf_counter() - t_begin,
        "metrics": metrics,
        "worker": res,
    }
    if args.trace:
        record["counter_mismatches"] = mismatched
    (out / f"result_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for reason in res["failures"][:10]:
        print(f"failed: {reason}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
