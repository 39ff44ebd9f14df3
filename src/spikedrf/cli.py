"""Command-line front end: simulations, theory solves, and comparison reports.

`simulate`, `theory-spectrum` and `theory-generror` are one step each, and
`compare` runs those steps, so its directory holds what they write and record.
Every artifact is written through `RunManifest.add`, which lists it.

Exit codes are a stable contract: 0 success, 1 tolerance failure in a
comparison, 2 usage or configuration error, 3 unexpected crash (traceback on
stderr).  All randomness flows from the config seed; plotting is out of
scope, every artifact is JSON or CSV.  Every output artifact embeds the
config hash it was produced from, and every run manifest the package's
`__version__`.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, detequiv, generror, simulate, spectrum
from .cache import FixedPointCache
from .model import ConfigError, ExperimentConfig, validate_config

DEFAULT_KS_TOL = 0.03
DEFAULT_GENERROR_TOL = 0.05
# compare fails its spectrum check when more theory grid points than this share did not converge
MAX_UNCONVERGED_FRAC = 0.01
# failure reasons of unconverged theory points that compare's spectrum check carries
REPORTED_REASONS = 3

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


class UsageError(Exception):
    pass


@dataclass
class RunManifest:
    """What produced which artifacts of the output directory `out`; written there as manifest.json."""

    out: Path
    config_hash: str
    command: str
    outputs: list = field(default_factory=list)
    started: float = field(default_factory=time.time)
    extra: dict = field(default_factory=dict)

    def add(self, name: str, text: str) -> Path:
        """Write the artifact `name` into the output directory and list it."""
        path = self.out / name
        path.write_text(text)
        self.outputs.append(str(path))
        return path

    def write(self) -> None:
        payload = {
            "config_hash": self.config_hash,
            "command": self.command,
            "version": __version__,
            "started": self.started,
            "finished": time.time(),
            "outputs": self.outputs,
            **self.extra,
        }
        (self.out / "manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


def _load_config(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        config = ExperimentConfig.from_file(p)
    except (ConfigError, json.JSONDecodeError, KeyError, TypeError, OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"invalid config {p}: {exc}") from exc
    report = validate_config(config)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.valid:
        raise UsageError("config failed validation:\n  " + "\n  ".join(report.errors))
    return config


def _output_dir(path: str) -> Path:
    """The --out directory, created if missing; a path that cannot be one is a usage error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A comparison tolerance: a finite float > 0, so that a check can both pass and fail."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _three_numbers(text: str, form: str) -> tuple:
    """(float, float, int) from `text` in the colon-separated `form`."""
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _grid(text: str) -> tuple:
    """A density grid min:max:points: finite max > min, points >= 2."""
    lo, hi, pts = _three_numbers(text, "min:max:points")
    if not np.isfinite([lo, hi]).all() or hi <= lo or pts < 2:
        raise argparse.ArgumentTypeError(f"need finite max > min and points >= 2, got {text!r}")
    return lo, hi, pts


def _sweep(text: str) -> np.ndarray:
    """An alpha sweep start:stop:count, with finite stop >= start > 0 and count >= 1."""
    lo, hi, count = _three_numbers(text, "start:stop:count")
    if not np.isfinite([lo, hi]).all() or count < 1 or hi < lo or lo <= 0:
        raise argparse.ArgumentTypeError(f"need finite stop >= start > 0 and count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def _mean_stderr(values: list) -> tuple:
    """Mean of per-seed values and its standard error (0.0 for one seed)."""
    a = np.array(values)
    return float(a.mean()), (float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0)


# --------------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------------- #


def _simulate_one(args):
    config, seed_index, compute_spectrum = args
    res = simulate.run_experiment(config, seed_index=seed_index, compute_spectrum=compute_spectrum)
    return {
        "seed_index": seed_index,
        "config_hash": config.config_hash(),
        "config": config.to_dict(),
        "gen_error": {"mean": res.gen_error, "stderr": 0.0},  # the error is exact: no sampling error
        "tau": {
            "tau0": res.tau.tau0.tolist(),
            "tau1": res.tau.tau1.tolist(),
            "tau2": res.tau.tau2,
            "tau3": res.tau.tau3,
        },
        "spike_deviation": res.spike_dev,
        "eigenvalues": res.eigenvalues.tolist() if res.eigenvalues is not None else None,
    }


def _run_seeds(config: ExperimentConfig, seeds: int, compute_spectrum: bool, jobs: int):
    tasks = [(config, i, compute_spectrum) for i in range(seeds)]
    if jobs > 1 and seeds > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_simulate_one, tasks))  # in seed order: map yields in task order
    return [_simulate_one(t) for t in tasks]


def _simulation_step(manifest: RunManifest, config, seeds: int, compute_spectrum: bool, jobs: int):
    """The seeds' results, written as run_seedNNN.json, and aggregate.json."""
    results = _run_seeds(config, seeds, compute_spectrum, jobs)
    for res in results:
        manifest.add(f"run_seed{res['seed_index']:03d}.json", json.dumps(res, indent=2) + "\n")
    mean, stderr = _mean_stderr([r["gen_error"]["mean"] for r in results])
    pooled = [v for r in results if r["eigenvalues"] for v in r["eigenvalues"]]
    aggregate = {
        "config_hash": manifest.config_hash,
        "seeds": seeds,
        "gen_error": {"mean": mean, "stderr": stderr},
        "spike_deviation_mean": float(np.mean([r["spike_deviation"] for r in results])),
        "pooled_eigenvalue_count": len(pooled),
    }
    manifest.add("aggregate.json", json.dumps(aggregate, indent=2) + "\n")
    return results


def cmd_simulate(args, config: ExperimentConfig) -> int:
    manifest = RunManifest(_output_dir(args.out), config.config_hash(), "simulate")
    results = _simulation_step(manifest, config, args.seeds, args.spectrum, args.jobs)
    manifest.write()
    print(f"wrote {len(results)} run artifacts to {manifest.out}")
    return EXIT_OK


# --------------------------------------------------------------------------- #
# theory
# --------------------------------------------------------------------------- #


def _spectrum_csv(curve: spectrum.DensityCurve, config_hash: str) -> str:
    header = json.dumps({"config_hash": config_hash, "eps_schedule": list(curve.eps_schedule), "atom_mass": curve.atom_mass})
    lines = [f"# {header}", "lambda,density,eps_used,converged"]
    eps_used = float(curve.eps_schedule[-1])
    for lam, rho, conv in zip(curve.grid, curve.density, curve.converged):
        lines.append(f"{float(lam)!r},{float(rho)!r},{eps_used!r},{int(conv)}")
    return "\n".join(lines) + "\n"


def _spectrum_step(manifest: RunManifest, problem, grid: tuple, cache, record: dict) -> spectrum.DensityCurve:
    """The density on `grid`, written as theory_spectrum.csv; `record` gets its convergence and solver fields."""
    curve = spectrum.density_grid(problem, *grid, cache=cache)
    manifest.add("theory_spectrum.csv", _spectrum_csv(curve, manifest.config_hash))
    record.update(unconverged=int(np.sum(~curve.converged)), unconverged_reasons=curve.failures,
                  solver=curve.solver, extrapolation_gap=curve.extrapolation_gap)
    return curve


def cmd_theory_spectrum(args, config: ExperimentConfig) -> int:
    problem = detequiv.problem_from_config(config)
    try:
        cache = FixedPointCache(args.cache, problem) if args.cache else None
    except OSError as exc:
        raise UsageError(f"cannot open cache {args.cache}: {exc.strerror or exc}") from exc
    manifest = RunManifest(_output_dir(args.out), config.config_hash(), "theory-spectrum")
    curve = _spectrum_step(manifest, problem, args.grid, cache, manifest.extra)
    if cache:
        manifest.extra.update(cache_hits=cache.hits, cache_misses=cache.misses, cache_torn_lines=cache.torn_lines)
    manifest.write()
    print(f"wrote {manifest.outputs[-1]} ({args.grid[2]} rows); bulk mass {curve.mass:.4f} + atom {curve.atom_mass:.4f}")
    return EXIT_OK


def _cell(value) -> str:
    """A CSV cell: the repr of a float, or empty for a value that is missing."""
    return "" if value is None else repr(float(value))


def _sweep_csv(rows: list, config_hash: str) -> str:
    k = len(rows[0]["tau0"])
    tau0_cols = ",".join(f"tau0_{q+1}" for q in range(k))
    tau1_cols = ",".join(f"tau1_{q+1}" for q in range(k))
    lines = [
        f"# {json.dumps({'config_hash': config_hash})}",
        f"alpha,gen_error_theory,gen_error_sim_mean,gen_error_sim_stderr,{tau0_cols},{tau1_cols},tau2,tau3",
    ]
    for row in rows:
        cells = [row["alpha"], row["theory"], row.get("sim_mean"), row.get("sim_stderr")]
        cells += row["tau0"] + row["tau1"] + [row["tau2"], row["tau3"]]
        lines.append(",".join(_cell(v) for v in cells))
    return "\n".join(lines) + "\n"


def _theory_rows(problem: detequiv.DetEquivProblem, alphas, lam: float, record: dict) -> list:
    """One CSV row per alpha, by `generror.tau_sweep`; `record` gets the solver summary and the failed alphas.

    A failed alpha's row has empty theory and tau cells, and one {"alpha", "reason"} in `unconverged_reasons`.
    """
    points, record["solver"] = generror.tau_sweep(problem, alphas, lam)
    rows, failures = [], []
    for problem, tau in points:
        row = {"alpha": problem.alpha, "theory": None, "tau0": [None] * problem.k, "tau1": [None] * problem.k,
               "tau2": None, "tau3": None}
        if isinstance(tau, detequiv.FixedPointError):
            failures.append({"alpha": problem.alpha, "reason": str(tau)})
        else:
            row.update(theory=generror.expected_lambda(tau, problem), tau0=tau.tau0.tolist(), tau1=tau.tau1.tolist(),
                       tau2=tau.tau2, tau3=tau.tau3)
        rows.append(row)
    record.update(unconverged=len(failures), unconverged_reasons=failures)
    return rows


def cmd_theory_generror(args, config: ExperimentConfig) -> int:
    alphas = np.array([config.alpha]) if args.alpha_sweep is None else args.alpha_sweep
    problem = detequiv.problem_from_config(config)
    manifest = RunManifest(_output_dir(args.out), config.config_hash(), "theory-generror")
    rows = _theory_rows(problem, alphas, config.lam, manifest.extra)
    csv_path = manifest.add("theory_generror.csv", _sweep_csv(rows, manifest.config_hash))
    manifest.write()
    failed = manifest.extra["unconverged"]
    print(f"wrote {csv_path} ({len(rows)} rows)" + (f"; {failed} of {len(rows)} alphas unconverged" if failed else ""))
    return EXIT_OK


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #


def cmd_compare(args, config: ExperimentConfig) -> int:
    """The simulation step with spectra, then the spectrum step on its pooled eigenvalues and the generror step.

    The manifest keeps the two theory steps' fields as its `spectrum` and `generror` blocks.  On top come the
    pooled eigenvalues.csv, generror_compare.csv (the theory row beside the simulation's mean) and summary.json,
    whose generror check also lists the theory value, each seed's exact test error and their sample standard
    deviation (`seed_spread`, 0.0 for one seed).
    """
    manifest = RunManifest(_output_dir(args.out), config.config_hash(), "compare")
    checks = []

    # each half records a RuntimeError (SimulationError, FixedPointError, a failed numerical check of the
    # theory) as a failed check and lets the other halves run; any other exception is a crash (exit 3)
    sim_results = None
    try:
        sim_results = _simulation_step(manifest, config, args.seeds, True, args.jobs)
        pooled = np.array([v for r in sim_results for v in r["eigenvalues"]])
        manifest.add("eigenvalues.csv", "\n".join(f"{v!r}" for v in pooled.tolist()) + "\n")
    except RuntimeError as exc:
        checks.append({"name": "simulation", "error": str(exc), "passed": False})

    if sim_results is not None:
        problem = detequiv.problem_from_config(config)
        try:
            grid = args.grid or spectrum.auto_grid(pooled)
            record = manifest.extra["spectrum"] = {}
            curve = _spectrum_step(manifest, problem, grid, None, record)
            ks = spectrum.ks_distance(pooled, curve)
            unconverged = record["unconverged"]
            too_many = unconverged > MAX_UNCONVERGED_FRAC * grid[2]
            check = {"name": "spectrum_ks", "value": ks, "tol": args.tol_ks, "unconverged": unconverged,
                     "unconverged_reasons": record["unconverged_reasons"][:REPORTED_REASONS],
                     "extrapolation_gap": record["extrapolation_gap"],
                     "passed": bool(ks < args.tol_ks) and not too_many}
            if too_many:
                check["reason"] = f"{unconverged} of {grid[2]} theory grid points unconverged (bound {MAX_UNCONVERGED_FRAC:.0%})"
            checks.append(check)
        except RuntimeError as exc:
            checks.append({"name": "spectrum_ks", "error": str(exc), "passed": False})

        try:
            record = manifest.extra["generror"] = {}
            (row,) = _theory_rows(problem, [config.alpha], config.lam, record)
            if record["unconverged_reasons"]:
                checks.append({"name": "generror_rel_gap", "error": record["unconverged_reasons"][0]["reason"], "passed": False})
            else:
                errors = [r["gen_error"]["mean"] for r in sim_results]
                row["sim_mean"], row["sim_stderr"] = _mean_stderr(errors)
                manifest.add("generror_compare.csv", _sweep_csv([row], manifest.config_hash))
                gap = abs(row["theory"] - row["sim_mean"]) / row["sim_mean"]
                checks.append({"name": "generror_rel_gap", "value": gap, "tol": args.tol_generror,
                               "theory": row["theory"], "seed_errors": errors,
                               "seed_spread": float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0,
                               "passed": bool(gap < args.tol_generror)})
        except RuntimeError as exc:
            checks.append({"name": "generror_rel_gap", "error": str(exc), "passed": False})

    passed = bool(checks) and all(c["passed"] for c in checks)
    summary = {"config_hash": manifest.config_hash, "passed": passed, "checks": checks}
    manifest.add("summary.json", json.dumps(summary, indent=2) + "\n")
    manifest.write()
    for c in checks:
        tail = f"value={c.get('value', float('nan')):.5g} tol={c.get('tol')}" if "value" in c else c.get("error", "")
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} {tail} {c.get('reason', '')}".rstrip())
    return EXIT_OK if passed else EXIT_TOLERANCE


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


@functools.cache  # one parser per process: parse_args keeps no parsed value in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikedrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo of the two-step pipeline")
    sim.add_argument("config")
    sim.add_argument("--seeds", type=_positive_int, default=1)
    sim.add_argument("--out", default="out")
    sim.add_argument("--spectrum", action="store_true", help="also record bulk eigenvalues")
    sim.add_argument("--jobs", type=_positive_int, default=1)
    sim.set_defaults(func=cmd_simulate)

    ts = sub.add_parser("theory-spectrum", help="deterministic bulk density on a grid")
    ts.add_argument("config")
    ts.add_argument("--grid", type=_grid, required=True, help="min:max:points")
    ts.add_argument("--out", default="out")
    ts.add_argument("--cache", default=None, help="fixed-point cache file (one line of hex records per eps level)")
    ts.set_defaults(func=cmd_theory_spectrum)

    tg = sub.add_parser("theory-generror", help="asymptotic test error (optionally over an alpha sweep)")
    tg.add_argument("config")
    tg.add_argument("--alpha-sweep", type=_sweep, default=None, help="start:stop:count")
    tg.add_argument("--out", default="out")
    tg.set_defaults(func=cmd_theory_generror)

    cp = sub.add_parser("compare", help="simulation vs theory with pass/fail tolerances")
    cp.add_argument("config")
    cp.add_argument("--seeds", type=_positive_int, default=3)
    cp.add_argument("--out", default="out")
    cp.add_argument("--grid", type=_grid, default=None, help="density grid min:max:points (default: auto from eigenvalues)")
    cp.add_argument("--tol-ks", type=_tolerance, default=DEFAULT_KS_TOL)
    cp.add_argument("--tol-generror", type=_tolerance, default=DEFAULT_GENERROR_TOL)
    cp.add_argument("--jobs", type=_positive_int, default=1)
    cp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, _load_config(args.config))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
