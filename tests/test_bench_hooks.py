"""The benchmark's trace hooks (bench/tracer.py) must still find and wrap what they name.

The tracer wraps functions and cache methods of spikedrf by name from outside
the package; a rename there would otherwise break only traced benchmark runs.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from spikedrf import cli
from spikedrf.cache import FixedPointCache

from test_cli import TINY

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(cache_methods) -> dict:
    """Every module-level binding of every spikedrf module, and the traced cache methods."""
    found = {(name, attr): value for name, module in list(sys.modules.items())
             if name == "spikedrf" or name.startswith("spikedrf.") for attr, value in vars(module).items()}
    found.update({("FixedPointCache", m): FixedPointCache.__dict__[m] for m in cache_methods})
    return found


def traced_cli_run(tmp_path, *argv) -> dict:
    """Run one CLI command on the tiny config under the tracer; checks that uninstalling restores every binding."""
    tracing = load_tracer()
    for layer in tracing.TRACED:
        importlib.import_module(f"spikedrf.{layer}")
    before = bindings(tracing.CACHE_METHODS)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([argv[0], str(config), *argv[1:], "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    after = bindings(tracing.CACHE_METHODS)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    return tracing.layer_metrics(tracer.spans)


def test_tracer_counts_a_one_alpha_generror_run(tmp_path):
    metrics = traced_cli_run(tmp_path, "theory-generror")
    # the tracer counts solve_fixed_point calls under tau2_tau3, and the four tilted solves are one solve_batch
    # call, which it does not wrap: the manifest's solver block counts them (5 solves per alpha)
    assert metrics["generror.perturbed_solves"] == 0
    # one k=1 table build: shifted_coeffs and residual_table, each reached through the attribute the tracer patches
    assert metrics["quadrature.calls"] == 2
    assert metrics["detequiv.cold_solves"] == 1 and metrics["detequiv.map_calls"] > 0


def test_tracer_counts_a_theory_spectrum_run(tmp_path):
    # the density grid calls the map through solve_paths, without solve_fixed_point; it reads the cache
    # per point (20 points, 3 eps levels) and appends once per eps level with new states
    argv = ("theory-spectrum", "--grid", "0.02:2.0:20", "--cache", str(tmp_path / "fixed_point.cache"))
    metrics = traced_cli_run(tmp_path, *argv)
    assert metrics["spectrum.points"] == 20 and metrics["spectrum.unconverged"] == 0
    assert metrics["detequiv.map_calls"] > 0
    assert (metrics["cache.get_calls"], metrics["cache.hits"], metrics["cache.put_calls"]) == (60, 0, 3)
    rerun = traced_cli_run(tmp_path, *argv)
    assert (rerun["cache.hits"], rerun["cache.put_calls"]) == (60, 0)


def test_tracer_times_every_simulate_layer(tmp_path):
    # the tracer binds gradient_step's X0, W0 and chunk by name to time its reference GEMM pair
    metrics = traced_cli_run(tmp_path, "simulate", "--spectrum")
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = [name for name in declared if name.startswith("simulate.") and name.endswith("_s")]
    assert len(layers) == 10 and all(metrics[name] > 0 for name in layers)
    assert metrics["simulate.gradient_step_gemm_ratio"] > 0
