"""Span tracing of the spikedrf layers, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer, in every
spikedrf module that binds them, with wrappers that record one span per
call: name, start, end, parent span, whether it raised, and a small
annotation (cold solve, cache hit, grid points).  Spans stay in memory and
are written out when the run ends; `layer_metrics` derives self times and
the per-layer metrics from them.  `uninstall()` restores the originals.

Layer time is always the inclusive time of a layer's calls that are not
nested in a call of the same name; `<layer>.self_s` is the time of the
layer's entry calls not covered by any traced call below them.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> public functions wrapped (module spikedrf.<layer>)
TRACED = {
    "model": ("validate_config",),
    "quadrature": ("shifted_coeffs", "residual_table"),
    "detequiv": ("build_problem", "solve_fixed_point", "fixed_point_map"),
    "spectrum": ("density_grid",),
    "generror": ("asymptotic_tau", "tau2_tau3"),
    "simulate": ("run_experiment", "sample_data", "gradient_step", "features", "extended_features",
                 "ridge_fit", "empirical_generror", "empirical_tau", "bulk_spectrum", "spike_deviation"),
}
CACHE_METHODS = {"__init__": "cache.load", "get": "cache.get", "put": "cache.put"}
GEMM_REF = "bench.gemm_ref"  # benchmark work inside a traced run, excluded from every layer


def gemm_pair(X0: np.ndarray, W0: np.ndarray, chunk: int) -> None:
    """The two GEMMs of one gradient step, on the same arrays and row chunks, with nothing else."""
    for start in range(0, X0.shape[0], chunk):
        x = X0[start:start + chunk]
        pre = x @ W0.T
        pre.T @ x


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, raised, annotation)
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def call(self, name, fn, args, kwargs, annotate=None, note=None):
        """Run fn as span `name`; its note is `annotate(result)` on success, else `note`."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        raised, result = True, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if annotate and not raised:
                note = annotate(result)
            self.spans[index] = (name, start, end, parent, raised, note)

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        import spikedrf.cache
        import spikedrf.cli  # noqa: F401  (binds the functions it imports by name)

        replacements = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"spikedrf.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                replacements[id(original)] = (original, self._wrapper(f"{layer}.{fname}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "spikedrf" and not modname.startswith("spikedrf."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and value is replacements[id(value)][0]:
                    setattr(module, attr, replacements[id(value)][1])
                    self._restore.append((module, attr, value))
        cls = spikedrf.cache.FixedPointCache
        for method, name in CACHE_METHODS.items():
            original = cls.__dict__[method]
            annotate = (lambda state: state is not None) if method == "get" else None
            setattr(cls, method, self.wrap(name, original, annotate))
            self._restore.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, name, fn):
        if name == "detequiv.solve_fixed_point":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                cold = bound.get("warm_start") is None and bound.get("init_state") is None
                return self.call(name, fn, args, kwargs, note=cold)

            return traced
        if name == "spectrum.density_grid":
            return self.wrap(name, fn, lambda curve: (len(curve.grid), int(np.sum(~curve.converged))))
        if name == "simulate.gradient_step":
            sig = inspect.signature(fn)

            # the reference GEMM pair runs on either side of the step, so that host speed drift cancels
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                gemm_args = (bound.arguments["X0"], bound.arguments["W0"], bound.arguments["chunk"])
                self.call(GEMM_REF, gemm_pair, gemm_args, {})
                result = self.call(name, fn, args, kwargs)
                self.call(GEMM_REF, gemm_pair, gemm_args, {})
                return result

            return traced
        return self.wrap(name, fn)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,raised,note\n")
            for i, (name, start, end, parent, raised, note) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{int(raised)},{'' if note is None else note}\n")


def slice_spans(spans, first: int, end: int) -> list:
    """The spans recorded in [first, end), with parents outside the slice cut to -1."""
    return [(name, start, stop, parent - first if parent >= first else -1, raised, note)
            for name, start, stop, parent, raised, note in spans[first:end]]


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (plain numbers, keyed as in BENCHMARK.json) from recorded spans."""
    covered = defaultdict(float)  # span index -> time covered by its direct children
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def name_of(i):
        return spans[i][0] if i >= 0 else ""

    def top(name):
        """Spans of `name` not nested in a span of the same name."""
        return [(i, spans[i]) for i in by_name[name] if name_of(spans[i][3]) != name]

    def total(name) -> float:
        return sum(s[2] - s[1] for _, s in top(name))

    def self_time(*names) -> float:
        return sum(s[2] - s[1] - covered[i] for n in names for i, s in top(n))

    solves = top("detequiv.solve_fixed_point")
    solve_ms = [1e3 * (s[2] - s[1]) for _, s in solves]
    maps = [spans[i] for i in by_name["detequiv.fixed_point_map"]]
    map_s = sum(s[2] - s[1] for s in maps)
    quad = [s for s in spans if s[0].startswith("quadrature.") and not name_of(s[3]).startswith("quadrature.")]
    grids = [s[5] for _, s in top("spectrum.density_grid") if s[5] is not None]
    gets = top("cache.get")
    hits = sum(1 for _, s in gets if s[5])
    step_s, gemm_s = total("simulate.gradient_step"), total(GEMM_REF)
    m = {
        "detequiv.map_calls": len(maps),
        "detequiv.map_calls_per_solve": len(maps) / len(solves) if solves else 0.0,
        "detequiv.map_us_per_call": 1e6 * map_s / len(maps) if maps else 0.0,
        "detequiv.map_s": map_s,
        "detequiv.solves": len(solves),
        "detequiv.cold_solves": sum(1 for _, s in solves if s[5]),
        "detequiv.solve_s": sum(solve_ms) / 1e3,
        "detequiv.solve_ms_p50": _percentile(solve_ms, 50),
        "detequiv.solve_ms_p99": _percentile(solve_ms, 99),
        "detequiv.solve_failures": sum(1 for _, s in solves if s[4]),
        "detequiv.build_problem_calls": len(top("detequiv.build_problem")),
        "detequiv.build_problem_s": total("detequiv.build_problem"),
        "quadrature.calls": len(quad),
        "quadrature.s": sum(s[2] - s[1] for s in quad),
        "spectrum.density_grid_s": total("spectrum.density_grid"),
        "spectrum.self_s": self_time("spectrum.density_grid"),
        "spectrum.points": sum(g[0] for g in grids),
        "spectrum.unconverged": sum(g[1] for g in grids),
        "generror.asymptotic_tau_s": total("generror.asymptotic_tau"),
        "generror.tau2_tau3_s": total("generror.tau2_tau3"),
        "generror.perturbed_solves": sum(1 for _, s in solves if name_of(s[3]) == "generror.tau2_tau3"),
        "generror.self_s": self_time("generror.asymptotic_tau", "generror.tau2_tau3"),
        "cache.load_s": total("cache.load"),
        "cache.get_calls": len(gets),
        "cache.hits": hits,
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.get_s": total("cache.get"),
        "cache.put_calls": len(top("cache.put")),
        "cache.put_s": total("cache.put"),
        "simulate.gradient_step_s": step_s,
        "simulate.gradient_step_gemm_ratio": 2 * step_s / gemm_s if gemm_s else 0.0,
        "simulate.self_s": self_time("simulate.run_experiment"),
        "model.validate_s": total("model.validate_config"),
        "cli.self_s": self_time("cli.main"),
    }
    for fname in TRACED["simulate"]:
        if fname not in ("run_experiment", "gradient_step"):
            m[f"simulate.{fname}_s"] = total(f"simulate.{fname}")
    return m
