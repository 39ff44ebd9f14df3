import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spikedrf
from spikedrf import cache as fixed_point_cache
from spikedrf import cli, detequiv, generror, quadrature, simulate, spectrum
from spikedrf.detequiv import FixedPointError
from spikedrf.model import ACTIVATIONS, ActivationSpec

REPO = Path(__file__).resolve().parents[1]
TINY = {
    "d": 60,
    "p": 90,
    "n": 48,
    "n0": 300,
    "eta_tilde": 1.0,
    "lambda": 0.1,
    "seed": 77,
    "activation": "tanh",
    "link": "sin",
    "vocab": {"zeta": [1.0], "pi": [1.0]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


IMPORT_PROBE = """
import json, sys
from spikedrf import cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
after_import = loaded()
config, out = sys.argv[1:]
assert cli.main(["theory-spectrum", config, "--grid", "0.02:2.0:20", "--out", out + "/spectrum"]) == cli.EXIT_OK
assert cli.main(["theory-generror", config, "--alpha-sweep", "0.5:2:3", "--out", out + "/generror"]) == cli.EXIT_OK
print(json.dumps({"after_import": after_import, "after_theory": loaded()}))
"""


def test_theory_commands_load_no_scipy(config_path, tmp_path):
    # scipy costs a fresh CLI call more start-up than a theory command's work; only the
    # simulation's ridge solve and the erf activation import it, on first use
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config_path), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"after_import": [], "after_theory": []}


def test_missing_config_exits_2(tmp_path, capsys):
    rc = run("simulate", tmp_path / "nope.json", "--out", tmp_path / "out")
    assert rc == cli.EXIT_USAGE
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_and_unknown_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", bad, "--out", tmp_path / "o1") == cli.EXIT_USAGE
    bad.write_text(json.dumps({**TINY, "surplus": 3}))
    assert run("simulate", bad, "--out", tmp_path / "o2") == cli.EXIT_USAGE
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert run("simulate", bad, "--out", tmp_path / "o3") == cli.EXIT_USAGE
    assert run("simulate", tmp_path, "--out", tmp_path / "o4") == cli.EXIT_USAGE  # a directory


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "changes",
    [{"seed": -1}, {"d": 60.9}, {"n0": True}, {"lambda": float("nan")},
     {"eta_tilde": True}, {"lambda": True}, {"vocab": {"zeta": [1.0], "pi": [True]}},
     {"eta_tilde": "1.0"}, {"vocab": {"zeta": ["1.0"], "pi": [1.0]}},
     {"eta_tilde": "abc"}, {"lambda": "x"}, {"vocab": {"zeta": ["abc"], "pi": [1.0]}}],
    ids=["negative-seed", "fractional-d", "bool-n0", "nan-lambda",
         "bool-eta_tilde", "bool-lambda", "bool-pi",
         "string-eta_tilde", "string-zeta",
         "word-eta_tilde", "word-lambda", "word-zeta"],
)
def test_malformed_numbers_in_config_exit_2(tmp_path, capsys, command, changes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY, **changes}))
    assert run(command, path, "--seeds", 1, "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert "invalid config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


UNMATCHED_VOCAB = "vocabulary needs matching, non-empty zeta and pi lists"


@pytest.mark.parametrize("command", ["simulate", "theory-spectrum", "theory-generror", "compare"])
@pytest.mark.parametrize("changes, message, reason", [
    ({"vocab": {"zeta": [1.0, -1.0], "pi": [1.0]}}, "invalid config", UNMATCHED_VOCAB),
    ({"vocab": {"zeta": [], "pi": []}}, "invalid config", UNMATCHED_VOCAB),
    ({"link": None}, "invalid config", "missing config keys: ['link']"),
    ({"vocab": {"pi": [1.0]}}, "invalid config", "missing vocab keys: ['zeta']"),
    ({"activation": "tanh_bad_derivative"}, "config failed validation",
     "derivative of activation 'tanh_bad_derivative' disagrees"),
], ids=["unmatched-vocab", "empty-vocab", "missing-key", "missing-vocab-key", "bad-derivative"])
def test_config_that_fails_its_checks_exits_2(tmp_path, capsys, monkeypatch, command, changes, message, reason):
    # an activation whose derivative disagrees with finite differences, as a user-added catalogue entry would
    monkeypatch.setitem(ACTIVATIONS, "tanh_bad_derivative", ActivationSpec("tanh_bad_derivative", np.tanh, np.cos))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value for key, value in {**TINY, **changes}.items() if value is not None}))
    argv = ("--grid", "0.02:2.0:5") if command == "theory-spectrum" else ()
    assert run(command, path, *argv, "--out", tmp_path / "o") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and reason in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_slow_n0_warns_on_stderr(tmp_path, capsys):
    # n0 = 70 < d^1.05 = 73.5 at d = 60: the run goes on, with a warning that the spike approximation may be loose
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY, "n0": 70}))
    assert run("theory-spectrum", path, "--grid", "0.02:2.0:5", "--out", tmp_path / "o") == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert "warning: n0 = 70 grows slower than d^(1+eps)" in err and "warning" not in out
    assert (tmp_path / "o" / "theory_spectrum.csv").exists()


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_simulate_refuses_nonpositive_lambda(tmp_path, capsys, lam):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY, "lambda": lam}))
    assert run("simulate", path, "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert "lambda must be > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/run_seed*.json"))


@pytest.mark.parametrize("argv", [("simulate", "--seeds", 0), ("simulate", "--jobs", 0),
                                  ("compare", "--seeds", 0), ("compare", "--jobs", -2)])
def test_seeds_and_jobs_below_one_exit_2(config_path, tmp_path, capsys, argv):
    assert run(argv[0], config_path, *argv[1:], "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert f"argument {argv[1]}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--tol-ks", "--tol-generror"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_compare_tolerance_not_finite_and_positive_exits_2(config_path, tmp_path, capsys, monkeypatch, flag, value):
    # a tolerance the check can never miss (inf) or never meet (nan, <= 0) is a usage error, found before any work
    def no_work(*args, **kwargs):
        raise AssertionError("compare ran the simulation")

    monkeypatch.setattr(cli, "_run_seeds", no_work)
    assert run("compare", config_path, "--seeds", 1, flag, value, "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert f"argument {flag}: must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--seeds", "two", "expected an integer, got 'two'"),
    ("compare", "--jobs", "1.5", "expected an integer, got '1.5'"),
    ("compare", "--tol-ks", "abc", "expected a number, got 'abc'"),
])
def test_option_that_is_not_a_number_exits_2(config_path, tmp_path, capsys, command, flag, value, message):
    assert run(command, config_path, flag, value, "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eig_csv_is_an_unknown_option(config_path, tmp_path, capsys):
    # each seed's eigenvalues are in its run_seedNNN.json; there is no second copy to ask for
    assert run("simulate", config_path, "--spectrum", "--eig-csv", "--out", tmp_path / "o") == cli.EXIT_USAGE
    assert "unrecognized arguments: --eig-csv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_parser_serves_every_call_and_keeps_no_parsed_value(config_path, tmp_path, monkeypatch, capsys):
    # the parser is built once per process; what one call parses, even a call that fails, reaches no later call
    assert cli.build_parser() is cli.build_parser()
    bad = ("--seeds", 5, "--grid", "0.1:1:4", "--bogus")
    assert run("compare", config_path, *bad, "--out", tmp_path / "bad") == cli.EXIT_USAGE
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    assert run("theory-spectrum", config_path, "--grid", "0.02:2.0:20", "--out", tmp_path / "ts") == cli.EXIT_OK

    seen = {}
    run_seeds, auto_grid = cli._run_seeds, spectrum.auto_grid

    def recorded_seeds(config, seeds, *rest):
        seen["seeds"] = seeds
        return run_seeds(config, seeds, *rest)

    def recorded_grid(eigenvalues):  # compare takes the automatic grid only when its grid is None
        seen["auto_grid"] = True
        return auto_grid(eigenvalues)

    monkeypatch.setattr(cli, "_run_seeds", recorded_seeds)
    monkeypatch.setattr(spectrum, "auto_grid", recorded_grid)
    loose = ("--tol-ks", 1, "--tol-generror", 1e9)  # the checks are not under test here
    assert run("compare", config_path, *loose, "--out", tmp_path / "cmp") == cli.EXIT_OK
    assert seen == {"seeds": 3, "auto_grid": True}


def test_usage_error_on_bad_subcommand(config_path, tmp_path):
    assert run("frobnicate", config_path) == cli.EXIT_USAGE


def test_simulate_artifacts_and_determinism(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", config_path, "--seeds", 2, "--out", out1, "--spectrum") == 0
    # the rerun takes the two seeds in two worker processes, which hand back their results in seed order
    assert run("simulate", config_path, "--seeds", 2, "--out", out2, "--spectrum", "--jobs", 2) == 0
    for name in ("run_seed000.json", "run_seed001.json", "aggregate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    run0 = json.loads((out1 / "run_seed000.json").read_text())
    assert set(run0) == {"seed_index", "config_hash", "config", "gen_error", "tau", "spike_deviation", "eigenvalues"}
    assert run0["config_hash"] == json.loads((out1 / "aggregate.json").read_text())["config_hash"]
    assert len(run0["eigenvalues"]) == TINY["p"]
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "simulate" and manifest["outputs"]


def test_simulate_takes_correlations_beyond_the_series_reach(tmp_path, monkeypatch):
    # at d = 8 a few hundred row pairs of W1 are correlated beyond the split rule's orders (up to 0.98); the exact
    # error takes them by the two-dimensional rule instead of refusing the network
    sizes = []

    def counted(f, g, a, b, corr):
        sizes.append(np.size(corr))
        return quadrature.correlated_expectation(f, g, a, b, corr)

    monkeypatch.setattr(simulate, "correlated_expectation", counted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "d": 8, "p": 512, "n": 400}))
    assert run("simulate", path, "--out", tmp_path / "out") == 0
    gen_error = json.loads((tmp_path / "out" / "run_seed000.json").read_text())["gen_error"]
    assert np.isfinite(gen_error["mean"]) and gen_error["mean"] > 0 and gen_error["stderr"] == 0.0
    assert sum(sizes) > 100


def test_theory_spectrum_rows_and_cache(config_path, tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    cache = tmp_path / "fixed_point.cache"
    assert run("theory-spectrum", config_path, "--grid", "0.02:2.0:40", "--out", out1, "--cache", cache) == 0
    csv1 = (out1 / "theory_spectrum.csv").read_text()
    assert len(csv1.strip().splitlines()) == 40 + 2  # metadata + header + rows
    header = json.loads(csv1.splitlines()[0].lstrip("# "))
    assert "config_hash" in header
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["cache_misses"] > 0
    solver = m1["solver"]
    assert solver["solves"] == 40 * 3 and solver["map_rows"] >= solver["solves"]
    assert solver["rows_per_solve"] == solver["map_rows"] / solver["solves"]
    assert set(solver["fallbacks"]) == {"half_plane"}
    assert 0 < solver["max_final_residual"] < detequiv.DEFAULT_TOL
    # second run: identical CSV, served from cache, and no solver work
    assert run("theory-spectrum", config_path, "--grid", "0.02:2.0:40", "--out", out2, "--cache", cache) == 0
    assert (out2 / "theory_spectrum.csv").read_text() == csv1
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["cache_hits"] >= 40 * 3 and m2["cache_misses"] == 0
    assert m2["solver"]["map_rows"] == 0 and m2["solver"]["solves"] == 0


def test_manifest_version_is_the_package_version(config_path, tmp_path):
    # the manifest records the package's version, which pyproject.toml reads
    assert run("theory-spectrum", config_path, "--grid", "0.02:2.0:5", "--out", tmp_path / "t") == 0
    assert json.loads((tmp_path / "t" / "manifest.json").read_text())["version"] == spikedrf.__version__
    assert 'version = {attr = "spikedrf.__version__"}' in (REPO / "pyproject.toml").read_text()


def test_cache_keyed_by_theory_content(tmp_path, monkeypatch):
    cache = tmp_path / "fixed_point.cache"

    def spectrum_run(name, cached=True, **changes):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**TINY, **changes}))
        out = tmp_path / name
        argv = ("theory-spectrum", path, "--grid", "0.02:2.0:20", "--out", out) + (("--cache", cache) if cached else ())
        assert run(*argv) == cli.EXIT_OK
        return (out / "theory_spectrum.csv").read_bytes(), json.loads((out / "manifest.json").read_text())

    assert spectrum_run("cold")[1]["cache_misses"] == 20 * 3
    # the seed does not enter the theory: every point is served, and the CSV is the uncached one
    reseeded, manifest = spectrum_run("reseeded", seed=TINY["seed"] + 1)
    assert manifest["cache_hits"] == 20 * 3 and manifest["cache_misses"] == 0
    assert reseeded == spectrum_run("reseeded_uncached", cached=False, seed=TINY["seed"] + 1)[0]
    # states of another solver are never served: each upper-case constant of detequiv and spectrum enters the
    # digest, the edge refinement's too
    for module, name, value in ((detequiv, "ANDERSON_MEMORY", detequiv.ANDERSON_MEMORY - 1),
                                (detequiv, "ANDERSON_MIXING", 0.4),
                                (spectrum, "SEGMENT_POINTS", spectrum.SEGMENT_POINTS // 2),
                                (spectrum, "EDGE_SPLIT", spectrum.EDGE_SPLIT // 2)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            assert spectrum_run(f"other_{name}")[1]["cache_hits"] == 0
    # nor states under another eps schedule, whose second and later levels start from the earlier levels' states;
    # the density they give is the uncached one under that schedule
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "DEFAULT_EPS_SCHEDULE", (1e-2, 4e-3, 2.5e-3))
        rescheduled, manifest = spectrum_run("other_schedule")
        assert manifest["cache_hits"] == 0
        assert rescheduled == spectrum_run("other_schedule_uncached", cached=False)[0]
    # nor states of another solver algorithm or record format: the source of detequiv, spectrum and cache enters
    for module in (detequiv, spectrum, fixed_point_cache):
        name = module.__name__.rsplit(".", 1)[-1]
        edited = tmp_path / f"{name}.py"
        edited.write_bytes(Path(module.__file__).read_bytes() + b"# edited\n")
        with monkeypatch.context() as patch:
            patch.setattr(module, "__file__", str(edited))
            assert spectrum_run(f"edited_{name}")[1]["cache_hits"] == 0
    # and the unchanged code still serves every point, with the uncached CSV
    rerun, manifest = spectrum_run("rerun")
    assert manifest["cache_hits"] == 20 * 3 and manifest["cache_misses"] == 0
    assert rerun == spectrum_run("rerun_uncached", cached=False)[0]
    # n moves alpha, so nothing may be served
    assert spectrum_run("larger_n", n=TINY["n"] + 12)[1]["cache_hits"] == 0
    # a file in the JSON-lines format of before, one {"key": "<digest>|<Re z>|<Im z>", "state": <hex>} object per
    # state, is never served: each line counts as torn
    digest, text = cache.read_text().splitlines()[0].split(" ")
    records = [text[i:i + 5 * 32] for i in range(0, len(text), 5 * 32)]  # k = 1: [z, V, nu, b, residual]
    zs = [complex(np.frombuffer(bytes.fromhex(rec[:32]), "<c16")[0]) for rec in records]
    cache.write_text("".join(json.dumps({"key": f"{digest}|{z.real:.12e}|{z.imag:.12e}", "state": rec}) + "\n"
                             for z, rec in zip(zs, records)))
    manifest = spectrum_run("json_lines")[1]
    assert manifest["cache_hits"] == 0 and manifest["cache_torn_lines"] == 20


def test_cache_serves_a_state_only_at_its_own_z(config_path, tmp_path, monkeypatch):
    # a grid that starts 1e-14 higher matches the cached grid's z to 13 digits at every point but the shared last
    # one; only the states of that point, at each eps level, are served, each at the z asked for
    cache, served, get = tmp_path / "fixed_point.cache", [], fixed_point_cache.FixedPointCache.get

    def recorded(self, z):
        state = get(self, z)
        served.extend([(complex(z), state.z)] if state is not None else [])
        return state

    def spectrum_run(name, grid, *cached):
        assert run("theory-spectrum", config_path, "--grid", grid, "--out", tmp_path / name, *cached) == cli.EXIT_OK
        return np.loadtxt(tmp_path / name / "theory_spectrum.csv", delimiter=",", skiprows=2)

    spectrum_run("cached", "0.5:2.0:20", "--cache", cache)
    with monkeypatch.context() as patch:
        patch.setattr(fixed_point_cache.FixedPointCache, "get", recorded)
        shifted = spectrum_run("shifted", "0.50000000000001:2.0:20", "--cache", cache)
    manifest = json.loads((tmp_path / "shifted" / "manifest.json").read_text())
    assert (manifest["cache_hits"], manifest["cache_misses"]) == (3, 57)
    assert [asked.real for asked, _ in served] == [2.0] * 3 and all(asked == z for asked, z in served)
    # every point solved here has the bits of the uncached run; the served one has the state the cached grid
    # solved from its own neighbour, which may differ in the last bits
    uncached = spectrum_run("uncached", "0.50000000000001:2.0:20")
    assert np.array_equal(shifted[:-1], uncached[:-1])
    np.testing.assert_allclose(shifted[-1], uncached[-1], rtol=0, atol=1e-15)


def test_theory_spectrum_bad_grid(config_path, tmp_path, capsys):
    for grid in ("2:1:50", "junk", "nan:1:5", "0:inf:5", "-inf:1:5", "0:1:1"):
        assert run("theory-spectrum", config_path, "--grid", grid, "--out", tmp_path / "x") == cli.EXIT_USAGE, grid
        assert "argument --grid: " in capsys.readouterr().err, grid
        assert not (tmp_path / "x").exists()


def test_compare_bad_grid_exits_2_before_any_work(config_path, tmp_path, capsys):
    assert run("compare", config_path, "--grid", "junk", "--out", tmp_path / "cmp") == cli.EXIT_USAGE
    assert "argument --grid: expected min:max:points" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_runs_the_steps_of_the_other_commands(config_path, tmp_path):
    # compare's directory holds the simulate step's artifacts as that command writes them, and its manifest
    # the fields of the theory-spectrum and theory-generror manifests
    grid = ("--grid", "0.02:2.0:20")
    loose = ("--tol-ks", 1, "--tol-generror", 1e9)  # the checks are not under test here
    assert run("compare", config_path, "--seeds", 2, *grid, *loose, "--out", tmp_path / "cmp") == cli.EXIT_OK
    assert run("simulate", config_path, "--seeds", 2, "--spectrum", "--out", tmp_path / "sim") == cli.EXIT_OK
    assert run("theory-spectrum", config_path, *grid, "--out", tmp_path / "ts") == cli.EXIT_OK
    assert run("theory-generror", config_path, "--out", tmp_path / "tg") == cli.EXIT_OK
    for name in ("run_seed000.json", "run_seed001.json", "aggregate.json"):
        assert (tmp_path / "cmp" / name).read_bytes() == (tmp_path / "sim" / name).read_bytes(), name
    manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
    spectrum_manifest = json.loads((tmp_path / "ts" / "manifest.json").read_text())
    generror_manifest = json.loads((tmp_path / "tg" / "manifest.json").read_text())
    assert manifest["spectrum"] == {key: spectrum_manifest[key]
                                    for key in ("unconverged", "unconverged_reasons", "solver", "extrapolation_gap")}
    assert manifest["generror"] == {key: generror_manifest[key] for key in ("solver", "unconverged", "unconverged_reasons")}
    listed = [Path(path).name for path in manifest["outputs"]]
    assert listed == ["run_seed000.json", "run_seed001.json", "aggregate.json", "eigenvalues.csv",
                      "theory_spectrum.csv", "generror_compare.csv", "summary.json"]
    assert sorted(path.name for path in (tmp_path / "cmp").iterdir()) == sorted(listed + ["manifest.json"])
    # the pooled eigenvalues are one plain float per line, those of the run files in seed order
    pooled = [float(line) for line in (tmp_path / "cmp" / "eigenvalues.csv").read_text().splitlines()]
    runs = [json.loads((tmp_path / "cmp" / f"run_seed{i:03d}.json").read_text()) for i in range(2)]
    assert pooled == runs[0]["eigenvalues"] + runs[1]["eigenvalues"]
    # the generror check carries the theory value and each seed's test error with their spread
    (check,) = [c for c in json.loads((tmp_path / "cmp" / "summary.json").read_text())["checks"]
                if c["name"] == "generror_rel_gap"]
    errors = [r["gen_error"]["mean"] for r in runs]
    assert check["seed_errors"] == errors and check["seed_spread"] == float(np.std(errors, ddof=1))
    theory = float((tmp_path / "tg" / "theory_generror.csv").read_text().splitlines()[2].split(",")[1])
    assert check["theory"] == theory and check["value"] == abs(theory - np.mean(errors)) / np.mean(errors)


def test_theory_generror_sweep(config_path, tmp_path, monkeypatch, capsys):
    rows = [0]
    fixed_point_map = detequiv.fixed_point_map

    def counted(problem, z, *state):
        rows[0] += len(z)
        return fixed_point_map(problem, z, *state)

    monkeypatch.setattr(detequiv, "fixed_point_map", counted)
    out = tmp_path / "sweep"
    assert run("theory-generror", config_path, "--alpha-sweep", "0.5:4:8", "--out", out) == 0
    # the manifest reports the sweep's solves: per alpha one at z = -lambda and four rho-perturbed ones
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["map_rows"] == rows[0] and solver["solves"] == 5 * 8
    assert solver["rows_per_solve"] == rows[0] / 40 and solver["max_final_residual"] < detequiv.DEFAULT_TOL
    assert solver["fallbacks"] == {"half_plane": 0, "cold_ladder": 0} and solver["rejected_roots"] == 0
    lines = (out / "theory_generror.csv").read_text().strip().splitlines()
    assert len(lines) == 8 + 2
    header = lines[1].split(",")
    assert header[:4] == ["alpha", "gen_error_theory", "gen_error_sim_mean", "gen_error_sim_stderr"]
    assert "tau0_1" in header and "tau2" in header
    alphas = [float(l.split(",")[0]) for l in lines[2:]]
    assert alphas == pytest.approx(list(np.linspace(0.5, 4, 8)))
    capsys.readouterr()
    for sweep in ("4:0.5:8", "-1:1:3", "0:1:2", "nan:1:2", "0.5:inf:2", "0.5:2:0", "junk"):
        assert run("theory-generror", config_path, "--alpha-sweep", sweep, "--out", tmp_path / "bad") == cli.EXIT_USAGE, sweep
        assert "argument --alpha-sweep: " in capsys.readouterr().err, sweep
        assert not (tmp_path / "bad").exists()


def test_alpha_zero_spectrum_near_zero_density(tmp_path):
    cfg = dict(TINY, n=1)  # alpha ~ 0.017: bulk nearly a point mass at 0
    path = tmp_path / "a0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("theory-spectrum", path, "--grid", "0.5:2.0:20", "--out", out) == 0
    rows = (out / "theory_spectrum.csv").read_text().strip().splitlines()[2:]
    dens = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(dens) < 0.05


def test_compare_pass_and_tolerance_override(tmp_path):
    # random-features point (eta = 0): theory and simulation agree at this size
    cfg = {
        "d": 400, "p": 600, "n": 320, "n0": 2000, "eta_tilde": 0.0, "lambda": 0.1, "seed": 5,
        "activation": "tanh", "link": "sin", "vocab": {"zeta": [1.0], "pi": [1.0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cmp"
    rc = run("compare", path, "--seeds", 2, "--out", out, "--tol-ks", 0.06, "--tol-generror", 0.12)
    summary = json.loads((out / "summary.json").read_text())
    assert rc == 0 and summary["passed"]
    names = {c["name"]: c for c in summary["checks"]}
    assert names["spectrum_ks"]["tol"] == 0.06
    assert names["generror_rel_gap"]["tol"] == 0.12
    assert (out / "eigenvalues.csv").exists()
    assert (out / "theory_spectrum.csv").exists()
    assert (out / "generror_compare.csv").exists()
    # impossible tolerance flips the exit code to 1, artifacts still emitted
    out2 = tmp_path / "cmp2"
    rc2 = run("compare", path, "--seeds", 1, "--out", out2, "--tol-ks", 1e-9)
    assert rc2 == cli.EXIT_TOLERANCE
    assert json.loads((out2 / "summary.json").read_text())["passed"] is False
    assert (out2 / "theory_spectrum.csv").exists()


def test_compare_fails_on_unconverged_theory_points(config_path, tmp_path, monkeypatch):
    solve = spectrum.solve_paths

    def flaky(problem, paths, starts):
        # two of the 20 grid points below fail, whatever path leads to them
        return [FixedPointError(f"injected failure at z={path[-1]}") if 0.5 < path[-1].real < 0.7 else result
                for path, result in zip(paths, solve(problem, paths, starts))]

    monkeypatch.setattr(spectrum, "solve_paths", flaky)
    grid = ("--grid", "0.02:2.0:20")
    assert run("theory-spectrum", config_path, *grid, "--out", tmp_path / "ts") == cli.EXIT_OK
    manifest = json.loads((tmp_path / "ts" / "manifest.json").read_text())
    assert manifest["unconverged"] == 2
    reasons = manifest["unconverged_reasons"]
    assert [r["eps"] for r in reasons] == [2.5e-3, 2.5e-3] and all(0.5 < r["lambda"] < 0.7 for r in reasons)
    assert all(r["reason"].startswith("injected failure at z=") for r in reasons)
    out = tmp_path / "cmp"
    rc = run("compare", config_path, "--seeds", 1, *grid, "--out", out, "--tol-ks", 1.0, "--tol-generror", 1e9)
    assert rc == cli.EXIT_TOLERANCE
    checks = {c["name"]: c for c in json.loads((out / "summary.json").read_text())["checks"]}
    ks = checks.pop("spectrum_ks")
    assert ks["unconverged"] == 2 and ks["value"] < ks["tol"] and not ks["passed"]
    assert "2 of 20 theory grid points unconverged" in ks["reason"]
    assert ks["unconverged_reasons"] == reasons
    assert all(c["passed"] for c in checks.values())


def test_torn_cache_line_is_skipped(config_path, tmp_path):
    cache = tmp_path / "fixed_point.cache"
    grid = ("--grid", "0.02:2.0:20", "--cache", cache)
    assert run("theory-spectrum", config_path, *grid, "--out", tmp_path / "cold") == 0
    cold = (tmp_path / "cold" / "theory_spectrum.csv").read_bytes()
    whole = cache.read_bytes()
    first, rest = whole.split(b"\n", 1)  # the first eps level: 20 records of [z, V, nu, b, residual] at k = 1
    digest, text = first.split(b" ")
    assert len(text) == 20 * 5 * 32 and len(rest.splitlines()) == 2
    # (case, cache text, (torn lines, misses) of a run on it, the same of the rerun after it):
    # a writer killed mid-line loses its partial record; a whole line that is not a record line (not even UTF-8,
    # or the digest alone) loses none; a blank line is neither torn nor lost
    cases = [("torn", whole[:-40], (1, 1), (1, 0)), ("junk", whole + b"junk\n", (1, 0), (1, 0)),
             ("json", whole + b'{"key": "zz", "state": ""}\n', (1, 0), (1, 0)), ("list", whole + b"[1, 2]\n", (1, 0), (1, 0)),
             ("not_utf8", whole + b"\xff\xfe\x00garbage\n", (1, 0), (1, 0)),
             ("torn_digest", whole + digest[:7] + b"\n", (1, 0), (1, 0)), ("blank", whole + b"\n  \n", (0, 0), (0, 0))]
    # a line of this problem whose text is not hex, or not a whole number of records, keeps its whole records
    # and counts once; the points it lost are solved again, and the rerun reads the line appended then
    for case, bad, lost in (("empty", b"", 20), ("not_hex", b"not hex", 20), ("one_short", text[:-32], 1),
                            ("one_long", text + text[:32], 0)):
        cases.append((case, digest + b" " + bad + b"\n" + rest, (1, lost), (1, 0)))
    for case, text, *expected in cases:
        cache.write_bytes(text)
        for name, (torn, misses) in zip((case, f"{case}_mended"), expected):
            assert run("theory-spectrum", config_path, *grid, "--out", tmp_path / name) == cli.EXIT_OK
            assert (tmp_path / name / "theory_spectrum.csv").read_bytes() == cold
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert (manifest["cache_torn_lines"], manifest["cache_misses"]) == (torn, misses), name


@pytest.mark.parametrize("command, flag", [("simulate", "--out"), ("theory-spectrum", "--out"),
                                           ("theory-generror", "--out"), ("compare", "--out"),
                                           ("theory-spectrum", "--cache")])
def test_unusable_out_or_cache_path_exits_2(command, flag, config_path, tmp_path, monkeypatch, capsys):
    calls = []
    for module, work in ((simulate, "run_experiment"), (spectrum, "density_grid"), (generror, "asymptotic_tau")):
        monkeypatch.setattr(module, work, lambda *args, **kwargs: calls.append(args))
    taken = tmp_path / "taken"
    if flag == "--out":  # an existing file cannot be the output directory
        taken.write_text("kept\n")
        paths = ("--out", taken)
    else:  # nor can a directory be the cache file
        taken.mkdir()
        paths = ("--out", tmp_path / "out", "--cache", taken)
    extra = {"theory-spectrum": ("--grid", "0.1:1:4"), "compare": ("--seeds", 1)}.get(command, ())
    assert run(command, config_path, *extra, *paths) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(taken) in err and "Traceback" not in err
    assert not calls and not (tmp_path / "out").exists()
    assert taken.is_dir() or taken.read_text() == "kept\n"


def test_compare_passes_on_the_readme_config(tmp_path):
    # ReLU has E[sigma] != 0: a step that kept the network output at init shrank every row, which the
    # theory does not describe, and this compare missed both tolerances (KS 0.09, generror gap 20%)
    cfg = {
        "d": 1365, "p": 2048, "n": 1092, "n0": 5784, "eta_tilde": 3.3, "lambda": 0.01, "seed": 11,
        "activation": "relu", "link": "sin", "vocab": {"zeta": [1.0], "pi": [1.0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("compare", path, "--seeds", 2, "--out", tmp_path / "cmp") == cli.EXIT_OK
    checks = json.loads((tmp_path / "cmp" / "summary.json").read_text())["checks"]
    assert {c["name"]: c["passed"] for c in checks} == {"spectrum_ks": True, "generror_rel_gap": True}


def test_crash_exits_3(config_path, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(generror, "asymptotic_tau", boom)
    assert run("theory-generror", config_path, "--out", tmp_path / "g") == cli.EXIT_CRASH
    err = capsys.readouterr().err
    assert "Traceback" in err and "boom" in err


@pytest.mark.parametrize(
    "module, work, exc, rc",
    [(spectrum, "density_grid", ZeroDivisionError, cli.EXIT_CRASH),
     (generror, "asymptotic_tau", FixedPointError, cli.EXIT_TOLERANCE),
     (simulate, "run_experiment", simulate.SimulationError, cli.EXIT_TOLERANCE),
     (spectrum, "density_grid", RuntimeError, cli.EXIT_TOLERANCE),
     (generror, "asymptotic_tau", RuntimeError, cli.EXIT_TOLERANCE)],  # escapes tau_sweep, which keeps FixedPointErrors
)
def test_compare_records_runtime_errors_and_crashes_on_others(module, work, exc, rc, config_path, tmp_path,
                                                              monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(module, work, broken)
    assert run("compare", config_path, "--seeds", 1, "--out", tmp_path / "cmp") == rc
    out, err = capsys.readouterr()
    if rc == cli.EXIT_CRASH:
        assert "Traceback" in err and "ZeroDivisionError: injected" in err
        return
    failed = {simulate: "simulation", spectrum: "spectrum_ks", generror: "generror_rel_gap"}[module]
    assert f"FAIL {failed} injected" in out and "Traceback" not in err
    checks = {c["name"]: c for c in json.loads((tmp_path / "cmp" / "summary.json").read_text())["checks"]}
    assert checks.pop(failed) == {"name": failed, "error": "injected", "passed": False}
    # the other theory half still runs; neither runs without the simulation it is compared against
    assert set(checks) == (set() if module is simulate else {"spectrum_ks", "generror_rel_gap"} - {failed})


def test_vocabulary_entry_without_neurons_is_a_config_error(tmp_path, capsys):
    # at p = 2 the entry of weight 0.001 draws no neuron
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY, "p": 2, "vocab": {"zeta": [1, -1], "pi": [0.999, 0.001]}}))
    assert run("compare", path, "--seeds", 1, "--out", tmp_path / "cmp") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "drew zero neurons" in err and "Traceback" not in err


def test_compare_records_a_rejected_root(config_path, tmp_path, monkeypatch):
    # a slack of -1 turns the bound b_q <= pi_q beta / lambda into b_q <= 0, which every root at z = -lambda fails
    monkeypatch.setattr(detequiv, "CERTIFICATE_SLACK", -1.0)
    assert run("compare", config_path, "--seeds", 1, "--out", tmp_path / "cmp", "--tol-ks", 1.0) == cli.EXIT_TOLERANCE
    checks = {c["name"]: c for c in json.loads((tmp_path / "cmp" / "summary.json").read_text())["checks"]}
    assert "outside the Stieltjes bounds" in checks["generror_rel_gap"]["error"]
    assert checks["spectrum_ks"]["passed"]  # the density grid solves at Im z > 0, where no root is certified


def test_theory_generror_records_rejected_roots(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(detequiv, "CERTIFICATE_SLACK", -1.0)
    out = tmp_path / "sweep"
    assert run("theory-generror", config_path, "--alpha-sweep", "0.5:1.5:3", "--out", out) == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unconverged"] == 3
    assert [r["alpha"] for r in manifest["unconverged_reasons"]] == [0.5, 1.0, 1.5]
    assert all("outside the Stieltjes bounds" in r["reason"] for r in manifest["unconverged_reasons"])
    # the alpha cell stays, every theory and tau cell is empty, as the simulation cells are
    for line in (out / "theory_generror.csv").read_text().strip().splitlines()[2:]:
        assert set(line.split(",")[1:]) == {""}


def test_failed_alpha_leaves_the_other_rows(config_path, tmp_path, monkeypatch, capsys):
    def sweep(spec, name):
        assert run("theory-generror", config_path, "--alpha-sweep", spec, "--out", tmp_path / name) == cli.EXIT_OK
        lines = (tmp_path / name / "theory_generror.csv").read_text().splitlines()
        return lines, json.loads((tmp_path / name / "manifest.json").read_text()), capsys.readouterr().out

    clean, clean_manifest, clean_out = sweep("0.5:1.5:3", "clean")
    assert clean_manifest["unconverged"] == 0 and clean_manifest["unconverged_reasons"] == []
    assert clean_out.strip() == f"wrote {tmp_path / 'clean' / 'theory_generror.csv'} (3 rows)"
    last_alone = sweep("1.5:1.5:1", "last")[0]
    asymptotic_tau = generror.asymptotic_tau

    def failing_at_one(problem, *args):
        if problem.alpha == 1.0:
            raise FixedPointError("injected")
        return asymptotic_tau(problem, *args)

    monkeypatch.setattr(generror, "asymptotic_tau", failing_at_one)
    lines, manifest, _ = sweep("0.5:1.5:3", "failed")
    assert manifest["unconverged_reasons"] == [{"alpha": 1.0, "reason": "injected"}]
    assert manifest["solver"]["fallbacks"]["cold_ladder"] == 0
    assert lines[:3] == clean[:3] and lines[3] == "1.0" + "," * (len(clean[1].split(",")) - 1)
    # the alpha after the failure comes down the real-axis ladder, as the first alpha of a sweep does
    assert lines[4] == last_alone[2] and lines[4].split(",")[0] == clean[4].split(",")[0]


@pytest.mark.parametrize(
    "module, work, argv",
    [
        (simulate, "run_experiment", ("simulate", "--seeds", 1)),
        (spectrum, "density_grid", ("theory-spectrum", "--grid", "0.1:1:4")),
        (generror, "asymptotic_tau", ("theory-generror",)),
    ],
)
def test_manifest_started_before_the_work(module, work, argv, config_path, tmp_path, monkeypatch):
    original = getattr(module, work)
    work_started = []

    def timed(*args, **kwargs):
        work_started.append(time.time())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, work, timed)
    before = time.time()
    assert run(argv[0], config_path, *argv[1:], "--out", tmp_path / "o") == 0
    started = json.loads((tmp_path / "o" / "manifest.json").read_text())["started"]
    assert before <= started <= work_started[0]
