import json

import numpy as np
import pytest

from oracles import damped_fixed_point, empirical_stieltjes, stieltjes, support_edges, support_width
from spikedrf import cli
from spikedrf import detequiv as de
from spikedrf import simulate as sim
from spikedrf import spectrum as sp
from spikedrf.cache import FixedPointCache
from spikedrf.model import ExperimentConfig, VocabularySpec, get_activation, get_link

from test_cli import TINY


def rf_problem(alpha=0.8, beta=1.5, activation="erf"):
    return de.build_problem(get_activation(activation), get_link("sin"), [0.0], [1.0], alpha=alpha, beta=beta)


def test_stieltjes_alpha_zero_and_tail():
    prob = rf_problem(alpha=0.0)
    z = complex(-1.3, 0.7)
    assert abs(stieltjes(prob, z) - (-1 / z)) < 1e-10
    t = 1e3
    prob2 = rf_problem()
    m = stieltjes(prob2, complex(0, t))
    assert abs(m + 1 / complex(0, t)) <= 10 / t**2


def test_density_alpha_zero_vanishes_away_from_origin():
    prob = rf_problem(alpha=0.0)
    curve = sp.density_grid(prob, 0.3, 2.0, 40)
    assert np.max(curve.density) < 1e-3
    assert curve.atom_mass == 1.0


def test_density_mass_with_atom():
    prob = rf_problem(alpha=0.8, beta=1.5, activation="relu")
    curve = sp.density_grid(prob, 1e-3, 2.4, 500)
    assert curve.atom_mass == pytest.approx(1 - 0.8 / 1.5, abs=1e-12)
    assert abs(curve.total_mass - 1.0) < 1e-3
    assert np.all(curve.density >= 0.0)
    assert np.all(curve.converged)


def test_density_mass_without_atom():
    # beta < 1 keeps WW^T full rank, so no lifted-zero-mode cluster; nearly
    # linear activations with p > d pile a semi-atom at the residual scale that
    # a uniform grid cannot resolve to 1e-3
    prob = rf_problem(alpha=2.5, beta=0.8, activation="relu")
    curve = sp.density_grid(prob, 1e-3, 9.0, 500)
    assert np.all(curve.converged)
    assert curve.atom_mass == 0.0
    assert abs(curve.mass - 1.0) < 1e-3


def test_edge_sub_point_retries_after_a_failed_first_level(monkeypatch):
    # the edge cells of the config above (3 cells, 21 sub-points) go through the grid's eps-level routine: a
    # sub-point whose first-level solve fails is retried at the next level, and still counts in the mass
    prob = rf_problem(alpha=2.5, beta=0.8, activation="relu")
    clean = sp.density_grid(prob, 1e-3, 9.0, 500)
    sub = np.setdiff1d(clean.mass_grid, clean.grid)
    assert len(sub) == 3 * (sp.EDGE_SPLIT - 1)
    target = complex(sub[len(sub) // 2], sp.DEFAULT_EPS_SCHEDULE[0])
    solve, hits = sp.solve_paths, []

    def failing_once(problem, paths, starts):
        results = solve(problem, paths, starts)
        for i, path in enumerate(paths):
            if path[-1] == target and not hits:
                hits.append(i)
                results[i] = de.NonConvergenceError("forced")
        return results

    monkeypatch.setattr(sp, "solve_paths", failing_once)
    curve = sp.density_grid(prob, 1e-3, 9.0, 500)
    assert len(hits) == 1
    assert np.array_equal(curve.mass_grid, clean.mass_grid)
    assert np.max(np.abs(curve.mass_density - clean.mass_density)) <= 1e-8
    assert abs(curve.mass - clean.mass) <= 1e-9


def recorded_solves(monkeypatch, fail=None):
    """Record (paths, starts, results) of every `solve_paths` call of the spectrum; a solve ending at the
    z `fail` gives a NonConvergenceError instead."""
    solve, calls = sp.solve_paths, []

    def recorded(problem, paths, starts):
        results = solve(problem, paths, starts)
        for i, path in enumerate(paths):
            if path[-1] == fail:
                results[i] = de.NonConvergenceError("forced")
        calls.append((paths, starts, results))
        return results

    monkeypatch.setattr(sp, "solve_paths", recorded)
    return calls


def secant(x1, x2):
    """The third level's start X2 + t (X2 - X1), t = (eps3 - eps2) / (eps2 - eps1), as (V, nu, b)."""
    e1, e2, e3 = sp.DEFAULT_EPS_SCHEDULE
    t = (e3 - e2) / (e2 - e1)
    return tuple(a2 + t * (a2 - a1) for a1, a2 in ((x1.V, x2.V), (x1.nu, x2.nu), (x1.b, x2.b)))


def third_level_starts(calls, lams):
    """{lambda: (start, its own converged states at the first two levels)} of the batched third-level solves."""
    e1, e2, e3 = sp.DEFAULT_EPS_SCHEDULE
    own = {}
    for paths, _, results in calls:
        for path, result in zip(paths, results):
            if isinstance(result, de.FixedPointState):
                own[path[-1]] = result
    batch = [(path[-1].real, start) for paths, starts, _ in calls for path, start in zip(paths, starts)
             if path == [complex(path[-1].real, e3)] and start is not None and path[-1].real in lams]
    return {lam: (start, own.get(complex(lam, e1)), own.get(complex(lam, e2))) for lam, start in batch}


def test_third_level_starts_at_the_eps_secant(monkeypatch):
    prob = rf_problem()
    calls = recorded_solves(monkeypatch)
    curve = sp.density_grid(prob, 0.5, 1.5, 40)
    assert np.all(curve.converged)
    starts = third_level_starts(calls, set(curve.grid))
    assert len(starts) == 40
    for start, x1, x2 in starts.values():
        V, nu, b = secant(x1, x2)
        assert np.array_equal(start.V, V) and np.array_equal(start.nu, nu) and np.array_equal(start.b, b)


def test_point_without_a_first_level_state_starts_the_third_from_its_second(monkeypatch):
    # an edge sub-point whose first-level solve fails gets its second level from the cell's left grid
    # point's state: that start is not a state of its own, so its third level starts from its second
    prob = rf_problem(alpha=2.5, beta=0.8, activation="relu")
    clean = sp.density_grid(prob, 1e-3, 9.0, 500)
    sub = np.setdiff1d(clean.mass_grid, clean.grid)
    target = sub[len(sub) // 2]
    calls = recorded_solves(monkeypatch, fail=complex(target, sp.DEFAULT_EPS_SCHEDULE[0]))
    curve = sp.density_grid(prob, 1e-3, 9.0, 500)
    assert np.array_equal(curve.mass_grid, clean.mass_grid)
    starts = third_level_starts(calls, set(sub))
    assert len(starts) == len(sub)
    start, x1, x2 = starts.pop(target)
    assert x1 is None and start is x2
    for start, x1, x2 in starts.values():
        V, nu, b = secant(x1, x2)
        assert np.array_equal(start.b, b) and not np.array_equal(start.b, x2.b)


def damped_levels(prob, grid, eps_schedule):
    """Im m / pi (atom removed) of the damped-Picard oracle at every eps level, swept along the grid.

    The first point of each level comes down the continuation ladder of
    `solve_fixed_point`; every other point starts from its left neighbour.
    """
    levels = np.empty((len(eps_schedule), len(grid)))
    for ei, eps in enumerate(eps_schedule):
        state, im = None, de.LADDER_TOP
        while im > max(eps, de.LADDER_FLOOR):
            state = damped_fixed_point(prob, complex(grid[0], im), state)
            im *= de.LADDER_FACTOR
        for gi, lam in enumerate(grid):
            z = complex(lam, eps)
            state = damped_fixed_point(prob, z, state)
            levels[ei, gi] = (de.stieltjes(prob, state.b) + prob.atom_mass() / z).imag / np.pi
    return levels


def test_level_readout_has_the_bits_of_each_states_own_stieltjes():
    # an eps level's Im m / pi is read from one stacked (n, k) array of b, and must keep the bits of the
    # per-state readout: m of the state's own b, plus the atom term in Python's complex division
    prob = de.build_problem(get_activation("tanh"), get_link("sin"), [0.6, -0.3], [0.7, 0.3], alpha=0.8, beta=1.5)
    grid = np.linspace(0.05, 3.0, 25)
    levels, first, errors, _ = sp._eps_levels(prob, grid, [None] * len(grid), None)
    assert not errors and prob.atom_mass() > 0
    per_state = [(complex(de.stieltjes(prob, s.b)) + prob.atom_mass() / s.z).imag / np.pi for s in first]
    assert np.array_equal(levels[0], per_state)


def test_density_grid_stays_on_the_stieltjes_branch():
    # the random-features config of the CLI compare test, on compare's auto grid for its two seeds: next to
    # the origin atom, an unguarded Anderson extrapolation reaches the root with Im m < 0 (at lambda = 0.0184,
    # eps = 1e-2) and warm starts carry it along the grid
    cfg = ExperimentConfig(
        d=400, p=600, n=320, n0=2000, eta_tilde=0.0, lam=0.1, seed=5,
        activation="tanh", link="sin", vocab=VocabularySpec(zeta=(1.0,), pi=(1.0,)),
    )
    prob = de.problem_from_config(cfg)
    curve = sp.density_grid(prob, 0.003764073554321748, 2.19258151071671, 300)
    assert np.all(curve.converged)
    eps = np.array(curve.eps_schedule)[:, None]
    im_m = curve.im_levels + curve.atom_mass * eps / (np.pi * (curve.grid**2 + eps**2))  # atom added back
    assert np.all(im_m >= 0.0)
    oracle = damped_levels(prob, curve.grid[:30], curve.eps_schedule)
    assert np.max(np.abs(curve.im_levels[:, :30] - oracle)) <= 1e-8


def test_cold_batch_row_reaches_the_non_physical_root():
    # why the first eps level of density_grid is a warm-started sweep and not one batch of cold starts:
    # with the hermite2 activation, one spike value 1, alpha = 0.3 and beta = 3, a cold solve_batch row
    # converges to another root than the continuation ladder, and that root has Im b > 0, so no
    # half-plane sign check can tell it from the physical one
    prob = de.build_problem(get_activation("hermite2"), get_link("sin"), [1.0], [1.0], alpha=0.3, beta=3.0)
    z = complex(2.1181, 1e-2)
    cold = de.solve_batch(prob, [z], [de._cold_state(prob, z)])[0]
    assert isinstance(cold, de.FixedPointState)
    assert cold.b[0] == pytest.approx(-1.476 + 0.001j, abs=5e-3)
    assert de.solve_fixed_point(prob, z).b[0] == pytest.approx(-1.404 + 0.170j, abs=5e-3)


def test_coarse_head_ladder_stays_on_the_physical_branch(monkeypatch):
    # the config of the test above, where a cold start at small Im z lands on the spurious root: the segment
    # heads come down the ladder at LADDER_FACTOR = 0.3, in 6 points to the first eps, and the whole grid
    # stays on the branch that the damped-Picard oracle follows
    prob = de.build_problem(get_activation("hermite2"), get_link("sin"), [1.0], [1.0], alpha=0.3, beta=3.0)
    calls = recorded_solves(monkeypatch)
    curve = sp.density_grid(prob, 0.001, 6.0, 400)
    assert np.all(curve.converged)
    heads = [path for paths, _, _ in calls for path in paths if len(path) > 1]
    assert len(heads) == 400 // sp.SEGMENT_POINTS and all(len(path) == 6 for path in heads)
    eps = np.array(curve.eps_schedule)[:, None]
    im_m = curve.im_levels + curve.atom_mass * eps / (np.pi * (curve.grid**2 + eps**2))  # atom added back
    assert np.all(im_m >= 0.0)
    near = np.flatnonzero(np.abs(curve.grid - 2.1181) < 0.1)
    oracle = damped_levels(prob, curve.grid[near], curve.eps_schedule)
    assert np.max(np.abs(curve.im_levels[:, near] - oracle)) <= 1e-8


def richardson_gap(curve):
    """Per grid point, |extrapolant of eps levels (2, 3) - extrapolant of levels (1, 2)|, from `im_levels`."""
    (r1, r2, r3), (e1, e2, e3) = curve.im_levels, curve.eps_schedule
    return np.abs((r3 + (r3 - r2) * e3 / (e2 - e3)) - (r2 + (r2 - r1) * e2 / (e1 - e2)))


def test_mp_density_against_closed_form():
    # c1 = 0 activation: bulk is exactly MP with ratio gamma = alpha/beta
    gamma = 0.5
    prob = de.build_problem(get_activation("hermite2"), get_link("sin"), [0.0], [1.0], alpha=1.0, beta=2.0)
    lo, hi = (1 - np.sqrt(gamma)) ** 2, (1 + np.sqrt(gamma)) ** 2
    curve = sp.density_grid(prob, 1e-3, hi * 1.2, 400)
    grid = curve.grid
    inside = (grid > lo + 0.05) & (grid < hi - 0.05)
    # Phi^T Phi / p with n = gamma p samples: support (1 -+ sqrt(gamma))^2 and
    # density sqrt((hi-x)(x-lo))/(2 pi x), integrating to gamma (atom carries 1-gamma)
    mp = np.where((grid > lo) & (grid < hi), np.sqrt(np.maximum((hi - grid) * (grid - lo), 0)) / (2 * np.pi * grid), 0.0)
    assert np.max(np.abs(curve.density[inside] - mp[inside])) < 5e-3
    edges = support_edges(curve, threshold=1e-3)
    assert len(edges) == 1
    assert abs(edges[0][0] - lo) < 0.05 and abs(edges[0][1] - hi) < 0.05
    # the gap between the two Richardson extrapolants is tiny in the bulk, and at least the true error at every
    # point more than two grid cells from a support edge; it is largest (1.6e-2) next to the lower edge, where
    # the eps bias of the square-root rise is not linear
    gap = richardson_gap(curve)
    assert curve.extrapolation_gap == {"max": gap.max(), "above": np.sum(gap > 1e-3), "bound": 1e-3}
    bulk = (grid > lo + 0.1) & (grid < hi - 0.1)
    assert np.median(gap) < 1e-5 and gap[bulk].max() < 5e-4
    near_edge = np.minimum(np.abs(grid - lo), np.abs(grid - hi))
    assert np.all(near_edge[gap > sp.GAP_BOUND] < 0.06)
    far = near_edge > 2 * (grid[1] - grid[0])
    assert np.all(np.abs(curve.density - mp)[far] <= gap[far])


def test_manifest_and_compare_report_the_extrapolation_gap(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    grid = ("--grid", "0.02:2.0:60")
    assert cli.main(["theory-spectrum", str(config), *grid, "--out", str(tmp_path / "ts")]) == cli.EXIT_OK
    curve = sp.density_grid(de.problem_from_config(ExperimentConfig.from_dict(TINY)), 0.02, 2.0, 60)
    gap = richardson_gap(curve)
    report = {"max": float(gap.max()), "above": int(np.sum(gap > 1e-3)), "bound": 1e-3}
    assert json.loads((tmp_path / "ts" / "manifest.json").read_text())["extrapolation_gap"] == report
    argv = ["compare", str(config), "--seeds", "1", *grid, "--out", str(tmp_path / "cmp"), "--tol-ks", "1.0"]
    assert cli.main(argv + ["--tol-generror", "1e9"]) == cli.EXIT_OK
    checks = {c["name"]: c for c in json.loads((tmp_path / "cmp" / "summary.json").read_text())["checks"]}
    assert checks["spectrum_ks"]["extrapolation_gap"] == report


def test_support_edges_and_width():
    grid = np.linspace(0, 10, 101)
    dens = np.zeros(101)
    dens[10:20] = 0.5
    dens[50:60] = 0.2
    curve = sp.DensityCurve(grid=grid, density=dens, eps_schedule=(1e-2, 5e-3), converged=np.ones(101, bool), atom_mass=0.0,
                           mass_grid=grid, mass_density=dens)
    edges = support_edges(curve, 1e-4)
    assert len(edges) == 2
    assert support_width(curve) == pytest.approx(edges[1][1] - edges[0][0])
    with pytest.raises(ValueError):
        support_edges(curve, 0.0)


def test_eps_monotone_consistency():
    prob = rf_problem(alpha=1.2, beta=0.9)
    curve = sp.density_grid(prob, 0.05, 3.5, 120)
    lvl = curve.im_levels
    inc_01 = np.abs(lvl[1] - lvl[0])
    inc_12 = np.abs(lvl[2] - lvl[1])
    frac = np.mean(inc_12 <= inc_01 + 1e-4)
    assert frac >= 0.95


def test_ks_distance_exact_on_matched_sample():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.5, 2.5, 2001)
    dens = np.where((grid >= 1.0) & (grid <= 2.0), 0.5, 0.0)
    curve = sp.DensityCurve(grid=grid, density=dens, eps_schedule=(1e-2, 5e-3), converged=np.ones_like(grid, bool), atom_mass=0.5,
                           mass_grid=grid, mass_density=dens)
    n = 200_000
    eigs = np.concatenate([np.zeros(n // 2), rng.uniform(1.0, 2.0, n // 2)])
    assert sp.ks_distance(eigs, curve) < 5e-3
    # a shifted sample must be flagged
    assert sp.ks_distance(eigs + 0.2, curve) > 0.05


def test_ks_detects_atom_mismatch():
    grid = np.linspace(0.5, 2.5, 501)
    dens = np.where((grid >= 1.0) & (grid <= 2.0), 0.8, 0.0)
    curve = sp.DensityCurve(grid=grid, density=dens, eps_schedule=(1e-2, 5e-3), converged=np.ones_like(grid, bool), atom_mass=0.2,
                           mass_grid=grid, mass_density=dens)
    rng = np.random.default_rng(1)
    eigs = np.concatenate([np.zeros(500), rng.uniform(1.0, 2.0, 500)])  # atom 0.5 vs theory 0.2
    assert sp.ks_distance(eigs, curve) > 0.25


def test_density_grid_input_validation():
    prob = rf_problem()
    with pytest.raises(ValueError):
        sp.density_grid(prob, 2.0, 1.0, 50)


def test_density_grid_zero_fills_only_fixed_point_failures(monkeypatch):
    prob = rf_problem()
    solve = sp.solve_paths

    def failing_at_one(problem, paths, starts):
        results = solve(problem, paths, starts)
        return [de.NonConvergenceError("forced") if abs(path[-1].real - 1.0) < 1e-12 else result
                for path, result in zip(paths, results)]

    monkeypatch.setattr(sp, "solve_paths", failing_at_one)
    curve = sp.density_grid(prob, 0.5, 1.5, 5)
    assert list(curve.converged) == [True, True, False, True, True]
    assert curve.density[2] == 0.0

    def broken(problem, paths, starts):
        raise ZeroDivisionError("programming error inside the solve")

    monkeypatch.setattr(sp, "solve_paths", broken)
    with pytest.raises(ZeroDivisionError):
        sp.density_grid(prob, 0.5, 1.5, 5)


def test_failure_inside_a_segment_is_zero_filled_alone(monkeypatch):
    # 60 points are three segments; the point at index 25 (segment 1, step 5) fails at every eps
    prob = rf_problem()
    points, failing = 60, 25
    assert points >= 3 * sp.SEGMENT_POINTS and 0 < failing % sp.SEGMENT_POINTS < sp.SEGMENT_POINTS - 1
    reference = sp.density_grid(prob, 0.5, 1.5, points)
    lam = reference.grid[failing]
    original = de.fixed_point_map

    def poisoned(problem, z, V, nu, b):
        V1, nu1, b1 = original(problem, z, V, nu, b)
        hit = (z.real == lam) & np.isin(z.imag, sp.DEFAULT_EPS_SCHEDULE)
        return V1, nu1, np.where(hit[:, None], np.nan, b1)

    paths = []
    solve = sp.solve_paths

    def recorded(problem, batch, starts):
        paths.extend(batch)
        return solve(problem, batch, starts)

    monkeypatch.setattr(de, "fixed_point_map", poisoned)
    monkeypatch.setattr(sp, "solve_paths", recorded)
    curve = sp.density_grid(prob, 0.5, 1.5, points)
    assert list(np.flatnonzero(~curve.converged)) == [failing] and curve.density[failing] == 0.0
    assert np.isnan(curve.im_levels[:, failing]).all()
    assert [failure["lambda"] for failure in curve.failures] == [lam]
    # the next point of the segment comes down the ladder at the first eps, as a segment head does
    right = complex(reference.grid[failing + 1], sp.DEFAULT_EPS_SCHEDULE[0])
    assert de.ladder(right) in paths and [right] not in paths
    assert curve.converged[failing + 1]
    assert np.max(np.abs(curve.im_levels[:, failing + 1] - reference.im_levels[:, failing + 1])) < 1e-8
    others = np.arange(points) // sp.SEGMENT_POINTS != failing // sp.SEGMENT_POINTS
    assert np.array_equal(curve.im_levels[:, others], reference.im_levels[:, others])
    assert np.array_equal(curve.density[others], reference.density[others])


def test_batched_level_failure_is_zero_filled_alone(monkeypatch):
    prob = rf_problem()
    reference = sp.density_grid(prob, 0.5, 1.5, 9)
    target = complex(reference.grid[4], sp.DEFAULT_EPS_SCHEDULE[-1])
    batch_sizes = []
    original = de.fixed_point_map

    def poisoned(problem, z, V, nu, b):
        V1, nu1, b1 = original(problem, z, V, nu, b)
        hit = z == target
        if hit.any():
            batch_sizes.append(len(z))
            b1 = np.where(hit[:, None], np.nan, b1)
        return V1, nu1, b1

    monkeypatch.setattr(de, "fixed_point_map", poisoned)
    curve = sp.density_grid(prob, 0.5, 1.5, 9)
    assert min(batch_sizes) > 1  # the point failed inside a batched level
    assert list(np.flatnonzero(~curve.converged)) == [4] and curve.density[4] == 0.0
    assert curve.im_levels[0][4] == reference.im_levels[0][4]  # it converged at the first eps
    others = np.arange(9) != 4
    assert np.array_equal(curve.density[others], reference.density[others])
    assert np.array_equal(curve.im_levels[:, others], reference.im_levels[:, others])
    [failure] = curve.failures
    assert failure["lambda"] == reference.grid[4] and failure["eps"] == target.imag
    assert "non-finite b" in failure["reason"]


def cache_records(path):
    """The (digest, hex) of each record of a cache file at k = 1, whose records are five complex128 numbers."""
    return [(digest, text[i:i + 5 * 32]) for digest, text in (line.split(" ") for line in path.read_text().splitlines())
            for i in range(0, len(text), 5 * 32)]


def test_partly_cached_grid_is_byte_identical_to_a_cold_run(tmp_path, monkeypatch):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    batch_sizes = []
    solve_paths, put = sp.solve_paths, FixedPointCache.put

    def recorded(problem, paths, starts):
        batch_sizes.append(len(paths))
        return solve_paths(problem, paths, starts)

    # one segment, and three segments whose heads are solved together
    for points in (20, 3 * sp.SEGMENT_POINTS):
        cache = tmp_path / f"cache{points}.jsonl"

        def run(out, *extra):
            argv = ["theory-spectrum", str(config), "--grid", f"0.02:2.0:{points}", "--out", str(tmp_path / f"{out}{points}")]
            return cli.main([*argv, *extra])

        assert run("cold") == cli.EXIT_OK
        puts = []
        with monkeypatch.context() as patch:
            patch.setattr(FixedPointCache, "put", lambda self, *states: puts.append(states) or put(self, *states))
            assert run("full", "--cache", str(cache)) == cli.EXIT_OK
        assert [len(states) for states in puts] == [points] * 3  # one append per eps level, of every point
        records = cache_records(cache)
        assert len(cache.read_text().splitlines()) == 3 and len(records) == 3 * points
        keys = sorted(rec[:32] for _, rec in records)  # each state's z, bit for bit
        assert len(set(keys)) == len(keys)
        cache.write_text("".join(f"{digest} {rec}\n" for digest, rec in records[::2]))  # every other state, at every eps level
        batch_sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sp, "solve_paths", recorded)
            assert run("part", "--cache", str(cache)) == cli.EXIT_OK
        manifest = json.loads((tmp_path / f"part{points}" / "manifest.json").read_text())
        assert manifest["cache_hits"] == 3 * points // 2 and manifest["cache_misses"] == 3 * points // 2
        assert max(batch_sizes) > 1
        cold = (tmp_path / f"cold{points}" / "theory_spectrum.csv").read_bytes()
        assert (tmp_path / f"full{points}" / "theory_spectrum.csv").read_bytes() == cold
        assert (tmp_path / f"part{points}" / "theory_spectrum.csv").read_bytes() == cold
        # the partial run appended only the states it solved, and an all-hit rerun appends nothing
        assert sorted(rec[:32] for _, rec in cache_records(cache)) == keys
        written = cache.read_bytes()
        assert run("again", "--cache", str(cache)) == cli.EXIT_OK
        assert cache.read_bytes() == written
        assert (tmp_path / f"again{points}" / "theory_spectrum.csv").read_bytes() == cold


def test_auto_grid_of_a_sample_without_positive_eigenvalues():
    assert sp.auto_grid(np.array([0.0, 1e-12, -0.5])) == (1e-3, 1.0, 300)


def test_rf_finite_size_overlay_small():
    # eta = 0 random features at moderate size: sup-norm Stieltjes agreement
    d, beta, alpha = 800, 1.5, 0.8
    p, n = int(beta * d), int(alpha * d)
    cfg = ExperimentConfig(
        d=d, p=p, n=n, n0=10, eta_tilde=0.0, lam=0.1, seed=3,
        activation="erf", link="sin", vocab=VocabularySpec(zeta=(1.0,), pi=(1.0,)),
    )
    res = sim.run_experiment(cfg, 0, compute_spectrum=True)
    prob = de.problem_from_config(cfg)
    for z in [complex(0.3, 0.15), complex(-0.4, 0.3)]:
        m_emp = empirical_stieltjes(res.eigenvalues, z)
        assert abs(stieltjes(prob, z) - m_emp) < 0.03
