"""Map rows the engine spends, counted as the benchmark's tracer counts them: by wrapping `fixed_point_map`.

A row is one spectral point through one application of the map.  The
bounds are those of the Anderson engine on the paper's Fig.-1 and Fig.-2
problems; damped Picard needs about 43 rows per point on a warm-started eps
level and 730-800 rows for a cold solve at z = -lambda.  The first eps level
spends 11-12 rows per point with segments of 20 points, ladders included
(15-17 with the Im-z ladder's former rung ratio 0.7; segments of 10 points
spent more than 18 then).  The second level spends 8-9 rows per point
warm-started from the first, and the third 5.5-6.5 started at the eps secant
through the first two (7.5-9 warm-started from the second alone).  An alpha sweep at z = -lambda
spends one real-axis ladder (72-84 rows at any of its alphas), then 10-16
rows per further alpha warm-started from the previous one; a cold Im-z
ladder per alpha spent 160-185.  An engine that also restarted a row
whenever its residual rose spent 265 rows on one rho-perturbed solve of the
Fig.-2 k=1 sweep (alpha = 0.5, rho = (1e-4, 0)).
"""
import numpy as np
import pytest

from spikedrf import detequiv as de
from spikedrf import generror as ge
from spikedrf import spectrum as sp
from spikedrf.model import ExperimentConfig, VocabularySpec

FIG1 = dict(d=1365, p=2048, n=1092, eta_tilde=3.3, lam=0.01, seed=0, activation="relu", link="sin")
FIG2 = dict(d=1365, p=2048, n=1365, n0=30 * 1365, eta_tilde=2.0, lam=0.01, seed=0, activation="relu", link="tanh")
K1 = VocabularySpec(zeta=(1.0,), pi=(1.0,))
K4 = VocabularySpec(zeta=(1.0, -0.5, 1.5, -2.0), pi=(0.7, 0.1, 0.1, 0.1))


@pytest.fixture()
def rows(monkeypatch):
    """A one-entry list that counts the rows of every map call."""
    count = [0]
    original = de.fixed_point_map

    def counted(problem, z, V, nu, b):
        count[0] += len(z)
        return original(problem, z, V, nu, b)

    monkeypatch.setattr(de, "fixed_point_map", counted)
    return count


@pytest.mark.parametrize("vocab", [K1, K4], ids=["k1", "k4"])
def test_warm_started_eps_level_rows_per_point(vocab, rows, monkeypatch):
    prob = de.problem_from_config(ExperimentConfig(**FIG1, vocab=vocab))
    calls = []  # (paths, rows) of every solve_paths call, in order
    solve_paths = sp.solve_paths

    def recorded(problem, paths, starts):
        before = rows[0]
        result = solve_paths(problem, paths, starts)
        calls.append((len(paths), rows[0] - before))
        return result

    monkeypatch.setattr(sp, "solve_paths", recorded)
    curve = sp.density_grid(prob, 0.001, 3.0, 400)
    assert np.all(curve.converged)
    assert curve.solver["map_rows"] == rows[0]  # every rung's rows are charged to a solve
    # the eps levels warm-started from their own states are the two calls with every grid point
    sizes = [points for points, _ in calls]
    levels = [spent for points, spent in calls if points == 400]
    assert len(levels) == 2
    second, third = levels
    assert second <= 3_750  # 3,221 at k=1 and 3,623 at k=4
    assert third <= 2_700  # 2,181 and 2,598, started at the eps secant
    # the first level, ladders of the segment heads included: every call before the first warm-started level
    first = calls[:sizes.index(400)]
    assert sum(points for points, _ in first) == 400
    assert sum(spent for _, spent in first) <= 4_900  # 4,375 and 4,771, of which the heads' ladders 1,202 and 1,252


@pytest.mark.parametrize("alpha", np.linspace(0.5, 4.0, 8))
def test_cold_solve_at_minus_lambda_rows(alpha, rows, monkeypatch):
    prob = de.problem_from_config(ExperimentConfig(**FIG2, vocab=K1)).with_alpha(alpha)
    state = de.solve_fixed_point(prob, complex(-FIG2["lam"], 0.0))
    assert rows[0] <= 200
    assert state.stats.rows == rows[0]  # the state's own count covers every ladder rung
    # the four rho-perturbed solves of tau2_tau3, each warm-started from that state
    perturbed = []

    def recorded(problem, z, **kw):
        result = de.solve_fixed_point(problem, z, **kw)
        perturbed.append((problem.rho, result.stats.rows))
        return result

    monkeypatch.setattr(ge, "solve_fixed_point", recorded)
    ge.tau2_tau3(prob, ge.tau0(ge.schur_C_inverse(prob, state)[0], FIG2["lam"]), state)
    h = ge.DEFAULT_RHO_STEP
    assert sorted(rho for rho, _ in perturbed) == sorted([(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)])
    assert all(spent <= 15 for _, spent in perturbed), perturbed


@pytest.mark.parametrize("vocab", [K1, K4], ids=["k1", "k4"])
def test_alpha_sweep_rows_at_minus_lambda(vocab, rows, monkeypatch):
    base = de.problem_from_config(ExperimentConfig(**FIG2, vocab=vocab))
    unperturbed = []  # rows of every solve at z = -lambda, in sweep order
    solve = de.solve_fixed_point

    def recorded(problem, z, warm_start=None):
        state = solve(problem, z, warm_start=warm_start)
        if problem.rho == (0.0, 0.0):
            unperturbed.append(state.stats.rows)
        return state

    monkeypatch.setattr(ge, "solve_fixed_point", recorded)
    _, solver = ge.tau_sweep(base, np.linspace(0.5, 4.0, 8), FIG2["lam"])
    assert solver["map_rows"] == rows[0] and solver["fallbacks"]["cold_ladder"] == 0
    assert len(unperturbed) == 8
    assert unperturbed[0] <= 100  # the real-axis ladder of the first alpha
    assert all(spent <= 20 for spent in unperturbed[1:]), unperturbed
