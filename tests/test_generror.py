import numpy as np
import pytest

from oracles import asymptotic_generror, exact_tau2_tau3, run_with_monte_carlo
from spikedrf import detequiv as de
from spikedrf import generror as ge
from spikedrf import simulate as sim
from spikedrf.model import ExperimentConfig, VocabularySpec, get_activation, get_link, make_rng, sample_second_layer
from spikedrf.simulate import TauSet


def problem(alpha=1.5, beta=1.2, activation="tanh", link="sin", zeta=(0.6, -0.3), pi=(0.7, 0.3)):
    return de.build_problem(get_activation(activation), get_link(link), zeta, pi, alpha=alpha, beta=beta)


def test_alpha_zero_schur_is_ridge_identity():
    prob = problem(alpha=0.0)
    lam = 0.3
    state = de.solve_fixed_point(prob, complex(-lam, 0.0))
    Cinv, to_tau1 = ge.schur_C_inverse(prob, state, (0.0, 0.0))
    assert np.max(np.abs(Cinv - lam * np.eye(3))) < 1e-10
    assert np.max(np.abs(ge.tau0(Cinv, lam))) < 1e-10
    assert np.max(np.abs(to_tau1)) < 1e-12  # no cross block at alpha = 0: tau1 = 0 whatever tau0
    t2, t3 = ge.tau2_tau3(prob, np.zeros(2), state)
    assert abs(t2) < 1e-8 and abs(t3) < 1e-8


def test_zero_link_label_row():
    import dataclasses

    prob = dataclasses.replace(problem(), g=np.zeros(len(problem().g)))
    lam = 0.2
    state = de.solve_fixed_point(prob, complex(-lam, 0.0))
    Cinv = ge.schur_C_inverse(prob, state, (0.0, 0.0))[0]
    # with g = 0 the label row collapses to lambda on the diagonal, 0 off
    assert abs(Cinv[0, 0] - lam) < 1e-12
    assert np.max(np.abs(Cinv[0, 1:])) < 1e-12
    assert np.max(np.abs(ge.tau0(Cinv, lam))) < 1e-12


def test_schur_symmetry_fig2_config():
    cfg = ExperimentConfig(
        d=1365, p=2048, n=2730, eta_tilde=0.5, lam=0.01, seed=0, activation="relu", link="tanh",
        vocab=VocabularySpec(zeta=(1.0, -0.5, 1.5, -2.0), pi=(0.7, 0.1, 0.1, 0.1)),
    )
    prob = de.problem_from_config(cfg)
    state = de.solve_fixed_point(prob, complex(-cfg.lam, 0.0))
    Cinv = ge.schur_C_inverse(prob, state, (0.0, 0.0))[0]
    assert np.max(np.abs(Cinv - Cinv.T)) < 1e-10


def test_lambda_kappa_trivial_and_realizable():
    prob = de.build_problem(get_activation("identity"), get_link("identity"), [0.0], [1.0], alpha=2.0, beta=1.0)
    null = TauSet(tau0=np.zeros(1), tau1=np.zeros(1), tau2=0.0, tau3=0.0)
    assert abs(ge.expected_lambda(null, prob) - 1.0) < 1e-12  # E[g(kappa)^2] = E[kappa^2] for the identity link
    # realizable linear fit: tau1 = 1, tau2 = 1 cancel exactly; error 0
    fit = TauSet(tau0=np.zeros(1), tau1=np.ones(1), tau2=1.0, tau3=0.0)
    assert abs(ge.expected_lambda(fit, prob)) < 1e-12


def test_null_predictor_expected_lambda():
    prob = problem(link="sin")
    null = TauSet(tau0=np.zeros(2), tau1=np.zeros(2), tau2=0.0, tau3=0.0)
    assert abs(ge.expected_lambda(null, prob) - prob.kappa_w @ prob.g**2) < 1e-12


def test_rho_derivative_step_controls(monkeypatch):
    prob = problem()
    lam = 0.05
    state = de.solve_fixed_point(prob, complex(-lam, 0.0))
    t0 = ge.tau0(ge.schur_C_inverse(prob, state, (0.0, 0.0))[0], lam)
    monkeypatch.setattr(ge, "DEFAULT_RHO_STEP", 1e-4)
    a2, a3 = ge.tau2_tau3(prob, t0, state)
    monkeypatch.setattr(ge, "DEFAULT_RHO_STEP", 5e-5)
    b2, b3 = ge.tau2_tau3(prob, t0, state)
    assert abs(a2 - b2) / max(abs(a2), 1e-12) < 1e-5
    assert abs(a3 - b3) / max(abs(a3), 1e-12) < 1e-5


def test_ridge_kills_fit_when_means_vanish():
    # eta = 0 with an odd activation: the mean basis is empty, so large lambda
    # drives tau0 -> 0 and the error to the null value E[g^2]
    prob = de.build_problem(get_activation("erf"), get_link("sin"), [0.0], [1.0], alpha=1.5, beta=1.2)
    errs = [asymptotic_generror(prob, lam) for lam in (0.1, 1.0, 10.0, 1e3)]
    assert all(np.diff(errs) > -1e-10)  # monotone toward the null
    assert abs(errs[-1] - prob.kappa_w @ prob.g**2) < 1e-3
    state = de.solve_fixed_point(prob, complex(-1e3, 0.0))
    t0 = ge.tau0(ge.schur_C_inverse(prob, state, (0.0, 0.0))[0], 1e3)
    assert np.max(np.abs(t0)) < 1e-8


def test_vocabulary_split_invariance_of_generror():
    base = problem()
    split = de.build_problem(get_activation("tanh"), get_link("sin"), [0.6, 0.6, -0.3], [0.35, 0.35, 0.3], alpha=1.5, beta=1.2)
    for lam in (0.05, 0.7):
        assert abs(asymptotic_generror(base, lam) - asymptotic_generror(split, lam)) < 1e-6


def test_tau_matches_simulation_k1():
    # Fig-2-style k=1 configuration at moderate size: tau0/tau1/tau2/tau3 and
    # the error itself against a 4-seed Monte Carlo oracle
    cfg = ExperimentConfig(
        d=683, p=1024, n=1366, eta_tilde=0.5, lam=0.01, seed=3, activation="relu", link="tanh",
        vocab=VocabularySpec(zeta=(1.0,), pi=(1.0,)),
    )
    prob = de.problem_from_config(cfg)
    tau_th = ge.asymptotic_tau(prob, cfg.lam)
    runs = [sim.run_experiment(cfg, s) for s in range(4)]

    def se(vals):
        vals = np.asarray(vals, dtype=float)
        return vals.std(ddof=1) / np.sqrt(len(vals))

    for name, th, emp, slack in [
        # tau0 is a small intercept-like coordinate with an O(1/sqrt(d)) bias at
        # this reduced size; the 3-SE check at the full p=2048 scale is in the
        # acceptance suite (criterion 5)
        ("tau0", tau_th.tau0[0], [r.tau.tau0[0] for r in runs], 0.05),
        ("tau1", tau_th.tau1[0], [r.tau.tau1[0] for r in runs], 0.0),
        ("tau2", tau_th.tau2, [r.tau.tau2 for r in runs], 0.0),
        ("tau3", tau_th.tau3, [r.tau.tau3 for r in runs], 0.0),
    ]:
        gap = abs(th - np.mean(emp))
        assert gap < 3 * max(se(emp), 1e-4) + slack, f"{name}: theory {th} vs emp {np.mean(emp)} +- {se(emp)}"
    err_th = ge.expected_lambda(tau_th, prob)
    errs = [r.gen_error for r in runs]
    assert abs(err_th - np.mean(errs)) / np.mean(errs) < 0.05


SMOKE = ExperimentConfig(
    d=640, p=960, n=960, n0=20 * 640, eta_tilde=1.5, lam=0.05, seed=11, activation="tanh", link="sin",
    vocab=VocabularySpec(zeta=(1.0, -1.0), pi=(0.8, 0.2)),
)


def test_plugin_consistency_smoke(monkeypatch):
    # against the Monte Carlo error of the same network; the exact error reads 13.7 seed-only SE (next test)
    prob = de.problem_from_config(SMOKE)
    diffs, ses = [], []
    for s in range(3):
        res, (mc_error, mc_se) = run_with_monte_carlo(monkeypatch, SMOKE, s)
        diffs.append(ge.expected_lambda(res.tau, prob) - mc_error)
        ses.append(mc_se)
    mean_diff = np.mean(diffs)
    se_comb = np.sqrt(np.mean(ses) ** 2 / len(diffs) + np.var(diffs, ddof=1) / len(diffs))
    assert abs(mean_diff) < 3 * se_comb


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the plug-in misses the exact error of the trained layer: plug-in minus exact is +0.0058 to +0.0075 "
        "(+6.0% to +7.5%) per seed, 13.7 seed-only SE.  The plug-in tau reads W0 for theta and tau2, so it "
        "sees the spiked surrogate W0 + u w*^T, on which it holds to 0.3% (next test).  W1 is the spiked layer "
        "along the realized direction w_hat = X0^T y0 / (n0 c1*) instead: W0 + u w_hat^T has W1's exact error "
        "to 5e-4 per seed, and ||w_hat - w*||^2 follows d E[g^2] / (n0 c1*^2) = 0.0588 (measured 0.0610, next "
        "test).  The Monte Carlo's 1% noise hid the gap (1.84 combined SE)."
    ),
)
def test_plugin_within_3_se_of_the_exact_error_of_w1():
    prob = de.problem_from_config(SMOKE)
    diffs = []
    for s in range(3):
        res = sim.run_experiment(SMOKE, s)
        diffs.append(ge.expected_lambda(res.tau, prob) - res.gen_error)
    assert abs(np.mean(diffs)) < 3 * np.std(diffs, ddof=1) / np.sqrt(len(diffs))


def test_plugin_matches_the_exact_error_on_the_spiked_surrogate():
    # the draws of `sim.run_experiment`, with the readout refit on W0 + u w*^T in place of W1; and W1 itself is
    # the spiked layer W0 + u w_hat^T along the realized direction w_hat = X0^T y0 / (n0 c1*) of the step's data
    cfg, prob = SMOKE, de.problem_from_config(SMOKE)
    sigma, link = cfg.activation_spec(), cfg.link_spec()
    c1_star = link.first_coeff()
    misses = []  # ||w_hat - w*||^2 per seed
    for s in range(3):
        rng = make_rng(cfg.seed, s)
        w_star = rng.standard_normal(cfg.d)
        w_star /= np.linalg.norm(w_star)
        W0 = sim.sample_first_layer(cfg.p, cfg.d, rng)
        layer = sample_second_layer(cfg.p, cfg.vocab, rng)
        X0, y0, _ = sim.sample_data(cfg.n0, cfg.d, w_star, link, rng)
        W1 = sim.gradient_step(W0, layer.a0, X0, y0, cfg.eta, sigma)
        w_hat = X0.T @ y0 / (cfg.n0 * c1_star)
        del X0, y0
        X, y, _ = sim.sample_data(cfg.n, cfg.d, w_star, link, rng)
        u = cfg.spike_vocabulary()[layer.groups]
        W_tilde, W_realized = W0 + np.outer(u, w_star), W0 + np.outer(u, w_hat)

        def refit(W):
            a_hat = sim.ridge_fit(sim.features(W, X, sigma), y, cfg.lam)
            return a_hat, sim.empirical_generror(a_hat, W, link, w_star, sigma)

        a_hat, exact = refit(W_tilde)
        plugin = ge.expected_lambda(sim.empirical_tau(a_hat, layer.groups, W0 @ w_star, W0, prob), prob)
        assert abs(plugin - exact) < 0.01 * exact, (s, plugin, exact)
        # W1 has the exact error of W0 + u w_hat^T (2.5e-4, 1.7e-4, 0.9e-4 apart), and lies 25x closer to it
        # than to W0 + u w*^T in operator norm (0.109 against 2.76-2.84)
        realized, trained = refit(W_realized)[1], refit(W1)[1]
        assert abs(realized - trained) < 5e-4, (s, realized, trained)
        assert sim.spike_deviation(W1, W_realized) < sim.spike_deviation(W1, W_tilde) / 10
        misses.append(np.sum((w_hat - w_star) ** 2))
    # w_hat - w* is the sampling noise of X0^T y0 / n0: d E[g^2] / (n0 c1*^2) = 0.0588 in squared norm
    law = cfg.d * (prob.kappa_w @ prob.g**2) / (cfg.n0 * c1_star**2)
    assert abs(np.mean(misses) / law - 1.0) < 0.1, (np.mean(misses), law)


def test_asymptotic_tau_rejects_bad_lambda():
    with pytest.raises(ValueError):
        ge.asymptotic_tau(problem(), -0.1)


FIG2 = dict(d=1365, p=2048, n=1365, n0=30 * 1365, eta_tilde=2.0, lam=0.01, seed=0, activation="relu", link="tanh")
FIG2_VOCABS = {"k1": VocabularySpec(zeta=(1.0,), pi=(1.0,)),
               "k4": VocabularySpec(zeta=(1.0, -0.5, 1.5, -2.0), pi=(0.7, 0.1, 0.1, 0.1))}


@pytest.mark.parametrize("vocab", sorted(FIG2_VOCABS))
def test_sweep_states_keep_the_stieltjes_bounds(vocab, monkeypatch):
    base = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_VOCABS[vocab]))
    alphas = np.linspace(0.5, 4.0, 8)
    lam = FIG2["lam"]
    untilted, solve = [], de.solve_fixed_point  # (problem, state) of every solve_fixed_point call of the sweep
    tilted, tau2_tau3 = [], ge.tau2_tau3  # (problem, result) of every tilted row, as tau2_tau3 puts them in spent

    def recorded(problem, z, warm_start=None):
        untilted.append((problem, solve(problem, z, warm_start=warm_start)))
        return untilted[-1][1]

    def recorded_tilts(problem, tau0_vec, base_state, spent):
        before = len(spent)
        result = tau2_tau3(problem, tau0_vec, base_state, spent)
        tilted.extend((problem, state) for state in spent[before:])
        return result

    monkeypatch.setattr(ge, "solve_fixed_point", recorded)
    monkeypatch.setattr(ge, "tau2_tau3", recorded_tilts)
    points, solver = ge.tau_sweep(base, alphas, lam)
    assert solver["fallbacks"]["cold_ladder"] == 0 and solver["rejected_roots"] == 0
    assert len(untilted) + len(tilted) == solver["solves"] == 5 * len(alphas) and len(tilted) == 4 * len(alphas)
    # every state of the sweep, the rho-perturbed ones included, keeps 0 < b_q <= pi_q beta / lambda
    for problem, state in untilted + tilted:
        assert not state.b.imag.any() and np.all(state.b.real > 0)
        assert np.all(state.b.real <= problem.pi * problem.beta / lam)
    # each alpha's warm-continued state is the root its own real-axis ladder reaches
    for (problem, _), (_, state) in zip(points, untilted):
        cold = de.solve_fixed_point(problem, complex(-lam, 0.0))
        assert np.max(np.abs(state.b - cold.b)) <= 1e-8 * np.max(np.abs(cold.b))


def test_rejected_warm_root_falls_back_to_the_ladder(monkeypatch):
    # at alpha = 2 the warm start is replaced by a start inside the basin of the unphysical root b = -84.2,
    # which the engine rejects: that alpha comes down the real-axis ladder instead, to the same root
    base = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_VOCABS["k1"]))
    alphas, lam = [1.5, 2.0, 2.5], FIG2["lam"]
    clean, _ = ge.tau_sweep(base, alphas, lam)
    solve = de.solve_fixed_point

    def misled(problem, z, warm_start=None):
        if warm_start is not None and problem.alpha == 2.0:
            warm_start = de.FixedPointState(z, np.zeros((1, 1), complex), np.zeros(1, complex), np.array([-84.0 + 0j]))
        return solve(problem, z, warm_start=warm_start)

    monkeypatch.setattr(ge, "solve_fixed_point", misled)
    points, solver = ge.tau_sweep(base, alphas, lam)
    assert solver["fallbacks"]["cold_ladder"] == 1 and solver["rejected_roots"] == 1
    assert solver["solves"] == 5 * len(alphas) + 1
    for (_, got), (_, want) in zip(points, clean):
        assert np.max(np.abs(got.tau0 - want.tau0)) < 1e-8 and np.max(np.abs(got.tau1 - want.tau1)) < 1e-8
        assert got.tau2 == pytest.approx(want.tau2, rel=1e-6) and got.tau3 == pytest.approx(want.tau3, rel=1e-6)


def test_failed_tilt_is_recorded_once_and_alone(monkeypatch):
    # at alpha = 2 the map values of the tilted rows (-h, 0) and (0, h) turn non-finite: that alpha records the
    # first of them in rho order, every tilt's result counts once in the solver summary, and the other alphas
    # keep every bit: the one before as in the clean sweep, the one after down the ladder as a sweep's first alpha
    base = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_VOCABS["k1"]))
    alphas, lam, h = [1.5, 2.0, 2.5], FIG2["lam"], ge.DEFAULT_RHO_STEP
    clean, clean_solver = ge.tau_sweep(base, alphas, lam)
    [(_, last_alone)], _ = ge.tau_sweep(base, alphas[2:], lam)
    rows, original = [0], de.fixed_point_map

    def poisoned(problem, z, V, nu, b, rho):
        rows[0] += len(z)
        V1, nu1, b1 = original(problem, z, V, nu, b, rho)
        bad = (rho == (-h, 0.0)).all(axis=1) | (rho == (0.0, h)).all(axis=1)
        return V1, nu1, np.where(bad[:, None] & (problem.alpha == 2.0), np.nan, b1)

    untilted, solve = [], de.solve_fixed_point  # the state of every solve_fixed_point call
    tilted, tau2_tau3 = [], ge.tau2_tau3  # each alpha's tilt results, as tau2_tau3 puts them in spent

    def recorded(problem, z, warm_start=None):
        untilted.append(solve(problem, z, warm_start=warm_start))
        return untilted[-1]

    def recorded_tilts(problem, tau0_vec, base_state, spent):
        before = len(spent)
        try:
            return tau2_tau3(problem, tau0_vec, base_state, spent)
        finally:
            tilted.append(spent[before:])

    monkeypatch.setattr(de, "fixed_point_map", poisoned)
    monkeypatch.setattr(ge, "solve_fixed_point", recorded)
    monkeypatch.setattr(ge, "tau2_tau3", recorded_tilts)
    points, solver = ge.tau_sweep(base, alphas, lam)
    failed = tilted[1]
    assert [isinstance(r, de.FixedPointError) for r in failed] == [False, True, True, False]
    assert points[1][1] is failed[1] and "non-finite b" in str(failed[1])
    for got, want in ((points[0][1], clean[0][1]), (points[2][1], last_alone)):
        assert np.array_equal(got.tau0, want.tau0) and np.array_equal(got.tau1, want.tau1)
        assert (got.tau2, got.tau3) == (want.tau2, want.tau3)
    # 5 results per alpha, none counted twice, and every map row charged to one of them
    results = untilted + [r for batch in tilted for r in batch]
    assert solver["solves"] == len(results) == clean_solver["solves"] == 5 * len(alphas)
    assert solver["map_rows"] == sum(r.stats.rows for r in results) == rows[0]
    assert solver["fallbacks"]["cold_ladder"] == 0 and solver["rejected_roots"] == 0


def test_rho_difference_converges_to_the_exact_derivative(monkeypatch):
    # the central difference of tau2_tau3 truncates at O(h^2) against the implicit-function-theorem derivative
    prob = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_VOCABS["k1"])).with_alpha(0.5)
    lam = FIG2["lam"]
    state = de.solve_fixed_point(prob, complex(-lam, 0.0))
    t0 = ge.tau0(ge.schur_C_inverse(prob, state, (0.0, 0.0))[0], lam)
    exact2, exact3 = exact_tau2_tau3(prob, t0, state)
    at_default = ge.tau2_tau3(prob, t0, state)

    def tau2_at(h):
        monkeypatch.setattr(ge, "DEFAULT_RHO_STEP", h)
        return ge.tau2_tau3(prob, t0, state)[0]

    assert 3.5 <= (tau2_at(1e-4) - exact2) / (tau2_at(5e-5) - exact2) <= 4.5
    assert abs(tau2_at(2e-5) - exact2) <= 1e-6 * abs(exact2)
    assert abs(at_default[1] - exact3) <= 1e-6 * abs(exact3)
