import inspect
import tracemalloc

import numpy as np
import pytest

from oracles import (
    DEFAULT_TEST_POINTS,
    bulk_covariance_diagnostic,
    empirical_stieltjes,
    label_gradient_unbuffered,
    monte_carlo_generror,
    shifted_coeffs,
)
from spikedrf import quadrature
from spikedrf import simulate as sim
from spikedrf.detequiv import build_problem
from spikedrf.model import (
    ActivationSpec,
    ExperimentConfig,
    LinkSpec,
    VocabularySpec,
    get_activation,
    get_link,
    make_rng,
    sample_second_layer,
)
from spikedrf.quadrature import cached_rule, split_rule

STEP_CHUNK = inspect.signature(sim.gradient_step).parameters["chunk"].default


def unit_vector(d, rng):
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


def test_sample_data_identity_link_and_moments():
    rng = make_rng(0)
    w = unit_vector(40, rng)
    X, y, kappa = sim.sample_data(100_000, 40, w, get_link("identity"), rng)
    assert np.array_equal(y, kappa)
    assert abs(kappa.mean()) < 4 / np.sqrt(len(kappa))
    assert abs(kappa.var() - 1.0) < 0.05


def test_sample_data_deterministic():
    w = unit_vector(12, make_rng(5))
    X1, y1, _ = sim.sample_data(50, 12, w, get_link("sin"), make_rng(9, 2))
    X2, y2, _ = sim.sample_data(50, 12, w, get_link("sin"), make_rng(9, 2))
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)


def test_gradient_step_trivial_cases():
    rng = make_rng(1)
    W0 = sim.sample_first_layer(6, 5, rng)
    a0 = rng.standard_normal(6) / np.sqrt(6)
    X0 = rng.standard_normal((9, 5))
    y0 = rng.standard_normal(9)
    tanh = get_activation("tanh")
    assert np.array_equal(sim.gradient_step(W0, a0, X0, y0, 0.0, tanh), W0)
    assert np.array_equal(sim.gradient_step(W0, np.zeros(6), X0, y0, 3.0, tanh), W0)


def test_gradient_step_matches_scalar_loop():
    # p=2, d=3, n0=2 hand case against an explicit loop oracle
    rng = make_rng(2)
    W0 = sim.sample_first_layer(2, 3, rng)
    a0 = np.array([0.4, -0.7]) / np.sqrt(2)
    X0 = rng.standard_normal((2, 3))
    y0 = np.array([0.3, -1.1])
    sigma = get_activation("tanh")
    eta = 2.5

    grad = np.zeros_like(W0)
    for j in range(2):
        for mu in range(2):
            grad[j] -= y0[mu] * a0[j] * X0[mu] * (1 / np.cosh(W0[j] @ X0[mu]) ** 2)
    expected = W0 - eta * grad / (2 * np.sqrt(2))
    assert np.max(np.abs(sim.gradient_step(W0, a0, X0, y0, eta, sigma) - expected)) < 1e-12


def test_gradient_step_chunking_invariant():
    # n0 = 200 lies inside one default chunk, against chunks of 7 rows; n0 = 3 * STEP_CHUNK + 100 spans four
    # default chunks, against one chunk of n0 rows
    relu = get_activation("relu")
    for n0, chunk in ((200, 7), (3 * STEP_CHUNK + 100, 3 * STEP_CHUNK + 100)):
        rng = make_rng(3)
        W0 = sim.sample_first_layer(16, 10, rng)
        a0 = rng.standard_normal(16) / 4.0
        X0 = rng.standard_normal((n0, 10))
        y0 = rng.standard_normal(n0)
        default = sim.gradient_step(W0, a0, X0, y0, 1.3, relu)
        chunked = sim.gradient_step(W0, a0, X0, y0, 1.3, relu, chunk=chunk)
        assert np.max(np.abs(default - chunked)) < 1e-12, n0


def test_gradient_step_is_the_scaled_label_gradient():
    # n0 = 40 spans three chunks of 16 rows
    rng = make_rng(6)
    W0 = sim.sample_first_layer(12, 9, rng)
    a0 = rng.standard_normal(12) / np.sqrt(12)
    X0 = rng.standard_normal((40, 9))
    y0 = rng.standard_normal(40)
    relu = get_activation("relu")
    step = sim.gradient_step(W0, a0, X0, y0, 1.7, relu, chunk=16)
    expected = W0 + 1.7 / (40 * np.sqrt(12)) * a0[:, None] * sim.label_gradient(W0, X0, y0, relu, 16)
    assert np.array_equal(step, expected)


@pytest.mark.parametrize("activation", ["relu", "tanh", "hermite3", "identity"])
def test_label_gradient_is_bit_equal_to_fresh_chunk_temporaries(activation):
    # three chunks of the default size, the last one short
    n0 = 2 * STEP_CHUNK + 500
    rng = make_rng(12)
    W0 = sim.sample_first_layer(24, 10, rng)
    X0 = rng.standard_normal((n0, 10))
    y0 = rng.standard_normal(n0)
    sigma = get_activation(activation)
    assert np.array_equal(sim.label_gradient(W0, X0, y0, sigma, STEP_CHUNK),
                          label_gradient_unbuffered(W0, X0, y0, sigma, STEP_CHUNK))


def traced_peak(fn, *args):
    """(result, peak bytes that numpy and Python allocate during fn(*args))."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_label_gradient_memory_is_one_chunk_buffer():
    # beyond its inputs the step holds one (chunk, p) buffer, sigma' of it in at most 1.5 (chunk, p) blocks
    # and (p, d) products; one bound at n0 = 2 and 8 default chunks (plus a short one) shows no growth with n0
    p, d = 32, 8
    rng = make_rng(13)
    W0 = sim.sample_first_layer(p, d, rng)
    for n0 in (2 * STEP_CHUNK + 700, 8 * STEP_CHUNK + 700):
        X0 = rng.standard_normal((n0, d))
        y0 = rng.standard_normal(n0)
        for activation in ("relu", "tanh", "erf", "sin", "hermite3"):
            _, peak = traced_peak(sim.label_gradient, W0, X0, y0, get_activation(activation), STEP_CHUNK)
            assert peak <= 8 * (2.5 * STEP_CHUNK * p + 3 * p * d), (n0, activation)


def spiked_network(activation, p=240, d=60, spike=1.0, seed=16):
    """(a_hat, W1, w_star, sigma): rows W0_j + spike w*, W0 uniform on the sphere, a random readout of size ~1."""
    rng = make_rng(seed)
    w = unit_vector(d, rng)
    W1 = sim.sample_first_layer(p, d, rng) + spike * w
    return rng.standard_normal(p), W1, w, get_activation(activation)


def far_network(activation):
    """`spiked_network` at d = 4, with rows at correlation exactly 1 and -1 and a row along w*.

    In four dimensions thousands of row pairs and dozens of rows are correlated beyond the reach of the split
    rule's orders, so every kind of term of the exact error leaves the series.
    """
    a_hat, W1, w, sigma = spiked_network(activation, d=4)
    W1[3], W1[5], W1[6] = 1.7 * W1[2], -W1[4], 2.0 * w
    reach = sim.SERIES_TOL ** (1.0 / (split_rule().basis.shape[1] - 1))
    unit = W1 / np.linalg.norm(W1, axis=1, keepdims=True)
    assert np.sum(np.abs(np.triu(unit @ unit.T, 1)) > reach) > 1000 and np.sum(np.abs(unit @ w) > reach) > 10
    return a_hat, W1, w, sigma


def test_empirical_generror_memory_is_linear_in_p():
    # beyond its inputs: (p, nodes) tables of sigma and its coefficients and one (GRAM_ROWS, p) tile, never (p, p)
    split_rule()  # built once per process, outside the trace
    peaks = []
    for p in (512, 1024):
        a_hat, W1, w, sigma = spiked_network("relu", p=p, d=64, spike=0.3)
        peaks.append(traced_peak(sim.empirical_generror, a_hat, W1, get_link("sin"), w, sigma)[1])
    assert peaks[1] <= 2 * peaks[0], peaks


def test_gradient_step_is_zero_for_zero_labels():
    # the step is taken against the labels alone: with y == 0 the layer does not move
    rng = make_rng(4)
    W0 = sim.sample_first_layer(8, 6, rng)
    a0 = rng.standard_normal(8) / np.sqrt(8)
    X0 = rng.standard_normal((30, 6))
    relu = get_activation("relu")
    assert np.array_equal(sim.gradient_step(W0, a0, X0, np.zeros(30), 1.0, relu), W0)


def test_spiked_approximation_cases():
    # the surrogate W0 + u w*^T with the config's spike law u_j = spike_vocabulary[g(j)], as in run_experiment
    def surrogate(activation, link):
        cfg = ExperimentConfig(
            d=7, p=10, n=5, eta_tilde=0.4, lam=0.1, seed=5, activation=activation, link=link,
            vocab=VocabularySpec(zeta=(1.0, -2.0), pi=(0.5, 0.5)),
        )
        rng = make_rng(5)
        W0 = sim.sample_first_layer(cfg.p, cfg.d, rng)
        layer = sample_second_layer(cfg.p, cfg.vocab, rng)
        w = unit_vector(cfg.d, rng)
        return cfg, W0, layer, w, W0 + np.outer(cfg.spike_vocabulary()[layer.groups], w)

    # c1 = 0 activation (pure second Hermite mode) leaves W unchanged
    assert abs(get_activation("hermite2").first_coeff()) < 1e-12
    _, W0, _, _, Wt = surrogate("hermite2", "identity")
    assert np.allclose(Wt, W0, atol=1e-15)
    # identity activation and link: u = eta a0 / sqrt(p), the scale of one gradient step
    cfg, W0, layer, w, Wt = surrogate("identity", "identity")
    assert np.max(np.abs(Wt - (W0 + np.outer(cfg.eta * layer.a0 / np.sqrt(cfg.p), w)))) < 1e-14


def test_spike_directions_concentrate_on_target():
    rng = make_rng(21)
    d, n0 = 400, 40_000
    w = unit_vector(d, rng)
    link = get_link("sin")
    X0, y0, _ = sim.sample_data(n0, d, w, link, rng)
    v_raw = X0.T @ y0 / n0
    assert np.linalg.norm(v_raw - link.first_coeff() * w) < 0.2
    assert abs(v_raw @ w) / np.linalg.norm(v_raw) > 0.99


def test_operator_norm_and_spike_deviation():
    rng = make_rng(6)
    A = rng.standard_normal((40, 25))
    assert abs(sim.operator_norm(A) - np.linalg.norm(A, 2)) < 1e-6
    assert sim.spike_deviation(A, A) == 0.0
    r, s = rng.standard_normal(40), rng.standard_normal(25)
    dev = sim.spike_deviation(A + np.outer(r, s), A)
    assert abs(dev - np.linalg.norm(r) * np.linalg.norm(s)) < 1e-8 * dev


def test_extended_features_centering_and_symmetries():
    rng = make_rng(7)
    n, p = 20, 12
    sizes = np.array([8, 4])
    phi = rng.standard_normal((n, p))
    phi_bar, phi_tilde = sim.extended_features(phi, sizes)
    # group means of the centered block vanish exactly
    assert np.max(np.abs(phi_tilde[:, :8].sum(axis=1))) < 1e-12
    assert np.max(np.abs(phi_tilde[:, 8:].sum(axis=1))) < 1e-12
    # constant features center to zero
    _, const_tilde = sim.extended_features(np.ones((5, 12)), sizes)
    assert np.max(np.abs(const_tilde)) == 0.0
    # permuting neurons within a group leaves the means unchanged
    perm = np.concatenate([rng.permutation(8), 8 + rng.permutation(4)])
    perm_bar, _ = sim.extended_features(phi[:, perm], sizes)
    assert np.max(np.abs(perm_bar - phi_bar)) < 1e-14
    with pytest.raises(sim.SimulationError, match="at least one neuron"):
        sim.extended_features(phi, np.array([12, 0]))


def test_group_mean_approaches_shifted_coefficient():
    # phi_bar ~ c0(kappa, zeta_u) with O(1/sqrt(d)) error, decreasing over widths
    link = get_link("sin")
    sigma = get_activation("tanh")
    errs = []
    for d in (200, 400, 800):
        p = int(1.5 * d)
        rng = make_rng(11, d)
        w = unit_vector(d, rng)
        W0 = sim.sample_first_layer(p, d, rng)
        a0 = np.ones(p) / np.sqrt(p)
        zeta_u = 0.8
        Wt = W0 + np.outer(zeta_u * np.ones(p), w)  # spike with u_j = zeta_u
        X, _, kappa = sim.sample_data(60, d, w, link, rng)
        phi_bar, _ = sim.extended_features(sim.features(Wt, X, sigma), np.array([p]))
        c0 = shifted_coeffs(sigma.fn, kappa * zeta_u, 0)[:, 0]
        errs.append(float(np.sqrt(np.mean((phi_bar[:, 0] - c0) ** 2))))
    assert errs[2] < errs[0]
    assert errs[2] < 0.1


def test_ridge_limits_and_hand_case():
    rng = make_rng(8)
    phi = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    a_big = sim.ridge_fit(phi, y, 1e8)
    assert np.linalg.norm(a_big) < 1e-5
    assert np.linalg.norm(phi @ a_big) / np.sqrt(6) < 1e-4
    # n > p, tiny lambda: least squares on phi/sqrt(p)
    ls, *_ = np.linalg.lstsq(phi / np.sqrt(6), y, rcond=None)
    assert np.max(np.abs(sim.ridge_fit(phi, y, 1e-10) - ls)) < 1e-6
    # 3x2 hand system against the closed-form normal equations
    phi32 = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.3]])
    y3 = np.array([1.0, -0.5, 0.25])
    lam = 0.7
    M = phi32.T @ phi32 / 2 + lam * np.eye(2)
    expected = np.linalg.inv(M) @ phi32.T @ y3 / np.sqrt(2)
    assert np.max(np.abs(sim.ridge_fit(phi32, y3, lam) - expected)) < 1e-12


def test_ridge_primal_dual_agreement_and_optimality():
    rng = make_rng(9)
    n, p = 200, 300
    phi = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    lam = 0.05
    a_dual = sim.ridge_fit(phi, y, lam)  # p > n path
    primal = np.linalg.solve(phi.T @ phi / p + lam * np.eye(p), phi.T @ y / np.sqrt(p))
    assert np.max(np.abs(a_dual - primal)) < 1e-8
    # gradient of the objective at the solution
    grad = -2 * phi.T @ (y - phi @ a_dual / np.sqrt(p)) / np.sqrt(p) + 2 * lam * a_dual
    assert np.linalg.norm(grad) < 1e-8 * (1 + np.linalg.norm(a_dual))


def test_empirical_generror_null_predictor_and_scaling():
    a_hat, W1, w, sigma = spiked_network("tanh")
    link = get_link("sin")
    # null predictor: error = E[sin^2] = (1 - e^-2)/2
    assert abs(sim.empirical_generror(np.zeros(len(a_hat)), W1, link, w, sigma) - (1 - np.exp(-2)) / 2) < 1e-14
    # the error is E[g^2] - 2 t B + t^2 Q in the readout's scale t: E(2a) from E(0), E(a) and E(-a)
    e0, e_plus, e_minus = (sim.empirical_generror(t * a_hat, W1, link, w, sigma) for t in (0.0, 1.0, -1.0))
    quad, lin = (e_plus + e_minus) / 2 - e0, (e_minus - e_plus) / 4
    assert sim.empirical_generror(2 * a_hat, W1, link, w, sigma) == pytest.approx(e0 - 4 * lin + 4 * quad, rel=1e-12)


def test_monte_carlo_oracle_is_bit_equal_to_the_one_shot_expression():
    # DEFAULT_TEST_POINTS is not a multiple of the oracle's PREDICTION_ROWS, so the last block is short
    rng = make_rng(15)
    d, p = 20, 40
    w = unit_vector(d, rng)
    W1 = sim.sample_first_layer(p, d, rng)
    a_hat = rng.standard_normal(p)
    sigma, link = get_activation("tanh"), get_link("sin")
    X, y, _ = sim.sample_data(DEFAULT_TEST_POINTS, d, w, link, make_rng(15, 1))
    resid = (y - sigma.fn(X @ W1.T) @ a_hat / np.sqrt(p)) ** 2
    expected = (float(resid.mean()), float(resid.std(ddof=1) / np.sqrt(DEFAULT_TEST_POINTS)))
    assert monte_carlo_generror(a_hat, W1, link, w, sigma, make_rng(15, 1)) == expected


@pytest.mark.parametrize("network", [spiked_network, far_network])
@pytest.mark.parametrize("activation", ["relu", "tanh", "erf"])
def test_empirical_generror_within_3_se_of_50_monte_carlo_draws(activation, network):
    a_hat, W1, w, sigma = network(activation)
    link = get_link("sin")
    draws = [monte_carlo_generror(a_hat, W1, link, w, sigma, make_rng(17, i))[0] for i in range(50)]
    exact = sim.empirical_generror(a_hat, W1, link, w, sigma)
    assert abs(exact - np.mean(draws)) < 3 * np.std(draws, ddof=1) / np.sqrt(len(draws))


def arccos_kernel(s, t, rho):
    """E[relu(s z) relu(t z')] for standard normals of correlation rho (Cho & Saul 2009)."""
    rho = np.clip(rho, -1.0, 1.0)
    return s * t / (2 * np.pi) * (np.sqrt(1 - rho * rho) + (np.pi - np.arccos(rho)) * rho)


def arcsin_kernel(s, t, rho):
    """E[erf(s z) erf(t z')] for standard normals of correlation rho."""
    return 2 / np.pi * np.arcsin(2 * s * t * rho / np.sqrt((1 + 2 * s * s) * (1 + 2 * t * t)))


@pytest.mark.parametrize("network", [spiked_network, far_network])
@pytest.mark.parametrize("activation, kernel", [("relu", arccos_kernel), ("erf", arcsin_kernel)])
def test_empirical_generror_matches_the_closed_form_kernels(activation, kernel, network):
    # the link is the activation itself, so the cross term is the same kernel at scales (1, s_j), correlation r_j
    a_hat, W1, w, sigma = network(activation)
    p = len(a_hat)
    s = np.linalg.norm(W1, axis=1)
    unit = W1 / s[:, None]
    K = kernel(s[:, None], s[None, :], unit @ unit.T)
    np.fill_diagonal(K, kernel(s, s, np.ones(p)))
    closed = kernel(1.0, 1.0, 1.0) - 2 * a_hat @ kernel(1.0, s, unit @ w) / np.sqrt(p) + a_hat @ K @ a_hat / p
    exact = sim.empirical_generror(a_hat, W1, LinkSpec(activation, sigma.fn), w, sigma)
    assert abs(exact - closed) <= 1e-10 * closed


@pytest.mark.parametrize("network, nodes", [(spiked_network, "SPLIT_NODES"), (far_network, "BIVARIATE_NODES")])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_empirical_generror_does_not_move_when_the_rule_doubles(activation, network, nodes, monkeypatch):
    a_hat, W1, w, sigma = network(activation)
    before = sim.empirical_generror(a_hat, W1, get_link("sin"), w, sigma)
    monkeypatch.setattr(quadrature, nodes, 2 * getattr(quadrature, nodes))
    assert abs(sim.empirical_generror(a_hat, W1, get_link("sin"), w, sigma) - before) <= 1e-12


def test_empirical_generror_refuses_what_its_rule_cannot_integrate():
    a_hat, W1, w, sigma = spiked_network("relu")
    shifted = ActivationSpec("shifted_relu", lambda x: np.maximum(x - 0.5, 0.0), lambda x: (x > 0.5).astype(float), (0.5,))
    with pytest.raises(sim.SimulationError, match="kink away from 0"):
        sim.empirical_generror(a_hat, W1, get_link("sin"), w, shifted)


def test_empirical_generror_realizable_linear():
    # identity activation and link, p >= d, no spike, tiny ridge: error -> 0
    cfg = ExperimentConfig(
        d=40, p=80, n=400, n0=50, eta_tilde=0.0, lam=1e-8, seed=3,
        activation="identity", link="identity", vocab=VocabularySpec(zeta=(1.0,), pi=(1.0,)),
    )
    res = sim.run_experiment(cfg, 0)
    assert res.gen_error < 1e-6


def test_empirical_tau_trivial_and_oracle():
    rng = make_rng(11)
    p, d, k = 200, 150, 1
    W = sim.sample_first_layer(p, d, rng)
    theta = W @ unit_vector(d, rng)
    groups = np.zeros(p, dtype=int)
    sigma = get_activation("tanh")
    zeta_u = np.array([0.7])
    problem = build_problem(sigma, get_link("sin"), zeta_u, [1.0], alpha=1.0, beta=p / d)
    zero = sim.empirical_tau(np.zeros(p), groups, theta, W, problem)
    assert np.all(zero.tau0 == 0) and np.all(zero.tau1 == 0) and zero.tau2 == 0 and zero.tau3 == 0
    # normalization: group-sum a / sqrt(p) = 1
    a_unit = np.full(p, np.sqrt(p) / p)
    assert abs(sim.empirical_tau(a_unit, groups, theta, W, problem).tau0[0] - 1.0) < 1e-12
    # tau2 against an O(p^2) double loop
    a = rng.standard_normal(p)
    tau = sim.empirical_tau(a, groups, theta, W, problem)
    rule = cached_rule(201)
    c1 = shifted_coeffs(sigma.fn, rule.nodes * zeta_u[0], 1)[:, 1]
    cbar = float(rule.weights @ c1**2)
    loop = 0.0
    G = W @ W.T
    for i in range(p):
        for j in range(p):
            loop += a[i] * a[j] * cbar * G[i, j]
    assert abs(tau.tau2 - loop / p) < 1e-10


def test_bulk_spectrum_and_empirical_stieltjes():
    eigs0 = sim.bulk_spectrum(np.zeros((5, 9)))
    assert np.array_equal(eigs0, np.zeros(9))
    z = complex(0.3, 0.2)
    assert abs(empirical_stieltjes(eigs0, z) - (-1 / z)) < 1e-14
    rng = make_rng(12)
    phi = rng.standard_normal((50, 30))
    eigs = sim.bulk_spectrum(phi)
    for t in (1e2, 1e3):
        m = empirical_stieltjes(eigs, complex(0, t))
        assert abs(m * complex(0, -t) - 1) < 1.0 / t * max(eigs)


def test_bulk_covariance_diagnostic_trivials():
    d = p = 120
    rng = make_rng(14)
    W0 = sim.sample_first_layer(p, d, rng)
    a0 = np.ones(p) / np.sqrt(p)
    link = get_link("sin")
    X0, y0, _ = sim.sample_data(4 * d, d, unit_vector(d, make_rng(14, 1)), link, rng)
    empirical, predicted = bulk_covariance_diagnostic(W0, a0, X0, y0, 0.0, get_activation("tanh"), link)
    assert empirical == pytest.approx(1.0, abs=1e-12) and predicted == 1.0
    empirical, predicted = bulk_covariance_diagnostic(W0, a0, X0, y0, 1.0 * d, get_activation("identity"), link)
    # The identity's predicted ratio is exactly 1 in real arithmetic, but it is 1 plus a
    # quadrature difference that cancels to rounding (sig_gt1 ~ 1e-16), so it holds to a few ulps.
    assert abs(predicted - 1.0) <= 8 * np.finfo(float).eps
    assert abs(empirical - predicted) < 2e-2
    with pytest.raises(ValueError, match="c2"):
        bulk_covariance_diagnostic(W0, a0, X0, y0, 1.0, get_activation("relu"), link)
    with pytest.raises(ValueError, match="uniform"):
        bulk_covariance_diagnostic(W0, 2 * a0, X0, y0, 1.0, get_activation("tanh"), link)


def test_run_experiment_deterministic(tiny_config):
    r1 = sim.run_experiment(tiny_config, 0, compute_spectrum=True)
    r2 = sim.run_experiment(tiny_config, 0, compute_spectrum=True)
    assert r1.gen_error == r2.gen_error
    assert np.array_equal(r1.tau.tau0, r2.tau.tau0) and np.array_equal(r1.tau.tau1, r2.tau.tau1)
    assert r1.tau.tau2 == r2.tau.tau2 and r1.tau.tau3 == r2.tau.tau3
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.isfinite(r1.spike_dev) and r1.spike_dev == r2.spike_dev
    r3 = sim.run_experiment(tiny_config, 1)
    assert r3.gen_error != r1.gen_error
