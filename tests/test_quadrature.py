import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    hermite_polynomial,
    parseval_residual,
    residual_second_moment,
    shifted_coeffs,
    shifted_hermite_coeff,
    shifted_second_moment,
)
from spikedrf import quadrature
from spikedrf.model import ACTIVATIONS, get_activation, get_link
from spikedrf.quadrature import (
    QuadratureError,
    cached_rule,
    correlated_expectation,
    gauss_hermite_rule,
    hermite_basis,
    hermite_tables,
    split_rule,
)


def test_rule_normalization_and_moments():
    rule = gauss_hermite_rule(64)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    w, x = rule.weights, rule.nodes
    assert abs(w @ np.ones_like(x) - 1.0) < 1e-12
    assert abs(w @ x) < 1e-12
    assert abs(w @ x**2 - 1.0) < 1e-10
    assert abs(w @ x**4 - 3.0) < 1e-9
    assert abs(w @ x**6 - 15.0) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 64, 127, 201, 254, 402])
def test_rule_matches_scipy_roots_hermitenorm(n):
    # the Golub-Welsch rule against scipy's, up to the doubled outer rule of the node-doubling tests
    rule = gauss_hermite_rule(n)
    nodes, weights = scipy.special.roots_hermitenorm(n)
    assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-13
    ref = weights / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(rule.weights - ref)) < 1e-15
    # relative accuracy on every weight scipy gives as a normal float, down to ~1e-300 at 402 nodes
    normal = ref >= np.finfo(float).tiny
    assert np.max(np.abs(rule.weights[normal] / ref[normal] - 1.0)) < 1e-11
    assert abs(rule.weights.sum() - 1.0) < 4e-15
    assert np.array_equal(rule.nodes, -rule.nodes[::-1]) and np.array_equal(rule.weights, rule.weights[::-1])


def test_rule_rejects_small_n():
    with pytest.raises(ValueError):
        gauss_hermite_rule(1)


def test_large_rule_sane():
    rule = gauss_hermite_rule(201)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert np.all(np.isfinite(rule.nodes))


def test_hermite_values():
    assert hermite_polynomial(0, 7.3) == 1.0
    assert hermite_polynomial(1, 2.0) == 2.0
    assert abs(hermite_polynomial(2, 1.0)) < 1e-15  # (x^2-1)/sqrt(2) at 1
    assert abs(hermite_polynomial(3, 0.5) - (0.5**3 - 1.5) / np.sqrt(6)) < 1e-14


def test_orthonormality_gram():
    # order 40 weighs the outermost nodes by h_40(x)^2 ~ 1e30, so only relatively accurate weights pass
    for n, order in [(127, 10), (127, 40), (201, 40)]:
        rule = cached_rule(n)
        H = hermite_basis(rule.nodes, order)
        gram = H.T @ (H * rule.weights[:, None])
        assert np.max(np.abs(gram - np.eye(order + 1))) < 1e-8, (n, order)


def test_shifted_coeff_linear_activation():
    # sigma(x) = x: c0(kappa, zeta) = kappa*zeta, c1 = 1
    for kappa, zeta in [(0.3, 2.0), (-1.1, 0.7), (0.0, 5.0)]:
        assert abs(shifted_hermite_coeff(lambda x: x, 0, kappa, zeta) - kappa * zeta) < 1e-12
        assert abs(shifted_hermite_coeff(lambda x: x, 1, kappa, zeta) - 1.0) < 1e-12


def test_shifted_coeff_erf_closed_form():
    # E[erf(z + s)] = erf(s / sqrt(3)) for z ~ N(0,1)
    erf = get_activation("erf")
    for s in (-1.3, 0.2, 0.9, 2.5):
        got = shifted_hermite_coeff(erf.fn, 0, s, 1.0)
        assert abs(got - scipy.special.erf(s / np.sqrt(3))) < 1e-10


def test_relu_first_coeff_against_adaptive_quadrature():
    relu = get_activation("relu")
    oracle, err = scipy.integrate.quad(lambda z: max(z, 0.0) * z * np.exp(-z * z / 2) / np.sqrt(2 * np.pi), -12, 12)
    assert err < 1e-10
    got = shifted_hermite_coeff(relu.fn, 1, 0.0, 1.7)  # kappa = 0: shift vanishes
    assert abs(got - oracle) < 1e-9
    assert abs(got - 0.5) < 1e-9


def test_residual_trivial_cases():
    # The identity has no mass above order 1, so its Parseval residual is exactly 0 in real
    # arithmetic; in floating point it is E[x^2] - c0^2 - c1^2 on the rule, a difference of O(1)
    # terms, so it is pinned to a few ulps, not to a bit pattern of one rule's rounding.
    assert abs(residual_second_moment(lambda x: x, 0.7, -1.3)) <= 8 * np.finfo(float).eps
    h2 = get_activation("hermite2")
    assert abs(residual_second_moment(h2.fn, 0.0, 0.0) - 1.0) < 1e-10


def test_residual_matches_truncated_series():
    tanh = get_activation("tanh")
    coeffs = shifted_coeffs(tanh.fn, np.array([1.0]), 40)[0]
    series = float(np.sum(coeffs[2:] ** 2))
    parseval = residual_second_moment(tanh.fn, 1.0, 1.0)
    assert abs(series - parseval) < 1e-8


def test_residual_negativity_guard():
    # a wildly non-finite activation must be flagged, not silently integrated
    with pytest.raises(QuadratureError):
        hermite_tables(lambda x: np.where(np.abs(x) > 4, np.inf, x), np.array([0.0]), [1.0])


def tail_mass(sigma, max_order: int) -> float:
    """Mass above order `max_order` in the Hermite series of sigma: E[sigma^2] - sum_{l<=L} c_l^2."""
    shifts = np.zeros(1)
    return float(shifted_second_moment(sigma, shifts)[0] - np.sum(shifted_coeffs(sigma, shifts, max_order)[0] ** 2))


def test_tail_check():
    assert abs(tail_mass(lambda x: x, 2)) < 1e-8
    # closed form for erf: c_{2j+1} = sqrt((2j+1)!) * (2/sqrt(pi)) * (-3)^{-j}/(sqrt(3) j! (2j+1)),
    # so the mass above order 20 is ~1.76e-6 (not 1e-8; it first dips below 1e-8 near L=35)
    from math import factorial

    tail_oracle = sum(
        factorial(2 * j + 1) * (4 / np.pi) * 3.0 ** (-(2 * j + 1)) / (factorial(j) ** 2 * (2 * j + 1) ** 2)
        for j in range(10, 40)
    )
    erf = get_activation("erf").fn
    assert abs(tail_mass(erf, 20) - tail_oracle) < 1e-9
    assert tail_mass(erf, 40) < 1e-8
    assert tail_mass(np.sign, 20) > 1e-4


@given(
    kappa=st.floats(-2.5, 2.5),
    zeta=st.floats(-2.0, 2.0),
    order=st.integers(0, 3),
    name=st.sampled_from(["relu", "erf", "tanh", "sin"]),
)
@settings(max_examples=50, deadline=None)
def test_shift_consistency_product_only(kappa, zeta, order, name):
    # c_l(kappa, zeta) depends on (kappa, zeta) only through kappa*zeta
    sigma = get_activation(name)
    a = shifted_hermite_coeff(sigma.fn, order, kappa, zeta)
    b = shifted_hermite_coeff(sigma.fn, order, kappa * zeta, 1.0)
    assert abs(a - b) < 1e-10


def test_parseval_all_builtins_random_pairs():
    rng = np.random.default_rng(42)
    pairs = rng.normal(size=(50, 2)) * 1.5
    for name, spec in ACTIVATIONS.items():
        shifts = pairs[:, 0] * pairs[:, 1]
        coeffs = shifted_coeffs(spec.fn, shifts, 40)
        m2 = shifted_second_moment(spec.fn, shifts)
        # c0^2 + c1^2 + residual = E[sigma^2] by construction; the series must
        # recover the same mass for smooth activations
        resid = hermite_tables(spec.fn, shifts, [1.0])[2][:, 0]
        assert np.max(np.abs(coeffs[:, 0] ** 2 + coeffs[:, 1] ** 2 + resid - m2) / (1.0 + m2)) < 1e-13
        if name in ("erf", "tanh", "sin", "identity", "hermite2", "hermite3"):
            # order-40 truncation leaves ~1e-8 mass for tanh at large shifts
            assert np.max(np.abs(np.sum(coeffs**2, axis=1) - m2)) < 5e-8


RELU_KINK = (
    "the inner Gauss-Hermite rule misses relu's kink at z = -kappa*zeta: from 127 to 254 inner nodes on "
    "kappa in [-3, 3], c0, c1 and r move by 3.2e-3, 1.5e-3 and 2.6e-3 (the smooth activations by <= 1.3e-13), "
    "and from 201 to 402 outer nodes the kernel integral moves by 1.9e-5; the closed forms would be exact"
)


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=RELU_KINK))
                                  if name == "relu" else name for name in ACTIVATIONS])
def test_node_doubling_stability(monkeypatch, name):
    # doubling the inner rule's node count moves the tables by < 1e-9, and doubling either count moves
    # kernel-style integrals by < 1e-9
    sigma = ACTIVATIONS[name].fn
    kappa = np.linspace(-3.0, 3.0, 61)
    outer_a, outer_b = cached_rule(201), cached_rule(402)
    tables, integrals = [], []
    for inner_n in (127, 254):
        monkeypatch.setattr(quadrature, "DEFAULT_INNER_NODES", inner_n)
        tables.append(np.array(hermite_tables(sigma, kappa, [1.0])))
        for outer in (outer_a, outer_b):
            c1 = hermite_tables(sigma, outer.nodes, [0.8])[1][:, 0]
            integrals.append(float(outer.weights @ (c1**2 / (1.0 + 0.3 * outer.nodes**2 / (1 + outer.nodes**2)))))
    assert np.max(np.abs(tables[0] - tables[1])) < 1e-9
    assert np.ptp(integrals) < 1e-9


def test_correlated_expectation_matches_closed_forms_at_every_correlation():
    # relu (arc-cosine), erf (arcsine) and sin kernels, from anticorrelated to identical pairs
    corr = np.array([-1.0, -0.999999, -0.93, -0.3, 0.0, 0.5, 0.88, 0.95, 0.9999, 1.0])
    s, t = np.linspace(0.3, 4.0, len(corr)), np.linspace(3.5, 0.5, len(corr))
    alpha = np.arccos(corr)
    cases = {
        "relu": s * t / (2 * np.pi) * (np.sin(alpha) + (np.pi - alpha) * corr),
        "erf": 2 / np.pi * np.arcsin(2 * s * t * corr / np.sqrt((1 + 2 * s * s) * (1 + 2 * t * t))),
        "sin": np.exp(-(s * s + t * t) / 2) * np.sinh(s * t * corr),
    }
    for name, closed in cases.items():
        f = get_activation(name).fn
        assert np.max(np.abs(correlated_expectation(f, f, s, t, corr) - closed)) <= 1e-13 * max(1.0, np.max(closed)), name


def test_correlated_expectation_is_the_mehler_series_within_its_reach():
    # where the series on the split rule converges (|corr| <= 0.85, 215 orders), the two-dimensional rule agrees
    rule = split_rule()
    sigma, link = get_activation("tanh").fn, get_link("sign_smooth").fn
    corr, s = np.array([-0.85, -0.4, 0.2, 0.7, 0.85]), np.array([0.5, 1.0, 2.0, 3.0, 1.5])
    c = (sigma(s[:, None] * rule.nodes) * rule.weights) @ rule.basis
    g = (link(rule.nodes) * rule.weights) @ rule.basis
    series = np.sum(c * g * corr[:, None] ** np.arange(rule.basis.shape[1]), axis=1)
    assert np.max(np.abs(correlated_expectation(sigma, link, s, 1.0, corr) - series)) <= 1e-13


def test_hermite_tables_match_per_entry_evaluation():
    # one evaluation of sigma per vocabulary entry, bit-identical to the order-L oracle's separate evaluations
    kappa = cached_rule(31).nodes
    zeta_u = [0.8, 0.0, -1.7]
    for name, spec in ACTIVATIONS.items():
        calls = []

        def counted(x):
            calls.append(x.shape)
            return spec.fn(x)

        c0, c1, resid = hermite_tables(counted, kappa, zeta_u)
        assert calls == [(31, quadrature.DEFAULT_INNER_NODES)] * 3, name
        assert c0.shape == c1.shape == resid.shape == (31, 3)
        for q, zeta in enumerate(zeta_u):
            coeffs = shifted_coeffs(spec.fn, kappa * zeta, 1)
            assert np.array_equal(c0[:, q], coeffs[:, 0]) and np.array_equal(c1[:, q], coeffs[:, 1]), name
            assert np.array_equal(resid[:, q], parseval_residual(spec.fn, kappa * zeta)), name
        # zeta = 0 entries are kappa-independent (plain coefficients)
        assert np.ptp(c1[:, 1]) < 1e-15 and np.ptp(resid[:, 1]) < 1e-15
        # one row alone sums in another order: equal to 1e-14 of the E[sigma^2] the difference cancels
        scale = max(1.0, float(shifted_second_moment(spec.fn, kappa[5] * 0.8)[0]))
        assert abs(resid[5, 0] - residual_second_moment(spec.fn, kappa[5], 0.8)) < 1e-14 * scale, name
