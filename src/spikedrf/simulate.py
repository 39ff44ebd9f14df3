"""Finite-size Monte Carlo of the two-step training pipeline and its observables.

Pipeline: sample Gaussian single-index data, take one full-batch gradient
step on the first layer at learning rate eta = eta_tilde * d, fit the second
layer by ridge regression on fresh data, then measure everything the theory
predicts: the bulk spectrum of the centered feature covariance, the scalar
order parameters (tau), the test error, and the deviation of the trained
layer from the spiked surrogate W0 + u w*^T of the config's spike law
(`ExperimentConfig.spike_vocabulary`, the u the theory uses).  The measured
tau2/tau3 read the perturbation kernels of the theory's `DetEquivProblem`.
`run_experiment` returns only these observables; the trained weights and the
features stay inside it, and the centered bulk is built only when the
spectrum is asked for.

Memory: X0 is held whole; beyond it the gradient step keeps one reused
(chunk, p) buffer, 1024 rows by default, and one sigma' temporary of the
same size, so no temporary grows with n0.  The test error is exact and
draws nothing: it holds the unit rows of W1, (p, quadrature nodes) tables
and one (GRAM_ROWS, p) tile of the row correlations and its power, plus,
for a tile's pairs beyond the series' reach, their indices and one
fixed-size batch of the two-dimensional rule, so its memory is linear in p.

All randomness flows from a counter-based generator, so identical seeds give
bit-identical runs regardless of thread schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detequiv import DetEquivProblem, problem_from_config
from .model import ActivationSpec, ExperimentConfig, LinkSpec, make_rng, sample_second_layer
from .quadrature import correlated_expectation, split_rule

# rows per tile of the row correlations in the test error: a (64, 2048) tile and its power stay in L2 through
# the series; 1024-row tiles made the correlations and their series 1.8x slower at p = 2048
GRAM_ROWS = 64
# each Hermite series of the test error stops at the order L with rho^L <= SERIES_TOL
SERIES_TOL = 1e-12


class SimulationError(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# data and training
# --------------------------------------------------------------------------- #


def sample_data(n: int, d: int, w_star: np.ndarray, link: LinkSpec, rng: np.random.Generator):
    """Draw (X, y, kappa): rows x ~ N(0, I_d), kappa = x^T w*, y = g(kappa)."""
    X = rng.standard_normal((n, d))
    kappa = X @ w_star
    return X, link.fn(kappa), kappa


def sample_first_layer(p: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Rows uniform on the unit sphere (normalized Gaussians)."""
    W = rng.standard_normal((p, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return W


def gradient_step(
    W0: np.ndarray,
    a0: np.ndarray,
    X0: np.ndarray,
    y0: np.ndarray,
    eta: float,
    sigma: ActivationSpec,
    chunk: int = 1024,
) -> np.ndarray:
    """One square-loss gradient step on the first layer against the labels, second layer frozen.

    W1_j = W0_j + (eta/(n0 sqrt(p))) a_j sum_mu y_mu sigma'(w_j^T x_mu) x_mu: the step whose rank-one
    spike W0 + u w*^T (u proportional to a0) the theory describes.  The residual leaves out the init
    output f(x_mu; W0, a0): for E[sigma] != 0 and a non-centered second layer its O(1) mean shrinks
    every row, an effect outside the spiked description; for odd activations it is O(1/sqrt(d))
    (see README).  `label_gradient` works in batches of `chunk` rows, through one reused
    (min(chunk, n0), p) buffer and one sigma' temporary of that size.  At the default 1024 rows each
    is 16 MB at p = 2048.
    """
    n0, p = X0.shape[0], W0.shape[0]
    return W0 + eta / (n0 * np.sqrt(p)) * a0[:, None] * label_gradient(W0, X0, y0, sigma, chunk)


def label_gradient(W0: np.ndarray, X0: np.ndarray, y0: np.ndarray, sigma: ActivationSpec, chunk: int) -> np.ndarray:
    """sum_mu y_mu sigma'(W0 x_mu) x_mu^T, accumulated over batches of `chunk` rows to keep memory flat.

    One (min(chunk, n0), p) buffer serves every batch: it takes the batch's pre-activation, which is
    overwritten in place by sigma'(.) * y0, and then enters the batch's product with X0.  Alive beyond
    the inputs: the buffer, one batch's sigma' and one (p, d) product.
    """
    n0 = X0.shape[0]
    grad = np.zeros_like(W0)
    buf = np.empty((min(chunk, n0), W0.shape[0]))
    for start in range(0, n0, chunk):
        sl = slice(start, min(start + chunk, n0))
        pre = np.matmul(X0[sl], W0.T, out=buf[:sl.stop - start])
        pre[...] = sigma.deriv(pre)
        pre *= y0[sl, None]
        grad += pre.T @ X0[sl]
    return grad


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value by power iteration on M^T M, to relative tolerance 1e-8."""
    v = np.random.default_rng(7).standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for _ in range(500):
        w = M @ v
        v = M.T @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        sigma = np.sqrt(nv)
        if abs(sigma - sigma_prev) <= 1e-8 * max(sigma, 1.0):
            return float(sigma)
        sigma_prev = sigma
    raise SimulationError(f"power iteration did not converge within 500 iterations (last sigma {sigma_prev:.6g})")


def spike_deviation(W1: np.ndarray, W_tilde: np.ndarray) -> float:
    """Operator norm of W1 - W_tilde."""
    if W1.shape != W_tilde.shape:
        raise ValueError("shape mismatch")
    return operator_norm(W1 - W_tilde)


# --------------------------------------------------------------------------- #
# features, ridge, observables
# --------------------------------------------------------------------------- #


def features(W: np.ndarray, X: np.ndarray, sigma: ActivationSpec) -> np.ndarray:
    return sigma.fn(X @ W.T)


def extended_features(phi: np.ndarray, group_sizes: np.ndarray) -> tuple:
    """(phi_bar (n, k), phi_tilde (n, p)): the group means of phi and its centered bulk.

    Groups are contiguous column blocks of the given sizes; phi_tilde is a
    copy of phi with each block's mean subtracted.
    """
    if np.any(group_sizes < 1):
        raise SimulationError("every group must contain at least one neuron")
    phi_bar = np.empty((phi.shape[0], len(group_sizes)))
    phi_tilde = phi.copy()
    start = 0
    for q, size in enumerate(group_sizes):
        sl = slice(start, start + size)
        phi_bar[:, q] = phi[:, sl].mean(axis=1)
        phi_tilde[:, sl] -= phi_bar[:, q][:, None]
        start += size
    return phi_bar, phi_tilde


def ridge_fit(phi: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Minimizer of sum_mu (y_mu - phi_mu^T a / sqrt(p))^2 + lam ||a||^2.

    Solved through the smaller of the primal (p x p) and dual (n x n) normal
    equations; the two are identical by the push-through identity.
    """
    if lam <= 0:
        raise ValueError(f"ridge penalty must be > 0, got {lam}")
    import scipy.linalg  # imported here, so that the theory commands never load scipy
    n, p = phi.shape
    try:
        if p <= n:
            G = phi.T @ phi / p + lam * np.eye(p)
            rhs = phi.T @ y / np.sqrt(p)
            cf = scipy.linalg.cho_factor(G, check_finite=False)
            return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
        G = phi @ phi.T / p + lam * np.eye(n)
        cf = scipy.linalg.cho_factor(G, check_finite=False)
        return phi.T @ scipy.linalg.cho_solve(cf, y, check_finite=False) / np.sqrt(p)
    except np.linalg.LinAlgError as exc:
        G = (phi.T @ phi / p if p <= n else phi @ phi.T / p)
        raise SimulationError(f"ridge solve failed: cond(Gram)={np.linalg.cond(G):.3e}, lam={lam}") from exc


def empirical_generror(
    a_hat: np.ndarray,
    W1: np.ndarray,
    link: LinkSpec,
    w_star: np.ndarray,
    sigma: ActivationSpec,
) -> float:
    """Exact test error E_x[(g(kappa) - f(x))^2] of the network (W1, a_hat) over x ~ N(0, I_d): no sampling.

    With s_j = ||w_j||, r_j = w_j^T w* / s_j, R the correlation matrix of the rows of W1, and c_l(s), g_l the
    orthonormal Hermite coefficients of sigma(s .) and of g, the error is

        E[g^2] - (2/sqrt(p)) sum_j a_j sum_l g_l c_l(s_j) r_j^l + (1/p) sum_jj' a_j a_j' K_jj',

    with K_jj = E[sigma(s_j z)^2] and, by Mehler's formula, K_jj' = sum_l c_l(s_j) c_l(s_j') R_jj'^l off the
    diagonal (O'Donnell 2014, ch. 11).  Every expectation is taken on `quadrature.split_rule`, so sigma may
    have a kink at 0 and nowhere else.  The cross series stops at the order L with rho^L <= SERIES_TOL for
    rho = max |r_j|, and the series of each `GRAM_ROWS`-row tile of R at the one for rho = the tile's largest
    |R_jj'|: by Cauchy-Schwarz a tail is at most rho^L times the norms of its two coefficient vectors.  A
    correlation beyond the reach of the rule's orders (rho^L > SERIES_TOL at its last order, rho > ~0.88) leaves
    the series: its term, E[sigma(s_j z) g(z')] or K_jj', is the two-dimensional integral
    `quadrature.correlated_expectation`, at a cost per such pair or row.
    """
    if any(kink != 0.0 for kink in sigma.kink_points):
        raise SimulationError(f"activation '{sigma.name}' has a kink away from 0: {sigma.kink_points}")
    rule = split_rule()
    max_order = rule.basis.shape[1] - 1
    reach = SERIES_TOL ** (1.0 / max_order)  # the largest correlation whose series ends within the rule's orders
    p = len(a_hat)
    s = np.linalg.norm(W1, axis=1)
    unit = W1 / s[:, None]
    r = unit @ w_star

    vals = sigma.fn(s[:, None] * rule.nodes[None, :])  # sigma(s_j z) on the nodes, (p, nodes)
    ac = a_hat[:, None] * ((vals * rule.weights) @ rule.basis)  # a_j c_l(s_j)
    g_vals = link.fn(rule.nodes)
    g = (g_vals * rule.weights) @ rule.basis
    far = np.abs(r) > reach
    order = _series_order(np.max(np.abs(r[~far]), initial=0.0), max_order)
    cross = np.sum(ac[~far, :order + 1] * g[:order + 1] * r[~far, None] ** np.arange(order + 1))
    if far.any():
        cross += a_hat[far] @ correlated_expectation(sigma.fn, link.fn, s[far], 1.0, r[far])

    # the diagonal exactly, then the pairs j < j', each counted twice: order 0 here, the rest tile by tile
    quad = (a_hat * a_hat) @ ((vals * vals) @ rule.weights) + ac[:, 0].sum() ** 2 - ac[:, 0] @ ac[:, 0]
    for start in range(0, p, GRAM_ROWS):
        rows = slice(start, min(start + GRAM_ROWS, p))
        corr = unit[rows] @ unit[start:].T
        corr[np.tril_indices(len(corr))] = 0.0
        far = np.abs(corr) > reach
        if far.any():  # K_jj' of these pairs, less the order-0 term counted above
            i, k = np.nonzero(far)
            i, k = i + start, k + start
            kern = correlated_expectation(sigma.fn, sigma.fn, s[i], s[k], corr[far])
            quad += 2.0 * ((a_hat[i] * a_hat[k]) @ kern - ac[i, 0] @ ac[k, 0])
            corr[far] = 0.0
        power = np.ones_like(corr)
        for ell in range(1, _series_order(np.max(np.abs(corr)), max_order) + 1):
            power *= corr
            quad += 2.0 * (ac[rows, ell] @ (power @ ac[start:, ell]))
    return float((g_vals * g_vals) @ rule.weights - 2.0 * cross / math.sqrt(p) + quad / p)


def _series_order(rho: float, max_order: int) -> int:
    """The smallest order L with rho^L <= SERIES_TOL, at most `max_order` (which a rho within reach needs at most)."""
    if rho == 0.0:
        return 0
    return min(max_order, math.ceil(math.log(SERIES_TOL) / math.log(rho)))


@dataclass
class TauSet:
    """Scalar order parameters of the test-error formula."""

    tau0: np.ndarray
    tau1: np.ndarray
    tau2: float
    tau3: float

    def __post_init__(self):
        vals = [*np.atleast_1d(self.tau0), *np.atleast_1d(self.tau1), self.tau2, self.tau3]
        if not np.all(np.isfinite(vals)):
            raise SimulationError(f"non-finite tau set: {vals}")


def group_sums(values: np.ndarray, groups: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(k, dtype=values.dtype)
    np.add.at(out, groups, values)
    return out


def empirical_tau(
    a_hat: np.ndarray,
    groups: np.ndarray,
    theta: np.ndarray,
    W: np.ndarray,
    problem: DetEquivProblem,
) -> TauSet:
    """Measured order parameters of a fitted readout, with the kernels of the theory's `problem`.

    tau0_q = sum_{j in group q} a_j / sqrt(p)       (group-mean coefficient)
    tau1_q = sum_{j in group q} a_j theta_j / sqrt(p)
    tau2   = a^T (Cbar_e o W W^T) a / p,  Cbar = E_kappa[c1 c1^T] = problem.cbar
    tau3   = a^T diag(E_kappa[r]) a / p,  E_kappa[r] = problem.rbar
    Both are quadratic forms of nonnegative kernels, so a negative one is an error.
    """
    p, k = len(a_hat), problem.k
    tau0 = group_sums(a_hat, groups, k) / np.sqrt(p)
    tau1 = group_sums(a_hat * theta, groups, k) / np.sqrt(p)
    # a^T (Cbar_e o WW^T) a = sum_{qq'} Cbar_qq' s_q^T s_q' with s_q = sum_{j in q} a_j w_j
    s = np.zeros((k, W.shape[1]))
    np.add.at(s, groups, a_hat[:, None] * W)
    tau2 = float(np.einsum("qr,qi,ri->", problem.cbar, s, s) / p)
    tau3 = float(np.sum(problem.rbar[groups] * a_hat**2) / p)
    if tau2 < -1e-8 or tau3 < -1e-8:
        raise SimulationError(f"empirical tau2/tau3 must be nonnegative quadratic forms, got {tau2}, {tau3}")
    return TauSet(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3)


# --------------------------------------------------------------------------- #
# spectra
# --------------------------------------------------------------------------- #


def bulk_spectrum(phi_tilde: np.ndarray) -> np.ndarray:
    """All p eigenvalues of phi_tilde^T phi_tilde / p (zeros included)."""
    n, p = phi_tilde.shape
    try:
        if n < p:
            nz = np.linalg.eigvalsh(phi_tilde @ phi_tilde.T / p)
            eigs = np.concatenate([np.zeros(p - n), nz])
        else:
            eigs = np.linalg.eigvalsh(phi_tilde.T @ phi_tilde / p)
    except np.linalg.LinAlgError as exc:
        raise SimulationError("eigensolver failed on the bulk covariance") from exc
    return np.sort(np.clip(eigs, 0.0, None))


# --------------------------------------------------------------------------- #
# full pipeline
# --------------------------------------------------------------------------- #


@dataclass
class RunResult:
    """The observables of one seed: exact test error, order parameters, bulk spectrum, spike deviation."""

    gen_error: float
    tau: TauSet
    spike_dev: float
    eigenvalues: np.ndarray | None = None


def run_experiment(
    config: ExperimentConfig,
    seed_index: int = 0,
    compute_spectrum: bool = False,
) -> RunResult:
    """Run the full two-step pipeline for one seed: every draw comes from `make_rng(config.seed, seed_index)`."""
    sigma = config.activation_spec()
    link = config.link_spec()

    rng = make_rng(config.seed, seed_index)
    w_star = rng.standard_normal(config.d)
    w_star /= np.linalg.norm(w_star)
    W0 = sample_first_layer(config.p, config.d, rng)
    layer = sample_second_layer(config.p, config.vocab, rng)
    X0, y0, _ = sample_data(config.n0, config.d, w_star, link, rng)
    W1 = gradient_step(W0, layer.a0, X0, y0, config.eta, sigma)
    del X0, y0

    X, y, _ = sample_data(config.n, config.d, w_star, link, rng)
    phi = features(W1, X, sigma)
    eigs = bulk_spectrum(extended_features(phi, layer.group_sizes)[1]) if compute_spectrum else None
    a_hat = ridge_fit(phi, y, config.lam)

    err = empirical_generror(a_hat, W1, link, w_star, sigma)
    tau = empirical_tau(a_hat, layer.groups, W0 @ w_star, W0, problem_from_config(config))
    # the surrogate W0 + u w*^T with the theory's spike law u_j = spike_vocabulary[g(j)]
    dev = spike_deviation(W1, W0 + np.outer(config.spike_vocabulary()[layer.groups], w_star))
    return RunResult(gen_error=err, tau=tau, spike_dev=dev, eigenvalues=eigs)
