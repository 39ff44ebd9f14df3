"""Reference implementations and paper formulas that only the suite uses.

The generic order-L Hermite coefficients and the second moment, each with
its own evaluation of sigma (the package builds only orders 0 and 1, in one
pass), and their scalar forms; the one-state form of the batched fixed-point
map, the damped Picard iteration that the Anderson engine replaced, the
conjugate of a state (the solution at the conjugate point, since the
equations have real coefficients), the kernel blocks of a state that the
Schur block is built from, the exact rho-derivatives tau2 and tau3 by
the implicit function theorem, the dense (k+1+p)-square inverse of the
deterministic equivalent, the Stieltjes transform and the test-error
prediction at a single point, each from a fresh solve, the empirical
Stieltjes transform, the support edges of a density curve, the bulk-weight
covariance diagnostic, the label gradient with fresh per-chunk
temporaries, and the Monte Carlo test error that the exact one replaced,
with a run that reports both.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from spikedrf import detequiv, quadrature, simulate
from spikedrf.detequiv import (
    DEFAULT_TOL,
    DetEquivProblem,
    FixedPointState,
    NonConvergenceError,
    _kernels,
    _solve_L,
    fixed_point_map,
    schur_block,
    solve_fixed_point,
)
from spikedrf.generror import asymptotic_tau, expected_lambda
from spikedrf.model import ActivationSpec, LinkSpec
from spikedrf.quadrature import QuadratureError, cached_rule, hermite_basis
from spikedrf.simulate import gradient_step, sample_data
from spikedrf.spectrum import DensityCurve

DEFAULT_TEST_POINTS = 10_000
# rows per prediction block of the Monte Carlo test error; the plug-in tests pin its bits
PREDICTION_ROWS = 1024


def _shifted_values(sigma: Callable[[np.ndarray], np.ndarray], shifts) -> tuple:
    """(inner rule, sigma(nodes + shift) for each shift), on the rule `quadrature.DEFAULT_INNER_NODES` names now."""
    rule = cached_rule(quadrature.DEFAULT_INNER_NODES)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    vals = sigma(rule.nodes[None, :] + shifts[:, None])  # (n_shift, n_nodes)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("activation produced non-finite values on the quadrature nodes")
    return rule, vals


def shifted_coeffs(sigma: Callable[[np.ndarray], np.ndarray], shifts, max_order: int) -> np.ndarray:
    """Coefficients c_l(shift) = E_z[sigma(z + shift) h_l(z)], l = 0..max_order, shape (len(shifts), max_order + 1)."""
    rule, vals = _shifted_values(sigma, shifts)
    return (vals * rule.weights[None, :]) @ hermite_basis(rule.nodes, max_order)


def shifted_second_moment(sigma: Callable[[np.ndarray], np.ndarray], shifts) -> np.ndarray:
    """E_z[sigma(z + shift)^2] for each shift, on the inner rule."""
    rule, vals = _shifted_values(sigma, shifts)
    return (vals * vals) @ rule.weights


def parseval_residual(sigma: Callable[[np.ndarray], np.ndarray], shifts) -> np.ndarray:
    """Order->=2 Hermite mass E[sigma^2] - c0^2 - c1^2 for each shift, with the package's sign check and clip."""
    c = shifted_coeffs(sigma, shifts, 1)
    r = shifted_second_moment(sigma, shifts) - c[..., 0] ** 2 - c[..., 1] ** 2
    if np.min(r) < -1e-10:
        raise QuadratureError(f"negative residual second moment {np.min(r):.3e}; quadrature failure")
    return np.clip(r, 0.0, None)


def hermite_polynomial(order: int, x) -> np.ndarray | float:
    """Orthonormal probabilists' Hermite polynomial h_order evaluated at x."""
    if order < 0:
        raise ValueError("order must be >= 0")
    arr = np.asarray(x, dtype=float)
    val = hermite_basis(arr, order)[..., order]
    if np.isscalar(x) or arr.ndim == 0:
        return float(val)
    return val


def shifted_hermite_coeff(
    sigma: Callable[[np.ndarray], np.ndarray],
    order: int,
    kappa: float,
    zeta: float,
) -> float:
    """c_order(kappa, zeta) = E_z[sigma(z + kappa*zeta) h_order(z)]."""
    return float(shifted_coeffs(sigma, np.array([kappa * zeta]), order)[0, order])


def residual_second_moment(
    sigma: Callable[[np.ndarray], np.ndarray],
    kappa: float,
    zeta: float,
) -> float:
    """Order->=2 Hermite mass of sigma(. + kappa*zeta), by Parseval difference."""
    return float(parseval_residual(sigma, [kappa * zeta])[0])


def tilted(problem: DetEquivProblem, V: np.ndarray, nu: np.ndarray, rho: tuple) -> tuple:
    """(V + rho1 cbar, nu + rho2 rbar) of one state tilted by rho = (rho1, rho2); a zero component adds nothing."""
    rho1, rho2 = rho
    return (V + rho1 * problem.cbar if rho1 else V), (nu + rho2 * problem.rbar if rho2 else nu)


def scalar_fixed_point_map(problem: DetEquivProblem, state: FixedPointState, rho: tuple,
                           printed: bool = False) -> tuple:
    """(V', nu', b') of one state tilted by rho: the map written for a single spectral point, operation for operation.

    printed=True is the form the literature prints (alpha in place of
    alpha/beta, b from the diagonal of the full k x k inverse), which the
    package does not implement; the acceptance suite shows it failing.
    """
    z, V, nu, b = state.z, state.V, state.nu, state.b
    V_eff, _ = tilted(problem, V, nu, rho)
    L = _solve_L(V_eff, b)
    psi = np.diag(b) - L * np.outer(b, b)
    quad = (psi.reshape(1, -1) @ problem.c1c1.T)[0]
    chi = (quad + problem.resid @ b) / problem.beta
    wd = problem.kappa_w / (1.0 + chi)
    sf = problem.alpha if printed else problem.sample_factor
    V_new = sf * (wd[None, :] @ problem.c1c1)[0].reshape(V.shape)
    nu_new = sf * (problem.resid.T @ wd)
    V_new_eff, nu_new_eff = tilted(problem, V_new, nu_new, rho)
    L_new = _solve_L(V_new_eff, b)
    if printed:
        M = L_new + np.diag(nu_new_eff) - z * np.eye(problem.k)
        b_new = problem.pi * problem.beta * np.diag(np.linalg.inv(M))
    else:
        b_new = problem.pi * problem.beta / (np.diag(L_new) + nu_new_eff - z)
    return V_new, nu_new, b_new


def damped_fixed_point(
    problem: DetEquivProblem,
    z: complex,
    start: FixedPointState | None = None,
    printed: bool = False,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
) -> FixedPointState:
    """Damped Picard iteration of `scalar_fixed_point_map` at z, from `start` (default: the cold state).

    The step X + gamma (F(X) - X) starts at gamma = 1/2 and halves, down to
    1/64, whenever the residual (largest entry of F(X) - X) rises.  Returns
    the map value at the first iterate whose residual is below tol.  This is
    the reference for the Anderson engine of `solve_batch`; printed=True
    iterates the printed form of the equations.
    """
    if start is None:
        start = FixedPointState(z, np.zeros((problem.k, problem.k), complex), np.zeros(problem.k, complex),
                                problem.pi * problem.beta / (-z))
    state = FixedPointState(z, start.V, start.nu, start.b)
    gamma, prev = 0.5, np.inf
    for it in range(1, max_iter + 1):
        new = scalar_fixed_point_map(problem, state, (0.0, 0.0), printed=printed)
        step = [a - b for a, b in zip(new, (state.V, state.nu, state.b))]
        res = max(np.abs(a).max() for a in step)
        if res < tol:
            return FixedPointState(z, *new, residual=float(res))
        if res > prev:
            gamma = max(gamma / 2.0, 1.0 / 64.0)
        prev = res
        state = FixedPointState(z, *(a + gamma * b for a, b in zip((state.V, state.nu, state.b), step)))
    raise NonConvergenceError(f"damped iteration did not converge at z={z} (residual {prev:.3e})")


def state_kernels(problem: DetEquivProblem, state: FixedPointState) -> tuple:
    """(V_eff, nu_eff, L, psi, chi, wd) of one untilted state: `detequiv._kernels` of a batch of one."""
    batch = (state.V[None], state.nu[None], state.b[None], np.zeros((1, 2)))
    return tuple(a[0] for a in _kernels(problem, *batch))


def bulk_kernels(problem: DetEquivProblem, state: FixedPointState) -> tuple:
    """(bulk_diag_inv (k,), chi (m,)) of a state, from the package's one kernel derivation.

    bulk_diag_inv[q] = L_qq + nu_q - z is the inverse of the within-group bulk
    resolvent entry; chi is chi(kappa) on the outer quadrature nodes.
    """
    _, nu_eff, L, _, chi, _ = state_kernels(problem, state)
    return np.diag(L) + nu_eff - state.z, chi


class Blocks(NamedTuple):
    """The kernels of a state that the Schur block is built from, on index 0 = label, 1..k = group means."""

    psi: np.ndarray  # diag(b) - L o (b b^T)
    S: np.ndarray  # E_kappa[(kappa^2 - 1) c1 c1^T / (1 + chi)]
    A11: np.ndarray  # (alpha/beta) E_kappa[iota iota^T / (1 + chi)], iota = (g, c0_1, ..., c0_k)
    A21t: np.ndarray  # (alpha/beta) E_kappa[kappa c1 iota^T / (1 + chi)], one row per vocabulary entry


def blocks(problem: DetEquivProblem, state: FixedPointState) -> Blocks:
    """The `Blocks` of a state, each averaged entry by entry from its definition over the kappa nodes."""
    _, _, _, psi, chi, _ = state_kernels(problem, state)
    w = problem.kappa_w / (1.0 + chi)
    iota = np.column_stack([problem.g, problem.c0])
    sf = problem.sample_factor
    return Blocks(psi=psi, S=np.einsum("m,mq,mr->qr", (problem.kappa**2 - 1.0) * w, problem.c1, problem.c1),
                  A11=sf * np.einsum("m,mi,mj->ij", w, iota, iota),
                  A21t=sf * np.einsum("m,mq,mj->qj", problem.kappa * w, problem.c1, iota))


def conjugate(state: FixedPointState) -> FixedPointState:
    """The state at conj(z): every order parameter conjugated."""
    return FixedPointState(
        np.conj(state.z), np.conj(state.V), np.conj(state.nu), np.conj(state.b), state.residual, state.stats
    )


def exact_tau2_tau3(problem: DetEquivProblem, tau0: np.ndarray, state: FixedPointState) -> tuple:
    """(tau2, tau3) as exact rho-derivatives of r^T C^{-1} r, r = [1; -tau0], at an unperturbed state on z < 0.

    Implicit function theorem: the fixed point X = F(X, rho) moves along rho by
    dX = (I - J)^{-1} dF/drho, with the k^2 + 2k unknowns X = (V, nu, b).  The
    map is holomorphic in X and linear in rho, so every derivative is taken by
    complex step (Squire & Trapp, SIAM Review 1998), f'(x) = Im f(x + ih) / h,
    which has no subtractive cancellation and so takes h = 1e-30: J from one
    batched map call at X + ih e_j, dF/drho from the map of the problem at
    rho = ih e_i, and the total derivative of the quadratic form from the
    complex Schur block at (X + ih dX, rho = ih e_i).
    """
    h, k = 1e-30, problem.k
    n = k * k + 2 * k
    x = np.concatenate([state.V.ravel(), state.nu, state.b]).astype(complex)
    z = np.full(n, state.z, dtype=complex)

    def split(rows):
        return rows[:, :k * k].reshape(-1, k, k), rows[:, k * k:k * k + k], rows[:, k * k + k:]

    def mapped(rows, rho):
        V, nu, b = fixed_point_map(problem, z[:len(rows)], *split(rows), np.tile(rho, (len(rows), 1)))
        return np.concatenate([V.reshape(len(rows), -1), nu, b], axis=1)

    J = mapped(x + 1j * h * np.eye(n), (0.0, 0.0)).imag.T / h
    r = np.concatenate([[1.0], -tau0])
    out = []
    for rho in ((1j * h, 0.0), (0.0, 1j * h)):
        dX = np.linalg.solve(np.eye(n) - J, mapped(x[None], rho).imag[0] / h)
        Cinv = schur_block(problem, FixedPointState(state.z, *(a[0] for a in split((x + 1j * h * dX)[None]))), rho)[0]
        out.append(float((r @ Cinv @ r).imag / h))
    return tuple(out)


def assemble_ge(problem: DetEquivProblem, state: FixedPointState, theta: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Dense deterministic-equivalent extended resolvent, (k+1+p) square.

    Block layout: coordinates 0..k are (label, group means); the remaining p
    are the centered features.
    """
    kern = blocks(problem, state)
    bulk_diag_inv, _ = bulk_kernels(problem, state)
    k = problem.k
    p = len(theta)
    sf = problem.sample_factor
    K = state.V + sf * kern.S
    dim = k + 1 + p
    M = np.zeros((dim, dim), dtype=complex)
    M[: k + 1, : k + 1] = kern.A11 - state.z * np.eye(k + 1)
    M21 = theta[:, None] * kern.A21t[groups]
    M[k + 1 :, : k + 1] = M21
    M[: k + 1, k + 1 :] = M21.T
    U = np.zeros((p, k))
    U[np.arange(p), groups] = theta
    M[k + 1 :, k + 1 :] = np.diag(bulk_diag_inv[groups]) + (U @ K @ U.T).astype(complex)
    return np.linalg.inv(M)


def stieltjes(problem: DetEquivProblem, z: complex) -> complex:
    """m(z) of the bulk feature covariance from a fresh solve at z."""
    return complex(detequiv.stieltjes(problem, solve_fixed_point(problem, z).b))


def asymptotic_generror(problem: DetEquivProblem, lam: float) -> float:
    """Deterministic test-error prediction at one lambda: fixed point at -lambda, tau, then E[Lambda]."""
    return expected_lambda(asymptotic_tau(problem, lam), problem)


def empirical_stieltjes(eigs: np.ndarray, z: complex) -> complex:
    """m(z) = mean of 1/(eig - z) over an eigenvalue sample."""
    return complex(np.mean(1.0 / (eigs - z)))


def support_edges(curve: DensityCurve, threshold: float = 1e-4) -> list:
    """Maximal grid intervals where the density exceeds `threshold`."""
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    above = curve.density > threshold
    edges = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = curve.grid[i]
        elif not flag and start is not None:
            edges.append((start, curve.grid[i - 1]))
            start = None
    if start is not None:
        edges.append((start, curve.grid[-1]))
    return edges


def support_width(curve: DensityCurve) -> float:
    """Distance from the left edge of the first support interval to the right edge of the last."""
    edges = support_edges(curve)
    if not edges:
        return 0.0
    return edges[-1][1] - edges[0][0]


def bulk_covariance_diagnostic(
    W0: np.ndarray,
    a0: np.ndarray,
    X0: np.ndarray,
    y0: np.ndarray,
    eta: float,
    sigma: ActivationSpec,
    link: LinkSpec,
) -> tuple:
    """(empirical, predicted) mean squared row norm of the trained weights with the rank-one signal removed.

    Valid for odd sigma (c2 = 0) and uniform second layer sqrt(p) a_j = 1; the
    prediction is 1 + E[sigma'_{>1}(xi)^2] etatilde^2 (1/alpha0) E[g(xi)^2]
    with alpha0 = n0/d (width p = d is assumed by that scaling).
    """
    p, d = W0.shape
    n0 = X0.shape[0]
    rule = cached_rule(201)
    c = shifted_coeffs(sigma.fn, np.zeros(1), 2)[0]
    if abs(c[2]) > 1e-8:
        raise ValueError(f"diagnostic requires c2(sigma)=0 (odd activation), got c2={c[2]:.3g}")
    if not np.allclose(a0 * np.sqrt(p), 1.0, atol=1e-12):
        raise ValueError("diagnostic requires uniform second layer sqrt(p) a_j = 1")

    W1 = gradient_step(W0, a0, X0, y0, eta, sigma)
    u_raw = eta * c[1] * a0 / np.sqrt(p)
    v_raw = X0.T @ y0 / n0
    bulk = W1 - np.outer(u_raw, v_raw)
    empirical = float(np.mean(np.sum(bulk**2, axis=1)))

    eta_tilde = eta / d
    alpha0 = n0 / d
    sig_gt1 = float(rule.weights @ sigma.deriv(rule.nodes) ** 2) - c[1] ** 2
    e_g2 = float(rule.weights @ link.fn(rule.nodes) ** 2)
    predicted = 1.0 + sig_gt1 * eta_tilde**2 * (1.0 / alpha0) * e_g2
    return empirical, predicted


def label_gradient_unbuffered(W0: np.ndarray, X0: np.ndarray, y0: np.ndarray, sigma: ActivationSpec,
                              chunk: int) -> np.ndarray:
    """sum over batches of `chunk` rows of (sigma'(X0 W0^T) * y0)^T X0, each batch's temporaries allocated afresh."""
    n0 = X0.shape[0]
    grad = np.zeros_like(W0)
    for start in range(0, n0, chunk):
        sl = slice(start, min(start + chunk, n0))
        grad += (sigma.deriv(X0[sl] @ W0.T) * y0[sl, None]).T @ X0[sl]
    return grad


def monte_carlo_generror(
    a_hat: np.ndarray,
    W1: np.ndarray,
    link: LinkSpec,
    w_star: np.ndarray,
    sigma: ActivationSpec,
    rng: np.random.Generator,
):
    """Monte Carlo estimate of E[(y_new - f(x_new))^2] over DEFAULT_TEST_POINTS fresh samples, with its standard error.

    The test points are drawn at once; the predictions are formed `PREDICTION_ROWS` rows at a time, so
    beyond the drawn points only one block of features and the prediction vector are alive.
    """
    X, y, _ = sample_data(DEFAULT_TEST_POINTS, W1.shape[1], w_star, link, rng)
    pred = np.empty(DEFAULT_TEST_POINTS)
    for b in range(0, DEFAULT_TEST_POINTS, PREDICTION_ROWS):
        pred[b:b + PREDICTION_ROWS] = sigma.fn(X[b:b + PREDICTION_ROWS] @ W1.T) @ a_hat
    resid = (y - pred / np.sqrt(len(a_hat))) ** 2
    return float(resid.mean()), float(resid.std(ddof=1) / np.sqrt(DEFAULT_TEST_POINTS))


def run_with_monte_carlo(monkeypatch, config, seed_index: int) -> tuple:
    """(`simulate.run_experiment`'s result, the Monte Carlo (error, SE) of the network it trained).

    The network is the one whose exact test error the run takes.  The Monte Carlo draws from the run's own
    generator after the run: the exact error draws nothing and nothing after it draws, so these are the
    test points the run drew when its test error was a Monte Carlo.
    """
    captured = {}
    make_rng, exact = simulate.make_rng, simulate.empirical_generror

    def recording_rng(*args):
        captured["rng"] = make_rng(*args)
        return captured["rng"]

    def recording_error(*args):
        captured["network"] = args
        return exact(*args)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "make_rng", recording_rng)
        patch.setattr(simulate, "empirical_generror", recording_error)
        result = simulate.run_experiment(config, seed_index)
    return result, monte_carlo_generror(*captured["network"], captured["rng"])
