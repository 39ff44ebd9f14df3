"""Asymptotic test error of the ridge readout from the deterministic equivalent.

At z = -lambda the (k+1)-dimensional Schur block of the equivalent resolvent,

    C^{-1} = A11 + lambda I - A21t^T (psi^{-1} + (alpha/beta) S)^{-1} A21t,

yields the mean order parameters (tau0 from its label/mean rows, tau1 through
the cross block), while the variance parameters tau2 and tau3 are rho-derivatives
of C^{-1} at rho = 0, taken by central finite differences: each side solves the
perturbed problem `problem.perturbed(rho)`, warm-started from the unperturbed
state.  The central difference truncates at O(h^2): at h = DEFAULT_RHO_STEP
it is 7-8e-6 relative in tau2 (Fig.-2 configs at alpha = 0.5) against the exact
implicit-function-theorem derivative that `tests/oracles.exact_tau2_tau3`
takes by complex step.  A cold state at z = -lambda comes down the real-axis
`ladder`, and an alpha sweep (`tau_sweep`) warm-starts each alpha from the
previous one's state, falling back to the ladder when that fails (a rejected
root included); an alpha that fails even so is recorded, and the sweep goes on.
The test error is then the Gaussian average of

    Lambda(kappa) = (g(kappa) - sum_q c0(kappa,zeta_q) tau0_q
                              - kappa sum_q c1(kappa,zeta_q) tau1_q)^2
                    - (sum_q c1(kappa,zeta_q) tau1_q)^2 + tau2 + tau3,

with each of tau2, tau3 appearing exactly once; the subtracted square is the
target-direction part of the bulk variance, and cancels tau2 exactly in the
realizable linear case.
"""
from __future__ import annotations

import numpy as np

from .detequiv import (
    DerivedKernels,
    DetEquivProblem,
    FixedPointError,
    FixedPointState,
    UnphysicalRootError,
    blocks,
    solve_fixed_point,
    solver_totals,
)
from .simulate import TauSet

DEFAULT_RHO_STEP = 1e-4


def _variance_kernel_inverse(problem: DetEquivProblem, kern: DerivedKernels) -> np.ndarray:
    """H = (psi^{-1} + sf*S)^{-1}, computed without forming psi^{-1}."""
    sf = problem.sample_factor
    Sp = sf * kern.S
    k = problem.k
    return np.linalg.solve(np.eye(k, dtype=complex) + kern.psi @ Sp, kern.psi)


def schur_C_inverse(problem: DetEquivProblem, state: FixedPointState, kern: DerivedKernels | None = None) -> np.ndarray:
    """The real symmetric (k+1)-square Schur block C^{-1} at state.z: index 0 is the label row, 1..k the group means."""
    kern = kern or blocks(problem, state)
    H = _variance_kernel_inverse(problem, kern)
    A21t = kern.A21t.astype(complex)
    Cinv = kern.A11 - state.z * np.eye(problem.k + 1) - A21t.T @ H @ A21t
    if np.max(np.abs(Cinv.imag)) > 1e-8 * max(1.0, np.max(np.abs(Cinv.real))):
        raise RuntimeError(f"Schur block at z={state.z} is not real; max imag {np.max(np.abs(Cinv.imag)):.3e}")
    return 0.5 * (Cinv.real + Cinv.real.T)


def tau0(Cinv: np.ndarray, lam: float) -> np.ndarray:
    """Mean-fit coefficients: the lambda-corrected mean block solved against the label row.

    The asymptotic mean fit is unpenalized, so the bare Gram (C^{-1} block
    minus lambda I) appears; the finite-p diag(1/pi)/p correction is dropped.
    """
    k = Cinv.shape[0] - 1
    M = Cinv[1:, 1:] - lam * np.eye(k)
    rhs = Cinv[1:, 0]
    try:
        out = np.linalg.solve(M, rhs)
        if np.linalg.norm(M @ out - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
            return out
    except np.linalg.LinAlgError:
        pass
    # degenerate mean basis (duplicated vocabulary entries): minimum-norm fit
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def tau1(problem: DetEquivProblem, kern: DerivedKernels, tau0_vec: np.ndarray) -> np.ndarray:
    """Target-direction coefficients (psi^{-1} + sf*S)^{-1} A21t [1; -tau0]."""
    H = _variance_kernel_inverse(problem, kern)
    r = np.concatenate([[1.0], -tau0_vec]).astype(complex)
    out = H @ kern.A21t.astype(complex) @ r
    return out.real


def tau2_tau3(
    problem: DetEquivProblem,
    tau0_vec: np.ndarray,
    base_state: FixedPointState,
    spent: list | None = None,
):
    """Variance parameters by central finite differences of C^{-1} in rho, with step DEFAULT_RHO_STEP.

    Warm-starts every perturbed solve from the unperturbed solution; `spent`, when given, gets each state.
    """
    r = np.concatenate([[1.0], -tau0_vec])

    def quad_form(rho) -> float:
        perturbed = problem.perturbed(rho)
        state = solve_fixed_point(perturbed, base_state.z, warm_start=base_state)
        if spent is not None:
            spent.append(state)
        return float(r @ schur_C_inverse(perturbed, state) @ r)

    def derivative(h: float, which: int) -> float:
        plus = quad_form((h, 0.0) if which == 0 else (0.0, h))
        minus = quad_form((-h, 0.0) if which == 0 else (0.0, -h))
        return (plus - minus) / (2 * h)

    return derivative(DEFAULT_RHO_STEP, 0), derivative(DEFAULT_RHO_STEP, 1)


def asymptotic_tau(problem: DetEquivProblem, lam: float, state: FixedPointState | None = None,
                   spent: list | None = None) -> TauSet:
    """The full TauSet from the state at z = -lambda (solved cold unless given); `spent` gets the perturbed states."""
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    state = state or solve_fixed_point(problem, complex(-lam, 0.0))
    kern = blocks(problem, state)
    t0 = tau0(schur_C_inverse(problem, state, kern), lam)
    t1 = tau1(problem, kern, t0)
    t2, t3 = tau2_tau3(problem, t0, state, spent)
    return TauSet(tau0=t0, tau1=t1, tau2=t2, tau3=t3)


def tau_sweep(problem: DetEquivProblem, alphas, lam: float) -> tuple:
    """([(problem at alpha, TauSet or FixedPointError)], solver summary): continuation in alpha at z = -lambda.

    The first alpha, any whose warm start from the previous alpha fails, and any after a failed alpha takes the
    real-axis ladder.  An alpha whose ladder or `asymptotic_tau` raises a FixedPointError is recorded with that
    error, and the sweep goes on; any other exception propagates.
    """
    z = complex(-lam, 0.0)
    spent, points, state, fallbacks = [], [], None, 0
    for alpha in alphas:
        at_alpha = problem.with_alpha(alpha)
        try:
            try:
                state = solve_fixed_point(at_alpha, z, warm_start=state)
            except FixedPointError as exc:
                if state is None:
                    raise
                spent.append(exc)
                fallbacks += 1
                state = solve_fixed_point(at_alpha, z)
            spent.append(state)
            points.append((at_alpha, asymptotic_tau(at_alpha, lam, state, spent)))
        except FixedPointError as exc:
            spent.append(exc)
            points.append((at_alpha, exc))
            state = None
    solver = solver_totals(spent)
    solver["fallbacks"]["cold_ladder"] = fallbacks
    solver["rejected_roots"] = sum(isinstance(r, UnphysicalRootError) for r in spent)
    return points, solver


def expected_lambda(tau: TauSet, problem: DetEquivProblem) -> float:
    """E_kappa[Lambda_kappa] by the outer quadrature rule."""
    mean_part = problem.g - problem.c0 @ tau.tau0 - problem.kappa * (problem.c1 @ tau.tau1)
    spike_var = problem.c1 @ tau.tau1
    return float(problem.kappa_w @ (mean_part**2 - spike_var**2)) + tau.tau2 + tau.tau3
