"""Asymptotic test error of the ridge readout from the deterministic equivalent.

At z = -lambda the (k+1)-dimensional Schur block of the equivalent resolvent
(`detequiv.schur_block`),

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
    DetEquivProblem,
    FixedPointError,
    FixedPointState,
    UnphysicalRootError,
    schur_block,
    solve_fixed_point,
    solver_totals,
)
from .simulate import TauSet

DEFAULT_RHO_STEP = 1e-4


def schur_C_inverse(problem: DetEquivProblem, state: FixedPointState) -> tuple:
    """(C^{-1}, H A21t) at state.z: the `schur_block`, real and symmetrised (index 0 the label row, 1..k the group
    means), and the complex map that takes [1; -tau0] to tau1."""
    Cinv, H, A21t = schur_block(problem, state)
    if np.max(np.abs(Cinv.imag)) > 1e-8 * max(1.0, np.max(np.abs(Cinv.real))):
        raise RuntimeError(f"Schur block at z={state.z} is not real; max imag {np.max(np.abs(Cinv.imag)):.3e}")
    return 0.5 * (Cinv.real + Cinv.real.T), H @ A21t


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


def tau2_tau3(
    problem: DetEquivProblem,
    tau0_vec: np.ndarray,
    base_state: FixedPointState,
    spent: list | None = None,
):
    """Variance parameters by central finite differences of C^{-1} in rho, with step DEFAULT_RHO_STEP.

    Warm-starts every perturbed solve from the unperturbed solution; `spent`, when given, gets each state.
    """
    h, r, forms = DEFAULT_RHO_STEP, np.concatenate([[1.0], -tau0_vec]), []
    for rho in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        perturbed = problem.perturbed(rho)
        state = solve_fixed_point(perturbed, base_state.z, warm_start=base_state)
        if spent is not None:
            spent.append(state)
        forms.append(float(r @ schur_C_inverse(perturbed, state)[0] @ r))
    return (forms[0] - forms[1]) / (2 * h), (forms[2] - forms[3]) / (2 * h)


def asymptotic_tau(problem: DetEquivProblem, lam: float, state: FixedPointState | None = None,
                   spent: list | None = None) -> TauSet:
    """The full TauSet from the state at z = -lambda (solved cold unless given); `spent` gets the perturbed states."""
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    state = state or solve_fixed_point(problem, complex(-lam, 0.0))
    Cinv, to_tau1 = schur_C_inverse(problem, state)
    t0 = tau0(Cinv, lam)
    t2, t3 = tau2_tau3(problem, t0, state, spent)
    return TauSet(tau0=t0, tau1=(to_tau1 @ np.concatenate([[1.0], -t0])).real, tau2=t2, tau3=t3)


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
