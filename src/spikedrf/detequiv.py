"""Self-consistent equations for the deterministic equivalent of the feature resolvent.

For a spike vocabulary {zeta_q} (the k distinct values of the rank-one spike
coefficients u_j) with weights {pi_q}, sample ratio alpha = n/d and width
ratio beta = p/d, the order parameters (V, nu, b) at a spectral point
z not in R+ solve

    V_qq'  = (alpha/beta) E_kappa[ c1(kappa,zeta_q) c1(kappa,zeta_q') / (1+chi) ]
    nu_q   = (alpha/beta) E_kappa[ r(kappa,zeta_q) / (1+chi) ]
    b_q    = pi_q beta / ( L_qq + nu_q - z ),        L = (V^{-1} + diag(b))^{-1}
    beta chi(kappa) = sum_{qq'} psi_qq' c1(kappa,zeta_q) c1(kappa,zeta_q')
                      + sum_q b_q r(kappa,zeta_q),   psi = diag(b) - L o (b b^T)

with c1 the shifted first Hermite coefficient and r the order->=2 Parseval
residual.  The Stieltjes transform of the bulk feature covariance is
m(z) = (1/beta) sum_q b_q(z).

Normalization convention
------------------------
The literature states this system with alpha in place of alpha/beta and
m = beta * sum(b); for beta != 1 that combination is not self-consistent
(it violates m ~ -1/z).  The convention above ("spectral", the default) is
re-derived from leave-one-out arguments and is frozen by the random-features
cross-check in the acceptance suite.  The literal printed combination is kept
as normalization="printed" purely so the calibration test can demonstrate
the mismatch.

A perturbation pair rho = (rho1, rho2) tilts the quadratic form by
rho1 * (E[c1 c1^T])_e o WW^T + rho2 * diag(E[r])_e; inside the equations this
is exactly V -> V + rho1*Cbar and nu -> nu + rho2*rbar wherever (V, nu) feed
the W-average.  The perturbation belongs to the theory instance, not to a
spectral point: `problem.perturbed(rho)` is the tilted problem, and every
solve, kernel and functional of it sees the tilt.  Derivatives in rho at
z = -lambda generate the variance-type order parameters of the test-error
formula.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ActivationSpec, ExperimentConfig, LinkSpec
from .quadrature import DEFAULT_OUTER_NODES, cached_rule, hermite_tables

NORMALIZATION_SPECTRAL = "spectral"
NORMALIZATION_PRINTED = "printed"

LADDER_TOP = 10.0
LADDER_FACTOR = 0.7
LADDER_FLOOR = 5e-2  # below this the final hop lands on the exact target
DEFAULT_TOL = 1e-10


class FixedPointError(RuntimeError):
    """Non-finite intermediates or a failed linear solve inside the map."""


class NonConvergenceError(FixedPointError):
    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# --------------------------------------------------------------------------- #
# problem data
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class DetEquivProblem:
    """Quadrature tables and ratios defining one theory instance.

    c0/c1/resid have shape (m, k): shifted coefficients and Parseval residual
    of the activation at every outer kappa node, for every vocabulary entry.
    rho = (rho1, rho2) is the quadratic-form perturbation (see the module
    docstring); it is (0, 0) except on problems made by `perturbed`.
    """

    alpha: float
    beta: float
    pi: np.ndarray
    zeta_u: np.ndarray
    kappa: np.ndarray
    kappa_w: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    resid: np.ndarray
    g: np.ndarray
    sigma: ActivationSpec | None = None
    link: LinkSpec | None = None
    normalization: str = NORMALIZATION_SPECTRAL
    rho: tuple = (0.0, 0.0)

    @property
    def k(self) -> int:
        return len(self.pi)

    @property
    def sample_factor(self) -> float:
        """Weight of the data average in the kernels: alpha/beta (spectral) or alpha (printed)."""
        if self.normalization == NORMALIZATION_SPECTRAL:
            return self.alpha / self.beta
        return self.alpha

    @property
    def stieltjes_prefactor(self) -> float:
        return 1.0 / self.beta if self.normalization == NORMALIZATION_SPECTRAL else self.beta

    @functools.cached_property
    def cbar(self) -> np.ndarray:
        """E_kappa[c1 c1^T], the rho1 perturbation kernel."""
        return self.c1.T @ (self.c1 * self.kappa_w[:, None])

    @functools.cached_property
    def rbar(self) -> np.ndarray:
        """E_kappa[r], the rho2 perturbation kernel."""
        return self.resid.T @ self.kappa_w

    @property
    def iota(self) -> np.ndarray:
        """(m, k+1) array of (g(kappa), c0(kappa, zeta_1), ..., c0(kappa, zeta_k))."""
        return np.concatenate([self.g[:, None], self.c0], axis=1)

    @property
    def link_second_moment(self) -> float:
        return float(self.kappa_w @ self.g**2)

    def with_alpha(self, alpha: float) -> "DetEquivProblem":
        return dataclasses.replace(self, alpha=float(alpha))

    def perturbed(self, rho: tuple) -> "DetEquivProblem":
        return dataclasses.replace(self, rho=(float(rho[0]), float(rho[1])))

    def atom_mass(self) -> float:
        """Mass of the exact zero eigenvalues of the bulk covariance (p > n case)."""
        return max(0.0, 1.0 - self.alpha / self.beta)


def build_problem(
    activation: ActivationSpec,
    link: LinkSpec,
    zeta_u: Sequence[float],
    pi: Sequence[float],
    alpha: float,
    beta: float,
    normalization: str = NORMALIZATION_SPECTRAL,
) -> DetEquivProblem:
    zeta_u = np.asarray(zeta_u, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if zeta_u.shape != pi.shape:
        raise ValueError("zeta_u and pi must have matching shapes")
    outer = cached_rule(DEFAULT_OUTER_NODES)
    c0, c1, resid = hermite_tables(activation.fn, outer.nodes, zeta_u)
    return DetEquivProblem(
        alpha=float(alpha),
        beta=float(beta),
        pi=pi,
        zeta_u=zeta_u,
        kappa=outer.nodes,
        kappa_w=outer.weights,
        c0=c0,
        c1=c1,
        resid=resid,
        g=link.fn(outer.nodes),
        sigma=activation,
        link=link,
        normalization=normalization,
    )


def problem_from_config(
    config: ExperimentConfig,
    normalization: str = NORMALIZATION_SPECTRAL,
) -> DetEquivProblem:
    _, pi = config.vocab.as_arrays()
    return build_problem(
        config.activation_spec(),
        config.link_spec(),
        config.spike_vocabulary(),
        pi,
        alpha=config.alpha,
        beta=config.beta,
        normalization=normalization,
    )


# --------------------------------------------------------------------------- #
# fixed point
# --------------------------------------------------------------------------- #


@dataclass
class FixedPointState:
    """Converged (or in-progress) order parameters at one spectral point."""

    z: complex
    V: np.ndarray
    nu: np.ndarray
    b: np.ndarray
    residual: float = np.inf
    iterations: int = 0

    def conjugate(self) -> "FixedPointState":
        return FixedPointState(
            np.conj(self.z), np.conj(self.V), np.conj(self.nu), np.conj(self.b), self.residual, self.iterations
        )

    def to_json_dict(self) -> dict:
        def c2l(a):
            a = np.asarray(a)
            return np.stack([a.real, a.imag], axis=-1).tolist()

        return {
            "z": [self.z.real, self.z.imag],
            "V": c2l(self.V),
            "nu": c2l(self.nu),
            "b": c2l(self.b),
            "residual": self.residual,
            "iterations": self.iterations,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FixedPointState":
        def l2c(x):
            arr = np.asarray(x, dtype=float)
            return arr[..., 0] + 1j * arr[..., 1]

        return cls(
            z=complex(data["z"][0], data["z"][1]),
            V=l2c(data["V"]),
            nu=l2c(data["nu"]),
            b=l2c(data["b"]),
            residual=float(data["residual"]),
            iterations=int(data["iterations"]),
        )

def _solve_L(V_eff: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L = (V_eff^{-1} + diag(b))^{-1} = (I + V_eff diag(b))^{-1} V_eff; valid for singular V_eff."""
    k = len(b)
    A = np.eye(k, dtype=complex) + V_eff * b[None, :]
    try:
        return np.linalg.solve(A, V_eff)
    except np.linalg.LinAlgError:
        # grazing singularity of I + V diag(b): SVD floor, per design decision
        u, s, vh = np.linalg.svd(A)
        s = np.where(s > 1e-12, s, 1e-12)
        return (vh.conj().T / s) @ (u.conj().T @ V_eff)


def _chi_nodes(problem: DetEquivProblem, psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    quad = np.einsum("mq,qr,mr->m", problem.c1, psi, problem.c1)
    return (quad + problem.resid @ b) / problem.beta


def _effective(problem: DetEquivProblem, V: np.ndarray, nu: np.ndarray):
    rho1, rho2 = problem.rho
    V_eff = V + rho1 * problem.cbar if rho1 else V
    nu_eff = nu + rho2 * problem.rbar if rho2 else nu
    return V_eff, nu_eff


def _kernels(problem: DetEquivProblem, state: FixedPointState):
    """(V_eff, nu_eff, L, psi, chi, wd) of a state; wd = kappa_w / (1 + chi) on the kappa nodes."""
    V_eff, nu_eff = _effective(problem, state.V, state.nu)
    b = state.b
    L = _solve_L(V_eff, b)
    psi = np.diag(b) - L * np.outer(b, b)
    chi = _chi_nodes(problem, psi, b)
    wd = problem.kappa_w / (1.0 + chi)
    return V_eff, nu_eff, L, psi, chi, wd


def fixed_point_map(problem: DetEquivProblem, state: FixedPointState) -> FixedPointState:
    """One application of the self-consistent map at state.z."""
    z, b = state.z, state.b
    wd = _kernels(problem, state)[-1]
    sf = problem.sample_factor
    V_new = sf * (problem.c1.T @ (problem.c1 * wd[:, None]))
    nu_new = sf * (problem.resid.T @ wd)
    V_new_eff, nu_new_eff = _effective(problem, V_new, nu_new)
    L_new = _solve_L(V_new_eff, b)
    if problem.normalization == NORMALIZATION_SPECTRAL:
        b_new = problem.pi * problem.beta / (np.diag(L_new) + nu_new_eff - z)
    else:
        M = L_new + np.diag(nu_new_eff) - z * np.eye(problem.k)
        b_new = problem.pi * problem.beta * np.diag(np.linalg.inv(M))
    for name, arr in (("V", V_new), ("nu", nu_new), ("b", b_new)):
        if not np.all(np.isfinite(arr)):
            raise FixedPointError(f"non-finite {name} in fixed-point map at z={z}; state: b={state.b}, V={state.V}")
    return FixedPointState(z=z, V=V_new, nu=nu_new, b=b_new)


def _cold_state(problem: DetEquivProblem, z: complex) -> FixedPointState:
    k = problem.k
    b0 = problem.pi.astype(complex) * problem.beta / (-z)
    return FixedPointState(z=z, V=np.zeros((k, k), dtype=complex), nu=np.zeros(k, dtype=complex), b=b0)


def _residual(a: FixedPointState, b: FixedPointState) -> float:
    return max(
        float(np.max(np.abs(a.V - b.V))),
        float(np.max(np.abs(a.nu - b.nu))),
        float(np.max(np.abs(a.b - b.b))),
    )


def _damped_iterate(
    problem: DetEquivProblem,
    state: FixedPointState,
    tol: float,
    max_iter: int,
) -> FixedPointState:
    gamma = 0.5
    prev_res = np.inf
    for it in range(1, max_iter + 1):
        new = fixed_point_map(problem, state)
        res = _residual(new, state)
        if res < tol:
            new.residual = res
            new.iterations = it
            return new
        if res > prev_res:
            gamma = max(gamma / 2.0, 1.0 / 64.0)
        prev_res = res
        state = FixedPointState(
            z=state.z,
            V=state.V + gamma * (new.V - state.V),
            nu=state.nu + gamma * (new.nu - state.nu),
            b=state.b + gamma * (new.b - state.b),
        )
    raise NonConvergenceError(
        f"fixed point did not converge at z={state.z} (residual {prev_res:.3e} after {max_iter} iterations)",
        residual=float(prev_res),
        iterations=max_iter,
    )


def _retarget(state: FixedPointState, z: complex) -> FixedPointState:
    return FixedPointState(z=z, V=state.V.copy(), nu=state.nu.copy(), b=state.b.copy())


def solve_fixed_point(
    problem: DetEquivProblem,
    z: complex,
    warm_start: FixedPointState | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
) -> FixedPointState:
    """Solve the self-consistent equations at z (off R+) by damped iteration.

    Cold starts at small Im z reach the target by analytic continuation: a
    geometric ladder in Im z from LADDER_TOP down, warm-starting each rung.
    `warm_start` (a solution at a nearby point, or any explicit initial
    iterate) skips the ladder.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(f"z must lie off the positive real axis, got {z}")
    if z.imag < 0.0:
        flipped = solve_fixed_point(problem, np.conj(z), warm_start.conjugate() if warm_start else None, tol, max_iter)
        return flipped.conjugate()

    if warm_start is not None:
        return _damped_iterate(problem, _retarget(warm_start, z), tol, max_iter)
    if z.imag >= LADDER_TOP or abs(z) >= LADDER_TOP:
        return _damped_iterate(problem, _cold_state(problem, z), tol, max_iter)

    # continuation ladder in Im z
    ims = []
    im = LADDER_TOP
    target_im = max(z.imag, 0.0)
    while im > max(target_im, LADDER_FLOOR):
        ims.append(im)
        im *= LADDER_FACTOR
    state = _cold_state(problem, complex(z.real, ims[0]))
    for im in ims:
        state = _damped_iterate(problem, _retarget(state, complex(z.real, im)), tol, max_iter)
    return _damped_iterate(problem, _retarget(state, z), tol, max_iter)


def stieltjes_from_state(problem: DetEquivProblem, state: FixedPointState) -> complex:
    """m(z) = prefactor * sum_q b_q(z) under the frozen normalization convention."""
    return complex(problem.stieltjes_prefactor * np.sum(state.b))


# --------------------------------------------------------------------------- #
# derived kernels and the assembled equivalent
# --------------------------------------------------------------------------- #


@dataclass
class DerivedKernels:
    """Kernels derived from a converged state: L, psi, S, the data-averaged blocks.

    A11 is (k+1)x(k+1) over (label, mean_1..mean_k); A21t is the reduced
    k x (k+1) cross block (one row per vocabulary entry); bulk_diag_inv[q] =
    L_qq + nu_q - z is the inverse of the within-group bulk resolvent entry;
    chi is chi(kappa) on the outer quadrature nodes.
    """

    L: np.ndarray
    psi: np.ndarray
    S: np.ndarray
    A11: np.ndarray
    A21t: np.ndarray
    bulk_diag_inv: np.ndarray
    chi: np.ndarray


def blocks(problem: DetEquivProblem, state: FixedPointState) -> DerivedKernels:
    """Assemble the derived kernels of a converged state."""
    _, nu_eff, L, psi, chi, wd = _kernels(problem, state)
    sf = problem.sample_factor
    iota = problem.iota
    A11 = sf * (iota.T @ (iota * wd[:, None]))
    A21t = sf * np.einsum("m,m,mq,mj->qj", wd, problem.kappa, problem.c1, iota)
    S = problem.c1.T @ (problem.c1 * ((problem.kappa**2 - 1.0) * wd)[:, None])
    bulk_diag_inv = np.diag(L) + nu_eff - state.z
    return DerivedKernels(L=L, psi=psi, S=S, A11=A11, A21t=A21t, bulk_diag_inv=bulk_diag_inv, chi=chi)


@dataclass
class GeSummary:
    """Functionals of the deterministic equivalent without a dense inverse."""

    C: np.ndarray          # (k+1)x(k+1) top-left block of the inverse
    bulk_diag: np.ndarray  # p diagonal entries of the inverse on the bulk block
    trace: complex

    def unit_mass(self, index: int) -> complex:
        k1 = self.C.shape[0]
        if index < k1:
            return complex(self.C[index, index])
        return complex(self.bulk_diag[index - k1])

    def normalized_trace(self) -> complex:
        return complex(self.trace / (self.C.shape[0] + len(self.bulk_diag)))


def ge_functionals(
    problem: DetEquivProblem,
    state: FixedPointState,
    theta: np.ndarray,
    groups: np.ndarray,
    kernels: DerivedKernels | None = None,
) -> GeSummary:
    """Top-left block, bulk diagonal, and trace of the equivalent resolvent.

    Uses the disjoint-support structure of the group indicators: every p x p
    object in the Schur complement reduces to k x k algebra plus diagonals,
    so no dense (k+1+p)-square inverse is formed.
    """
    kern = kernels or blocks(problem, state)
    k = problem.k
    sf = problem.sample_factor
    V_eff, _ = _effective(problem, state.V, state.nu)
    K = (V_eff + sf * kern.S).astype(complex)

    d = kern.bulk_diag_inv[groups]      # (p,)
    dinv = 1.0 / d
    th2 = theta.astype(complex) ** 2
    # G = U^T diag(1/d) U is diagonal because group supports are disjoint
    Gdiag = np.zeros(k, dtype=complex)
    np.add.at(Gdiag, groups, th2 * dinv)
    I = np.eye(k, dtype=complex)
    # (K^{-1} + G)^{-1} = K (I + G K)^{-1}   (no K^{-1} formed)
    KG_inv = np.linalg.solve(I + Gdiag[:, None] * K, np.eye(k, dtype=complex))
    mid = K @ KG_inv                     # = K (I + GK)^{-1}
    # H = U^T M22^{-1} U = G - G mid G
    H = np.diag(Gdiag) - Gdiag[:, None] * mid * Gdiag[None, :]

    A21t = kern.A21t.astype(complex)
    C_inv = kern.A11 - state.z * np.eye(k + 1) - A21t.T @ H @ A21t
    C = np.linalg.inv(C_inv)

    # bulk diagonal of the full inverse:
    #   M22^{-1}_jj           = 1/d_j - (1/d_j)^2 theta_j^2 mid_{g(j) g(j)}
    #   correction from Schur = (1/d_j)^2 theta_j^2 [W A21t C A21t^T W^T]_{g(j) g(j)}
    # with W = I - mid G (so that M22^{-1} U = diag(1/d) U W).
    W = I - mid * Gdiag[None, :]
    corr1 = np.diag(mid)                     # from Woodbury on M22
    inner = W @ A21t @ C @ A21t.T @ W.T      # k x k
    corr2 = np.diag(inner)
    bulk_diag = dinv - dinv**2 * th2 * corr1[groups] + dinv**2 * th2 * corr2[groups]

    trace = complex(np.trace(C) + np.sum(bulk_diag))
    return GeSummary(C=C, bulk_diag=bulk_diag, trace=trace)
