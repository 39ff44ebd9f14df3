"""Reference implementations the suite checks the package against.

Scalar forms of the vectorized quadrature routines, the one-state form of
the batched fixed-point map, and the dense (k+1+p)-square inverse of the
deterministic equivalent that `detequiv.ge_functionals` computes without
forming it.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from spikedrf.detequiv import (
    DerivedKernels,
    DetEquivProblem,
    FixedPointState,
    _effective,
    _solve_L,
    blocks,
)
from spikedrf.quadrature import (
    QuadratureError,
    QuadratureRule,
    hermite_basis,
    shifted_coeffs,
    shifted_second_moment,
)


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
    rule: QuadratureRule | None = None,
) -> float:
    """c_order(kappa, zeta) = E_z[sigma(z + kappa*zeta) h_order(z)]."""
    return float(shifted_coeffs(sigma, np.array([kappa * zeta]), order, rule)[0, order])


def residual_second_moment(
    sigma: Callable[[np.ndarray], np.ndarray],
    kappa: float,
    zeta: float,
    rule: QuadratureRule | None = None,
) -> float:
    """Order->=2 Hermite mass of sigma(. + kappa*zeta), by Parseval difference."""
    shift = np.array([kappa * zeta], dtype=float)
    c = shifted_coeffs(sigma, shift, 1, rule)[0]
    m2 = shifted_second_moment(sigma, shift, rule)[0]
    r = float(m2 - c[0] ** 2 - c[1] ** 2)
    if r < -1e-10:
        raise QuadratureError(f"negative residual second moment {r:.3e}; quadrature failure")
    return max(r, 0.0)


def scalar_fixed_point_map(problem: DetEquivProblem, state: FixedPointState, printed: bool = False) -> tuple:
    """(V', nu', b') of one state: the map written for a single spectral point, operation for operation.

    printed=True is the form the literature prints (alpha in place of
    alpha/beta, b from the diagonal of the full k x k inverse), which the
    package does not implement; the acceptance suite shows it failing.
    """
    z, V, nu, b = state.z, state.V, state.nu, state.b
    V_eff, _ = _effective(problem, V, nu)
    L = _solve_L(V_eff, b)
    psi = np.diag(b) - L * np.outer(b, b)
    quad = np.einsum("mq,qr,mr->m", problem.c1, psi, problem.c1)
    chi = (quad + problem.resid @ b) / problem.beta
    wd = problem.kappa_w / (1.0 + chi)
    sf = problem.alpha if printed else problem.sample_factor
    V_new = sf * (problem.c1.T @ (problem.c1 * wd[:, None]))
    nu_new = sf * (problem.resid.T @ wd)
    V_new_eff, nu_new_eff = _effective(problem, V_new, nu_new)
    L_new = _solve_L(V_new_eff, b)
    if printed:
        M = L_new + np.diag(nu_new_eff) - z * np.eye(problem.k)
        b_new = problem.pi * problem.beta * np.diag(np.linalg.inv(M))
    else:
        b_new = problem.pi * problem.beta / (np.diag(L_new) + nu_new_eff - z)
    return V_new, nu_new, b_new


def assemble_ge(
    problem: DetEquivProblem,
    state: FixedPointState,
    theta: np.ndarray,
    groups: np.ndarray,
    kernels: DerivedKernels | None = None,
) -> np.ndarray:
    """Dense deterministic-equivalent extended resolvent, (k+1+p) square.

    Block layout: coordinates 0..k are (label, group means); the remaining p
    are the centered features.
    """
    kern = kernels or blocks(problem, state)
    k = problem.k
    p = len(theta)
    sf = problem.sample_factor
    V_eff, _ = _effective(problem, state.V, state.nu)
    K = V_eff + sf * kern.S
    dim = k + 1 + p
    M = np.zeros((dim, dim), dtype=complex)
    M[: k + 1, : k + 1] = kern.A11 - state.z * np.eye(k + 1)
    M21 = theta[:, None] * kern.A21t[groups]
    M[k + 1 :, : k + 1] = M21
    M[: k + 1, k + 1 :] = M21.T
    U = np.zeros((p, k))
    U[np.arange(p), groups] = theta
    M[k + 1 :, k + 1 :] = np.diag(kern.bulk_diag_inv[groups]) + (U @ K @ U.T).astype(complex)
    return np.linalg.inv(M)
