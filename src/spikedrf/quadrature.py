"""Gauss-Hermite quadrature and shifted Hermite coefficients.

Everything here uses the probabilists' convention: expectations are taken
with respect to z ~ N(0, 1), and the Hermite polynomials h_l are orthonormal
for that measure (h_0 = 1, h_1 = x, h_2 = (x^2 - 1)/sqrt(2), ...).

The shifted coefficient of an activation sigma is

    c_l(kappa, zeta) = E_z[ sigma(z + kappa*zeta) h_l(z) ],

which depends on (kappa, zeta) only through the product kappa*zeta.  The
order->=2 mass

    r(kappa, zeta) = E_z[ sigma(z + kappa*zeta)^2 ] - c_0^2 - c_1^2

is always computed through this Parseval difference, never by truncating the
series, so it is exact (to quadrature accuracy) for any square-integrable
sigma.

Two default node counts are used throughout the package: 127 nodes for the
inner z-integrals defining coefficients, and 201 nodes for the outer
kappa-expectations of the self-consistent equations, both built by Golub-Welsch
with numpy alone.  Doubling either count moves results by less than 1e-9 for
the built-in activations (asserted in the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

DEFAULT_INNER_NODES = 127
DEFAULT_OUTER_NODES = 201


class QuadratureError(ValueError):
    """Raised when a quadrature result is outside its mathematically valid range."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for E_{z~N(0,1)}[f(z)] ~= sum(weights * f(nodes))."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with `n` nodes, normalized for N(0,1), by Golub-Welsch.

    Exact for polynomials of degree <= 2n-1 under the standard normal weight.
    Nodes are the eigenvalues of the Jacobi matrix (off-diagonal sqrt(1..n-1)),
    weights the squared first components of its eigenvectors (Golub & Welsch
    1969); both are symmetrized, so nodes == -nodes[::-1] exactly.
    """
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    off = np.sqrt(np.arange(1.0, n))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    return QuadratureRule(nodes=(nodes - nodes[::-1]) / 2, weights=(weights + weights[::-1]) / 2)


_RULE_CACHE: Dict[int, QuadratureRule] = {}


def cached_rule(n: int) -> QuadratureRule:
    rule = _RULE_CACHE.get(n)
    if rule is None:
        rule = gauss_hermite_rule(n)
        _RULE_CACHE[n] = rule
    return rule


def hermite_basis(x: np.ndarray, max_order: int) -> np.ndarray:
    """Matrix H with H[i, l] = h_l(x_i) for the orthonormal h_l, l = 0..max_order.

    Three-term recurrence: sqrt(l+1) h_{l+1}(x) = x h_l(x) - sqrt(l) h_{l-1}(x).
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (max_order + 1,), dtype=float)
    out[..., 0] = 1.0
    if max_order >= 1:
        out[..., 1] = x
    for ell in range(1, max_order):
        out[..., ell + 1] = (x * out[..., ell] - np.sqrt(ell) * out[..., ell - 1]) / np.sqrt(ell + 1.0)
    return out


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"{what} produced non-finite values on the quadrature nodes")


def shifted_coeffs(
    sigma: Callable[[np.ndarray], np.ndarray],
    shifts: np.ndarray,
    max_order: int,
) -> np.ndarray:
    """Coefficients c_l(shift) = E_z[sigma(z + shift) h_l(z)], vectorized over shifts, on the inner rule.

    Returns an arrayable of shape (len(shifts), max_order + 1).
    """
    rule = cached_rule(DEFAULT_INNER_NODES)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    vals = sigma(rule.nodes[None, :] + shifts[:, None])  # (n_shift, n_nodes)
    _check_finite(vals, "activation")
    basis = hermite_basis(rule.nodes, max_order)  # (n_nodes, L+1)
    return (vals * rule.weights[None, :]) @ basis


def shifted_second_moment(
    sigma: Callable[[np.ndarray], np.ndarray],
    shifts: np.ndarray,
) -> np.ndarray:
    """E_z[sigma(z + shift)^2], vectorized over shifts, on the inner rule."""
    rule = cached_rule(DEFAULT_INNER_NODES)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    vals = sigma(rule.nodes[None, :] + shifts[:, None])
    _check_finite(vals, "activation")
    return (vals * vals) @ rule.weights


def residual_table(
    sigma: Callable[[np.ndarray], np.ndarray],
    shifts: np.ndarray,
) -> np.ndarray:
    """Vectorized Parseval residual over an array of shifts, on the inner rule."""
    c = shifted_coeffs(sigma, shifts, 1)
    m2 = shifted_second_moment(sigma, shifts)
    r = m2 - c[..., 0] ** 2 - c[..., 1] ** 2
    if np.min(r) < -1e-10:
        raise QuadratureError(f"negative residual second moment {np.min(r):.3e}; quadrature failure")
    return np.clip(r, 0.0, None)


def hermite_tables(
    sigma: Callable[[np.ndarray], np.ndarray],
    kappa: np.ndarray,
    zeta_u: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables (c0, c1, r) at every (kappa_i, zeta_q), each of shape (len(kappa), len(zeta_u)).

    One evaluation per vocabulary entry: a single batched evaluation over all
    shifts rounds differently in the last bit.
    """
    kappa = np.asarray(kappa, dtype=float)
    c0, c1, resid = (np.empty((len(kappa), len(zeta_u))) for _ in range(3))
    for q, zeta in enumerate(zeta_u):
        shifts = kappa * zeta
        coeffs = shifted_coeffs(sigma, shifts, 1)
        c0[:, q], c1[:, q] = coeffs[:, 0], coeffs[:, 1]
        resid[:, q] = residual_table(sigma, shifts)
    return c0, c1, resid

