"""Gauss-Hermite quadrature and the shifted Hermite tables of an activation.

Everything here uses the probabilists' convention: expectations are taken
with respect to z ~ N(0, 1), and the Hermite polynomials h_l are orthonormal
for that measure (h_0 = 1, h_1 = x, h_2 = (x^2 - 1)/sqrt(2), ...).

The shifted coefficient of an activation sigma is

    c_l(kappa, zeta) = E_z[ sigma(z + kappa*zeta) h_l(z) ],

which depends on (kappa, zeta) only through the product kappa*zeta.  The
package needs c_0, c_1 and the order->=2 mass

    r(kappa, zeta) = E_z[ sigma(z + kappa*zeta)^2 ] - c_0^2 - c_1^2,

always the Parseval difference, never a truncated series, so it is exact (to
quadrature accuracy) for any square-integrable sigma.  `hermite_tables`
builds all three from one evaluation of sigma per vocabulary entry:
`shifted_coeffs` contracts it against [1, x], `residual_table` its square.

Two default node counts are used throughout the package: 127 nodes for the
inner z-integrals defining coefficients, and 201 nodes for the outer
kappa-expectations of the self-consistent equations.  Both rules take their
nodes from Golub-Welsch and their weights from the Christoffel function, with
numpy alone, so every weight is accurate relative to its size.  Doubling
either count moves results by less than 1e-9 for the built-in activations
(asserted in the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

DEFAULT_INNER_NODES = 127
DEFAULT_OUTER_NODES = 201
# steps of the Christoffel recurrence between rescalings: max(|h_l|, |h_l-1|) grows by at most |x| + 1
# per step and every node has |x| < sqrt(4n + 2), so the sum of squares stays below 2^310 for n <= 10^5
RESCALE_EVERY = 16


class QuadratureError(ValueError):
    """Raised when a quadrature result is outside its mathematically valid range."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for E_{z~N(0,1)}[f(z)] ~= sum(weights * f(nodes))."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with `n` nodes, normalized for N(0,1): Golub-Welsch nodes, Christoffel weights.

    Exact for polynomials of degree <= 2n-1 under the standard normal weight.
    Nodes are the eigenvalues of the Jacobi matrix (off-diagonal sqrt(1..n-1),
    Golub & Welsch 1969).  Each weight is the Christoffel function
    w_i = 1 / sum_{l<n} h_l(x_i)^2 (Gautschi 2004), which is accurate
    relative to its own size, where the squared first eigenvector component
    is accurate only to ~1e-16 absolute.  The recurrence rescales by powers
    of two, which is exact, because h_l(x_i)^2 overflows beyond ~300 nodes.
    The nodes are symmetrized, so nodes == -nodes[::-1] exactly; the
    recurrence at -x is the one at x with signs flipped, so the weights are
    then symmetric bit for bit.
    """
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    off = np.sqrt(np.arange(1.0, n))
    x, _ = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))  # eigvalsh's nodes are ~10x further from scipy's
    x = (x - x[::-1]) / 2
    prev, cur, exponent = np.ones(n), x, np.zeros(n, dtype=int)  # h_0, h_1
    total = 1.0 + x * x
    for ell in range(1, n - 1):
        prev, cur = cur, (x * cur - off[ell - 1] * prev) / off[ell]
        total += cur * cur
        if ell % RESCALE_EVERY == 0:  # total, cur and prev scaled by 4^-shift, 2^-shift
            shift = np.frexp(total)[1] // 2
            total, cur, prev = np.ldexp(total, -2 * shift), np.ldexp(cur, -shift), np.ldexp(prev, -shift)
            exponent += 2 * shift
    return QuadratureRule(nodes=x, weights=np.ldexp(1.0 / total, -exponent))


_RULE_CACHE: Dict[int, QuadratureRule] = {}


def cached_rule(n: int) -> QuadratureRule:
    rule = _RULE_CACHE.get(n)
    if rule is None:
        rule = gauss_hermite_rule(n)
        _RULE_CACHE[n] = rule
    return rule


def shifted_coeffs(vals: np.ndarray) -> np.ndarray:
    """[c0, c1] of each row of `vals` = sigma(nodes + shift) on the inner rule, shape (len(vals), 2)."""
    rule = cached_rule(DEFAULT_INNER_NODES)
    return (vals * rule.weights[None, :]) @ np.column_stack((np.ones_like(rule.nodes), rule.nodes))


def residual_table(vals: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Parseval residual E[sigma^2] - c0^2 - c1^2 of each row of `vals`, given its [c0, c1] row `c`."""
    r = (vals * vals) @ cached_rule(DEFAULT_INNER_NODES).weights - c[:, 0] ** 2 - c[:, 1] ** 2
    if np.min(r) < -1e-10:
        raise QuadratureError(f"negative residual second moment {np.min(r):.3e}; quadrature failure")
    return np.clip(r, 0.0, None)


def hermite_tables(
    sigma: Callable[[np.ndarray], np.ndarray],
    kappa: np.ndarray,
    zeta_u: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables (c0, c1, r) at every (kappa_i, zeta_q), each of shape (len(kappa), len(zeta_u)).

    One evaluation of sigma per vocabulary entry, on the (len(kappa), inner
    nodes) grid of shifted nodes: a single batched evaluation over all
    entries rounds differently in the last bit.
    """
    kappa = np.asarray(kappa, dtype=float)
    nodes = cached_rule(DEFAULT_INNER_NODES).nodes
    c0, c1, resid = (np.empty((len(kappa), len(zeta_u))) for _ in range(3))
    for q, zeta in enumerate(zeta_u):
        vals = sigma(nodes[None, :] + (kappa * zeta)[:, None])
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("activation produced non-finite values on the quadrature nodes")
        c = shifted_coeffs(vals)
        c0[:, q], c1[:, q] = c[:, 0], c[:, 1]
        resid[:, q] = residual_table(vals, c)
    return c0, c1, resid
