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
either count moves results by less than 1e-9 for the smooth built-in
activations (asserted in the test suite).  It does not for relu, whose kink
at z = -kappa*zeta the inner rule misses: its tables move by up to 3e-3.

The exact test error of a trained network (`simulate.empirical_generror`)
needs Hermite coefficients up to order ~200 of activations with a kink at 0,
where a Gauss-Hermite rule converges slowly.  `split_rule` is a Gauss-Legendre
rule on each side of the kink, with the Gaussian density in its weights, and
carries the Hermite basis up to the highest order it integrates exactly.
Those orders reach correlations up to ~0.88; `correlated_expectation` takes
E[f(a z1) g(b z2)] at any correlation in [-1, 1] as a two-dimensional
integral, with a Gauss-Legendre rule on each sector between the rays where
z1 or z2 vanishes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

DEFAULT_INNER_NODES = 127
DEFAULT_OUTER_NODES = 201
# steps of the Christoffel recurrence between rescalings: max(|h_l|, |h_l-1|) grows by at most |x| + 1
# per step and every node has |x| < sqrt(4n + 2), so the sum of squares stays below 2^310 for n <= 10^5
RESCALE_EVERY = 16
# `split_rule`: SPLIT_NODES Gauss-Legendre nodes on each of [-SPLIT_WIDTH, 0] and [0, SPLIT_WIDTH].  The width
# bounds the exact orders, since h_l oscillates out to |z| ~ sqrt(4l + 2): this rule integrates h_0..h_215
# exactly, enough for the series of every correlation up to 0.879 (see `simulate.empirical_generror`)
SPLIT_NODES = 256
SPLIT_WIDTH = 32.0
# an order is integrated exactly when the rule's Gram matrix of h_0..h_order is the identity to this
GRAM_TOL = 1e-12
# `correlated_expectation`: BIVARIATE_NODES Gauss-Legendre nodes in the angle on each of the four sectors and in
# the radius on [0, BIVARIATE_RADIUS], beyond which the Gaussian mass is e^-72.  64 x 64 is within 3e-14 relative
# of the closed forms (relu, erf, sin) and of a 160 x 240 rule for every built-in activation and link at scales
# up to 4; 48 x 64 leaves 6e-14, 32 x 64 4e-10
BIVARIATE_NODES = 64
BIVARIATE_RADIUS = 12.0
# pairs per batch of `correlated_expectation`: 32 pairs x 4 sectors x 64 x 64 nodes are 4 MB per temporary
BIVARIATE_BATCH = 32


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


cached_rule = functools.cache(gauss_hermite_rule)
_SPLIT_CACHE: Dict[tuple, SplitRule] = {}


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


@dataclass(frozen=True)
class SplitRule(QuadratureRule):
    """A rule for E_{z~N(0,1)}, with basis[i, l] = h_l(nodes_i) for every order l it integrates exactly."""

    basis: np.ndarray


def split_rule() -> SplitRule:
    """Gauss-Legendre on [-SPLIT_WIDTH, 0] and [0, SPLIT_WIDTH], SPLIT_NODES nodes each, weights times N(0,1)'s density.

    Built on first use and cached by its two constants.  The split at 0 makes it converge fast for
    sigma(s z) with a kink at 0 (relu) for every scale s; the Gaussian mass beyond the width is below
    1e-200.  The basis stops at the last order L for which the rule's Gram matrix of h_0..h_L is the
    identity to GRAM_TOL.
    """
    key = (SPLIT_NODES, SPLIT_WIDTH)
    rule = _SPLIT_CACHE.get(key)
    if rule is None:
        from numpy.polynomial.legendre import leggauss  # 4 ms to import, so not at start-up

        x, w = leggauss(SPLIT_NODES)
        z = SPLIT_WIDTH * (x + 1.0) / 2.0
        w = w * SPLIT_WIDTH / 2.0 * np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        nodes, weights = np.concatenate([-z[::-1], z]), np.concatenate([w[::-1], w])
        H = hermite_basis(nodes, SPLIT_NODES)
        err = np.tril(np.abs((H * weights[:, None]).T @ H - np.eye(SPLIT_NODES + 1)))
        exact = np.maximum.accumulate(err.max(axis=1)) < GRAM_TOL  # exact[l]: h_0..h_l orthonormal on the rule
        orders = int(np.argmin(exact)) if not exact.all() else len(exact)
        rule = _SPLIT_CACHE[key] = SplitRule(nodes=nodes, weights=weights, basis=H[:, :orders])
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


def correlated_expectation(f, g, a, b, corr) -> np.ndarray:
    """E[f(a z1) g(b z2)] for standard normals z1, z2 of correlation `corr`, elementwise over a, b and corr.

    f and g may have a kink at 0 and nowhere else.  In polar coordinates of the whitened pair, z1 = r cos(t) and
    z2 = r cos(t - alpha) with alpha = arccos(corr), under the density r exp(-r^2/2) / (2 pi).  The rays where z1
    or z2 vanishes cut the circle into four sectors, of widths alpha, pi - alpha, alpha and pi - alpha, on each of
    which f and g are smooth in t and in r; a Gauss-Legendre product rule on each sector therefore converges fast
    at every correlation, +-1 included, where the Mehler series needs ~27.6 / (1 - |corr|) terms for 1e-12.
    """
    from numpy.polynomial.legendre import leggauss  # 4 ms to import, so not at start-up

    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(corr))
    a, b, corr = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b, corr))
    x, w = leggauss(BIVARIATE_NODES)
    frac, frac_w = (x + 1.0) / 2.0, w / 2.0
    r = BIVARIATE_RADIUS * frac
    r_w = BIVARIATE_RADIUS * frac_w * r * np.exp(-r * r / 2.0) / (2.0 * math.pi)
    alpha = np.arccos(np.clip(corr, -1.0, 1.0))
    starts = np.stack([np.full_like(alpha, math.pi / 2), math.pi / 2 + alpha,
                       np.full_like(alpha, 1.5 * math.pi), 1.5 * math.pi + alpha], axis=1)
    widths = np.stack([alpha, math.pi - alpha, alpha, math.pi - alpha], axis=1)
    out = np.empty(len(alpha))
    for start in range(0, len(out), BIVARIATE_BATCH):
        sl = slice(start, start + BIVARIATE_BATCH)
        t = (starts[sl, :, None] + widths[sl, :, None] * frac).reshape(len(alpha[sl]), -1)  # (pairs, 4 sectors x nodes)
        t_w = (widths[sl, :, None] * frac_w).reshape(len(t), -1)
        z1 = np.cos(t)[:, :, None] * r
        z2 = np.cos(t - alpha[sl, None])[:, :, None] * r
        vals = f(a[sl, None, None] * z1) * g(b[sl, None, None] * z2)
        out[sl] = np.einsum("pt,ptr,r->p", t_w, vals, r_w)
    return out.reshape(shape)
