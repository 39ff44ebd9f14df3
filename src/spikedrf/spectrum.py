"""Bulk spectral density from the solved Stieltjes transform, and histogram comparison.

The density is recovered by evaluating m(lambda + i*eps) down a decreasing
eps schedule and Richardson-extrapolating the last two levels (the Poisson
smoothing bias is linear in eps in the bulk).  The first eps level is a
warm-started sweep along the grid; every finer level is one batched solve,
each point warm-started from its own state at the previous eps.  When p > n
the bulk covariance has an exact atom of mass 1 - alpha/beta at zero; its
Stieltjes contribution -atom/z is removed analytically before inversion,
since numerical inversion next to an atom is hopeless.

One caveat: with p > d and a nearly linear activation (order->=2 residual
close to zero, e.g. erf), the p - d lifted zero modes of the weight Gram form
a very narrow peak at the residual scale; resolving its mass to 1e-3 needs a
locally refined grid and an eps below the peak width.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .detequiv import (
    DetEquivProblem,
    FixedPointError,
    FixedPointState,
    solve_batch,
    solve_fixed_point,
    stieltjes_from_state,
)

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)


def stieltjes(problem: DetEquivProblem, z: complex) -> complex:
    """m(z) of the bulk feature covariance from a converged fixed point."""
    return stieltjes_from_state(problem, solve_fixed_point(problem, z))


@dataclass
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    eps_schedule: tuple
    converged: np.ndarray
    atom_mass: float
    im_levels: np.ndarray | None = None  # Im m / pi at every eps level (atom removed)
    # one {"lambda", "eps", "reason"} per zero-filled grid point: its last FixedPointError
    failures: list = field(default_factory=list)

    @property
    def mass(self) -> float:
        """Trapezoidal bulk mass over the grid (excludes the origin atom)."""
        return float(np.trapezoid(self.density, self.grid))

    @property
    def total_mass(self) -> float:
        return self.mass + self.atom_mass

    def cdf(self, x: np.ndarray, left_limit: bool = False) -> np.ndarray:
        """Theory CDF at points x: origin atom plus integrated bulk density.

        left_limit=True evaluates F(x-) (drops the atom exactly at 0), needed
        for Kolmogorov-Smirnov comparisons against samples with tied zeros.
        """
        cum = np.concatenate([[0.0], np.cumsum(np.diff(self.grid) * 0.5 * (self.density[1:] + self.density[:-1]))])
        vals = np.interp(x, self.grid, cum, left=0.0, right=cum[-1])
        atom = self.atom_mass * ((x > 0.0) if left_limit else (x >= 0.0))
        return atom + vals


def density_grid(
    problem: DetEquivProblem,
    lam_min: float,
    lam_max: float,
    points: int,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    cache_get: Callable | None = None,
    cache_put: Callable | None = None,
) -> DensityCurve:
    """Bulk density on a uniform grid by eps-laddered Stieltjes inversion.

    The first (largest) eps level sweeps the grid left to right, each point
    warm-started from its left neighbour.  Every later level solves, in one
    `solve_batch` call, the points that miss the cache and converged at an
    earlier level, each warm-started from its own state at the previous eps;
    the points that never converged then go through `solve_fixed_point` in
    grid order, warm-started from their left neighbour at this level.  States
    are the same, bit for bit, as solving every point alone in grid order,
    and new states go to `cache_put` in grid order.  A point whose solve
    raises FixedPointError is marked unconverged (its last error is kept in
    `failures`) and the grid goes on; any other exception propagates.
    """
    if lam_max <= lam_min:
        raise ValueError("need lam_max > lam_min")
    eps_schedule = tuple(sorted((float(e) for e in eps_schedule), reverse=True))
    if len(eps_schedule) < 2:
        raise ValueError("eps schedule needs at least two decreasing levels")
    if eps_schedule[-1] < 1e-4:
        raise ValueError("eps below 1e-4 is outside the supported inversion range")
    grid = np.linspace(lam_min, lam_max, points)
    atom = problem.atom_mass()

    im_parts = np.full((len(eps_schedule), points), np.nan)
    prev_states: list = [None] * points
    errors: dict = {}  # grid index -> (eps, text) of its last FixedPointError
    for ei, eps in enumerate(eps_schedule):
        zs = [complex(lam, eps) for lam in grid]
        found = [cache_get(z) if cache_get else None for z in zs]
        batch = [gi for gi in range(points) if found[gi] is None and prev_states[gi] is not None]
        solved = dict(zip(batch, solve_batch(problem, [zs[gi] for gi in batch], [prev_states[gi] for gi in batch])))
        carry: FixedPointState | None = None
        for gi, z in enumerate(zs):
            state = found[gi] or solved.get(gi)
            if state is None:
                try:
                    state = solve_fixed_point(problem, z, warm_start=carry)
                except FixedPointError as exc:
                    state = exc
            if isinstance(state, FixedPointError):
                errors[gi] = (eps, str(state))
                carry = None
                continue
            if found[gi] is None and cache_put:
                cache_put(state)
            carry = state
            prev_states[gi] = state
            m = stieltjes_from_state(problem, state)
            if atom > 0.0:
                m = m + atom / z  # remove the analytic origin atom
            im_parts[ei, gi] = m.imag

    converged = ~np.isnan(im_parts[-1]) & ~np.isnan(im_parts[-2])
    # linear two-point Richardson in eps on the last two levels
    e1, e2 = eps_schedule[-2], eps_schedule[-1]
    rho1, rho2 = im_parts[-2] / np.pi, im_parts[-1] / np.pi
    density = rho2 + (rho2 - rho1) * e2 / (e1 - e2)
    density = np.where(converged, density, 0.0)
    if np.nanmin(density) < -1e-2:
        raise RuntimeError(f"strongly negative extrapolated density {np.nanmin(density):.3e}")
    density = np.clip(density, 0.0, None)
    return DensityCurve(
        grid=grid,
        density=density,
        eps_schedule=eps_schedule,
        converged=converged,
        atom_mass=atom,
        im_levels=im_parts / np.pi,
        failures=[{"lambda": float(grid[gi]), "eps": eps, "reason": text}
                  for gi, (eps, text) in sorted(errors.items()) if not converged[gi]],
    )


def ks_distance(eigenvalues: np.ndarray, curve: DensityCurve) -> float:
    """Kolmogorov-Smirnov distance between an eigenvalue sample and the theory law.

    The theory CDF carries the origin atom analytically; the empirical CDF
    carries the exact zero modes, so the two jumps cancel to O(k/p).
    """
    n = len(eigenvalues)
    vals, counts = np.unique(np.asarray(eigenvalues), return_counts=True)
    cum = np.cumsum(counts)
    F_emp = cum / n                      # F_emp(v)
    F_emp_left = (cum - counts) / n      # F_emp(v-)
    d_right = np.abs(F_emp - curve.cdf(vals))
    d_left = np.abs(F_emp_left - curve.cdf(vals, left_limit=True))
    tail = abs(1.0 - curve.total_mass)   # gap past the last grid point
    return float(max(np.max(d_right), np.max(d_left), tail))


def auto_grid(eigenvalues: np.ndarray) -> tuple:
    """300-point grid bounds covering an empirical bulk (positive part), padded 15% past the edge."""
    pos = eigenvalues[eigenvalues > 1e-10]
    if len(pos) == 0:
        return 1e-3, 1.0, 300
    return max(1e-3, 0.5 * pos.min()), 1.15 * pos.max(), 300
