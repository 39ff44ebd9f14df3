"""Bulk spectral density from the solved Stieltjes transform, and histogram comparison.

The density is recovered by evaluating m(lambda + i*eps) down a decreasing
eps schedule and Richardson-extrapolating the last two levels (the Poisson
smoothing bias is linear in eps in the bulk).  The first eps level is solved
in lockstep segments of the grid, each point warm-started from its left
neighbour; every finer level is one batched solve, each point warm-started
from its own state: at the second level its state at the first, and from
the third level on the eps secant through its states at the two previous
levels.  When p > n
the bulk covariance has an exact atom of mass 1 - alpha/beta at zero; its
Stieltjes contribution -atom/z is removed analytically before inversion,
since numerical inversion next to an atom is hopeless.  The bulk mass and
the CDF integrate the density by the trapezoid rule over the grid plus
sub-points inside the cells at a support edge, where the grid alone cannot
resolve the square-root rise; the sub-points go through the grid's eps-level
routine and follow its rules.

One caveat: with p > d and a nearly linear activation (order->=2 residual
close to zero, e.g. erf), the p - d lifted zero modes of the weight Gram form
a very narrow peak at the residual scale; resolving its mass to 1e-3 needs a
locally refined grid and an eps below the peak width.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detequiv import (
    DetEquivProblem,
    FixedPointError,
    FixedPointState,
    ladder,
    solve_paths,
    solver_totals,
    stieltjes,
)

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)  # decreasing, at least two levels
# refinement of the mass and CDF near support edges (see `density_grid`)
EDGE_RATIO = 0.01  # a cell is an edge cell when the density at one end is below this share of the other end
EDGE_MASS = 1e-3  # a cell is steep when width * density change exceeds this mass
EDGE_SPLIT = 8  # sub-cells per refined cell
SEGMENT_POINTS = 20  # points per lockstep segment of an eps level (see `_eps_levels`)
GAP_BOUND = 1e-3  # extrapolation gap above which `DensityCurve.extrapolation_gap` counts a grid point


@dataclass
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    eps_schedule: tuple
    converged: np.ndarray
    atom_mass: float
    # the nodes `mass` and `cdf` integrate: the grid plus the points refined near support edges
    mass_grid: np.ndarray
    mass_density: np.ndarray
    im_levels: np.ndarray | None = None  # Im m / pi at every eps level (atom removed)
    # one {"lambda", "eps", "reason"} per zero-filled grid point: its last FixedPointError
    failures: list = field(default_factory=list)
    solver: dict = field(default_factory=dict)  # work of the solves behind the curve (see `density_grid`)

    @property
    def mass(self) -> float:
        """Trapezoidal bulk mass over the grid and its edge sub-points (excludes the origin atom)."""
        return float(np.trapezoid(self.mass_density, self.mass_grid))

    @property
    def total_mass(self) -> float:
        return self.mass + self.atom_mass

    @property
    def extrapolation_gap(self) -> dict:
        """Error estimate of the density, report only: {"max", "above", "bound"}.

        Per grid point, the gap between the Richardson extrapolants of the last
        three eps levels taken in pairs, (1, 2) and (2, 3) for the default
        schedule; the density is the second.  "max" is the largest gap over the
        points where all three levels converged (None if there is none), and
        "above" counts the points whose gap exceeds "bound" = GAP_BOUND.
        """
        levels, eps = self.im_levels, self.eps_schedule
        gap = np.abs(_extrapolate(levels, eps) - _extrapolate(levels[:-1], eps[:-1]))
        gap = gap[~np.isnan(gap)]
        return {"max": float(gap.max()) if gap.size else None, "above": int(np.sum(gap > GAP_BOUND)), "bound": GAP_BOUND}

    def cdf(self, x: np.ndarray, left_limit: bool = False) -> np.ndarray:
        """Theory CDF at points x: origin atom plus integrated bulk density.

        left_limit=True evaluates F(x-) (drops the atom exactly at 0), needed
        for Kolmogorov-Smirnov comparisons against samples with tied zeros.
        """
        grid, density = self.mass_grid, self.mass_density
        cum = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (density[1:] + density[:-1]))])
        vals = np.interp(x, grid, cum, left=0.0, right=cum[-1])
        atom = self.atom_mass * ((x > 0.0) if left_limit else (x >= 0.0))
        return atom + vals


def _extrapolate(levels: np.ndarray, eps_schedule: tuple) -> np.ndarray:
    """Density from Im m / pi at the last two eps levels: linear two-point Richardson in eps."""
    e1, e2 = eps_schedule[-2], eps_schedule[-1]
    rho1, rho2 = levels[-2], levels[-1]
    return rho2 + (rho2 - rho1) * e2 / (e1 - e2)


def _edge_cells(grid: np.ndarray, density: np.ndarray, converged: np.ndarray) -> list:
    """Cells to refine: each support edge cell, and the steep cells that follow it into the support.

    An edge cell has the density at one end below EDGE_RATIO of the other.  A
    cell is steep while the trapezoid could misplace more than EDGE_MASS in it,
    bounded by its width times its density change.
    """
    lo, hi = np.minimum(density[:-1], density[1:]), np.maximum(density[:-1], density[1:])
    steep = (np.diff(grid) * (hi - lo) > EDGE_MASS) & converged[:-1] & converged[1:]
    cells: set = set()
    for i in np.flatnonzero(steep & (lo < EDGE_RATIO * hi)):
        inward = 1 if density[i + 1] > density[i] else -1
        j = i
        while 0 <= j < len(steep) and steep[j]:
            cells.add(int(j))
            j += inward
    return sorted(cells)


def _eps_levels(problem: DetEquivProblem, lams: np.ndarray, starts: list, cache) -> tuple:
    """(Im m / pi per eps level and point, first-level states, {point: (eps, text) of its last error}, every solve's result).

    At each level of DEFAULT_EPS_SCHEDULE, largest first, the points that
    miss the cache and have a state (their entry of `starts` at the first
    level, then their state at the last level they converged) are solved in
    one batch, each warm-started from it.  From the third level on, a point
    that converged at both previous levels eps1 > eps2 starts instead at the
    secant X2 + (X2 - X1)(eps - eps2)/(eps2 - eps1) through those two states
    (`_eps_secant`; 1.5 X2 - 0.5 X1 for the default schedule), a free
    predictor along eps (Allgower & Georg 2003); a start that is not a
    converged state of its own, such as a sub-point's first-level start,
    does not count.  The rest go in lockstep segments of SEGMENT_POINTS
    consecutive points, a layout fixed by the number of points alone: step j
    solves point j of every segment in one `solve_paths` call, each from its
    left neighbour in the segment, or down the `ladder` when it is a head or
    its neighbour has no state.  A cached state has the bits of a solved one,
    so on a rerun of the same grid no state depends on which points the
    cache served; a point that another cached grid shares has the state that
    grid solved, warm-started from that grid's neighbour, which may differ in
    the last bits from this grid's own solve.  `cache`, if given
    (any object with `get(z)` returning a state or None and `put(*states)`),
    is read per point before each level and gets one `put` per level of that
    level's new states in grid order, none when all hit.  A
    failed solve leaves NaN at its level.  Im m has the analytic origin atom
    removed.

    Segment heads take the ladder (6 points down to eps = 1e-2 at
    LADDER_FACTOR = 0.3) because a cold start at small Im z is not
    safe: it can converge to a non-physical root.  With the hermite2
    activation, one spike value 1, alpha=0.3 and beta=3, a cold row at
    z = 2.1181 + 0.01i ends at b = -1.476 + 0.001i where the ladder gives
    -1.404 + 0.170i: that spurious root has Im b > 0, so no half-plane sign
    check can certify a cold root.
    """
    atom = problem.atom_mass()
    levels = np.full((len(DEFAULT_EPS_SCHEDULE), len(lams)), np.nan)
    prev_states = list(starts)
    own: list = []  # per finished level, each point's state converged there, or None
    errors: dict = {}
    fresh: list = []  # the result of every solve, in order: a state or a FixedPointError
    for ei, eps in enumerate(DEFAULT_EPS_SCHEDULE):
        zs = [complex(lam, eps) for lam in lams]
        found = [cache.get(z) if cache is not None else None for z in zs]
        states = list(found)
        batch = [i for i in range(len(zs)) if found[i] is None and prev_states[i] is not None]
        batch_starts = [prev_states[i] for i in batch]
        if ei >= 2:
            e1, e2 = DEFAULT_EPS_SCHEDULE[ei - 2:ei]
            batch_starts = [_eps_secant(own[-2][i], own[-1][i], (eps - e2) / (e2 - e1), start)
                            for i, start in zip(batch, batch_starts)]
        for i, result in zip(batch, solve_paths(problem, [[zs[i]] for i in batch], batch_starts)):
            states[i] = result
        for j in range(SEGMENT_POINTS):
            todo = [i for i in range(j, len(zs), SEGMENT_POINTS) if states[i] is None]
            heads = [states[i - 1] if j and isinstance(states[i - 1], FixedPointState) else None for i in todo]
            paths = [[zs[i]] if start is not None else ladder(zs[i]) for i, start in zip(todo, heads)]
            for i, result in zip(todo, solve_paths(problem, paths, heads)):
                states[i] = result
        own.append([None] * len(zs))
        for i, state in enumerate(states):
            if found[i] is None:
                fresh.append(state)
            if isinstance(state, FixedPointError):
                errors[i] = (eps, str(state))
            else:
                prev_states[i] = own[-1][i] = state
        done = [i for i, state in enumerate(own[-1]) if state is not None]
        new = [own[-1][i] for i in done if found[i] is None]
        if new and cache is not None:
            cache.put(*new)
        m = stieltjes(problem, np.array([own[-1][i].b for i in done]).reshape(-1, problem.k))
        if atom > 0.0:  # per state in Python's complex division: numpy's moves last bits
            m = m + np.array([atom / own[-1][i].z for i in done], dtype=complex)
        levels[ei, done] = m.imag / np.pi
    return levels, own[0], errors, fresh


def _eps_secant(x1, x2, t: float, last: FixedPointState) -> FixedPointState:
    """The start X2 + t (X2 - X1) from a point's converged states x1, x2 at the two previous eps levels.

    t is (eps - eps2) / (eps2 - eps1).  Without both states, the start is the point's `last` state.
    """
    if x1 is None or x2 is None:
        return last
    return FixedPointState(last.z, *(a2 + t * (a2 - a1) for a1, a2 in ((x1.V, x2.V), (x1.nu, x2.nu), (x1.b, x2.b))))


def density_grid(
    problem: DetEquivProblem,
    lam_min: float,
    lam_max: float,
    points: int,
    cache=None,
) -> DensityCurve:
    """Bulk density on a uniform grid by eps-laddered Stieltjes inversion.

    The eps levels are solved by `_eps_levels` with `cache` (a
    `FixedPointCache`, or None), and the density is extrapolated from the
    last two: a point converged when both did.  An unconverged point is
    zero-filled (its last FixedPointError is kept in `failures`) and the grid
    goes on; any other exception propagates.

    A grid cell across a support edge holds a square-root rise that the
    trapezoid rule misweighs by up to ~h^1.5; the cells of `_edge_cells` are
    split into EDGE_SPLIT sub-cells, whose points go through `_eps_levels`
    too, without the cache and started from the cell's left grid point, for
    `mass` and `cdf` only.  `solver` totals the work of every solve: map rows
    over all ladder rungs, damped half-plane fallbacks, and the largest final
    residual; cache hits cost none.
    """
    if lam_max <= lam_min:
        raise ValueError("need lam_max > lam_min")
    eps_schedule = DEFAULT_EPS_SCHEDULE
    grid = np.linspace(lam_min, lam_max, points)
    im_levels, first_states, errors, fresh = _eps_levels(problem, grid, [None] * points, cache)
    rho = _extrapolate(im_levels, eps_schedule)  # NaN where either of the last two levels failed
    converged = ~np.isnan(rho)
    density = np.where(converged, rho, 0.0)
    if np.nanmin(density) < -1e-2:
        raise RuntimeError(f"strongly negative extrapolated density {np.nanmin(density):.3e}")
    density = np.clip(density, 0.0, None)

    # sub-points in the cells at support edges, for the mass and the CDF only
    cells = np.array(_edge_cells(grid, density, converged), dtype=int)
    sub_grid = (grid[cells, None] + np.diff(grid)[cells, None] * np.arange(1, EDGE_SPLIT) / EDGE_SPLIT).ravel()
    sub_starts = [first_states[c] for c in np.repeat(cells, EDGE_SPLIT - 1)]
    sub_levels, _, _, sub_fresh = _eps_levels(problem, sub_grid, sub_starts, None)
    sub_rho = _extrapolate(sub_levels, eps_schedule)
    solved = ~np.isnan(sub_rho)
    mass_grid = np.concatenate([grid, sub_grid[solved]])
    mass_density = np.concatenate([density, np.clip(sub_rho[solved], 0.0, None)])
    order = np.argsort(mass_grid, kind="stable")

    return DensityCurve(
        grid=grid,
        density=density,
        eps_schedule=eps_schedule,
        converged=converged,
        atom_mass=problem.atom_mass(),
        im_levels=im_levels,
        failures=[{"lambda": float(grid[gi]), "eps": eps, "reason": text}
                  for gi, (eps, text) in sorted(errors.items()) if not converged[gi]],
        mass_grid=mass_grid[order],
        mass_density=mass_density[order],
        solver=solver_totals(fresh + sub_fresh),
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
