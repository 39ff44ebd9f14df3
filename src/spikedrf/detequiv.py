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

The literature prints this system with alpha in place of alpha/beta and
m = beta * sum(b); for beta != 1 that combination breaks m ~ -1/z.  The
form above is re-derived from leave-one-out arguments and frozen by the
random-features cross-check in the acceptance suite, which also shows the
printed form failing it.

A perturbation pair rho = (rho1, rho2) tilts the quadratic form by
rho1 * (E[c1 c1^T])_e o WW^T + rho2 * diag(E[r])_e; inside the equations this
is exactly V -> V + rho1*Cbar and nu -> nu + rho2*rbar wherever (V, nu) feed
the W-average.  The tilt is a row input only, as z is: `solve_batch` takes
one per row, `fixed_point_map` and `schur_block` take it as an argument,
and `solve_paths` solves untilted.  Derivatives in rho at z = -lambda
generate the variance-type order parameters of the test-error formula.

Solver
------
`fixed_point_map` applies the map to a batch of states at once, each row
with its own z and tilt, and `solve_batch` is the one engine built on it:
type-II Anderson acceleration (Anderson 1965; Walker & Ni 2011) with memory
ANDERSON_MEMORY and mixing ANDERSON_MIXING.  Every row keeps its own
history, residual and iteration count and leaves the batch when it
converges or fails, so a row's result does not depend on its batch.  Its one safeguard is the damped step
X + mixing (F(X) - X), which also clears the row's history; a row takes it
only when the extrapolated iterate leaves the Stieltjes half-plane
(Im z > 0 but some Im b_q < 0), where the other root of the equations lies.
`solve_paths` continues every row of a batch along its own path of z values
(Allgower & Georg 2003): a cold solve takes the `ladder` (in Im z, or along
z < 0, both by the rung ratio LADDER_FACTOR: 6 points from Im z = 10 down
to 1e-2), a warm start is a path of length one; `solve_fixed_point` is it
with one row.  Every result carries its SolveStats: map rows over all
rungs, and the half-plane fallbacks.  On z < 0 each b_q is a Stieltjes-type
transform of mass pi_q beta, so 0 < b_q <= pi_q beta / |z| (Bai &
Silverstein 2010), and a converged root outside ends its row with
UnphysicalRootError: a cold start directly at z = -lambda, or too coarse a
path, can converge to one with b_q < 0.
A tilted row (rho != 0) is not a covariance resolvent, and is not checked.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ActivationSpec, ExperimentConfig, LinkSpec
from .quadrature import DEFAULT_OUTER_NODES, cached_rule, hermite_tables

LADDER_TOP = 10.0
LADDER_FACTOR = 0.3  # rung ratio of both ladders, in Im z and along the negative real axis
LADDER_FLOOR = 5e-2  # below this the final hop lands on the exact target
CERTIFICATE_SLACK = 4 * np.finfo(float).eps  # relative slack of the bound b_q <= pi_q beta / |z|, attained at alpha = 0
DEFAULT_TOL = 1e-10
MAX_ITER = 10_000  # map rows a row may spend before NonConvergenceError
ANDERSON_MEMORY = 5  # iterate and residual differences each row keeps
ANDERSON_MIXING = 0.5  # weight of the residual in the step, and the damping of the fallback step
ANDERSON_TIKHONOV = 1e-12  # ridge on each least-squares Gram matrix, relative to its largest diagonal entry


@dataclass(frozen=True)
class SolveStats:
    """Work of one solve: map rows over every rung, and the damped steps taken on leaving the half-plane."""

    rows: int = 0
    half_plane: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(self.rows + other.rows, self.half_plane + other.half_plane)


class FixedPointError(RuntimeError):
    """Non-finite intermediates or a failed linear solve inside the map."""

    stats = SolveStats()  # the work the failed solve spent, where the engine knows it


class NonConvergenceError(FixedPointError):
    """No convergence within MAX_ITER map rows; the message carries the last residual."""


class UnphysicalRootError(FixedPointError):
    """A converged root on the negative real axis outside the Stieltjes bounds 0 < b_q <= pi_q beta / |z|."""


# --------------------------------------------------------------------------- #
# problem data
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class DetEquivProblem:
    """Quadrature tables and ratios defining one theory instance.

    c0/c1/resid have shape (m, k): shifted coefficients and Parseval residual
    of the activation at every outer kappa node, for every vocabulary entry.
    """

    alpha: float
    beta: float
    pi: np.ndarray
    kappa: np.ndarray
    kappa_w: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    resid: np.ndarray
    g: np.ndarray

    @property
    def k(self) -> int:
        return len(self.pi)

    @property
    def sample_factor(self) -> float:
        """Weight of the data average in the kernels: alpha/beta."""
        return self.alpha / self.beta

    @functools.cached_property
    def cbar(self) -> np.ndarray:
        """E_kappa[c1 c1^T], the rho1 perturbation kernel."""
        return self.c1.T @ (self.c1 * self.kappa_w[:, None])

    @functools.cached_property
    def c1c1(self) -> np.ndarray:
        """(m, k*k) table of c1_q c1_q' on the kappa nodes, complex as the states it contracts."""
        return (self.c1[:, :, None] * self.c1[:, None, :]).reshape(len(self.c1), -1).astype(complex)

    @functools.cached_property
    def rbar(self) -> np.ndarray:
        """E_kappa[r], the rho2 perturbation kernel."""
        return self.resid.T @ self.kappa_w

    def with_alpha(self, alpha: float) -> "DetEquivProblem":
        return dataclasses.replace(self, alpha=float(alpha))

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
        kappa=outer.nodes,
        kappa_w=outer.weights,
        c0=c0,
        c1=c1,
        resid=resid,
        g=link.fn(outer.nodes),
    )


def problem_from_config(config: ExperimentConfig) -> DetEquivProblem:
    _, pi = config.vocab.as_arrays()
    return build_problem(
        config.activation_spec(),
        config.link_spec(),
        config.spike_vocabulary(),
        pi,
        alpha=config.alpha,
        beta=config.beta,
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
    stats: SolveStats = SolveStats()  # not cached: a state read from the cache cost no work


def _solve_L(V_eff: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L = (V_eff^{-1} + diag(b))^{-1} = (I + V_eff diag(b))^{-1} V_eff, per matrix of a stack.

    Valid for singular V_eff.
    """
    A = np.eye(b.shape[-1], dtype=complex) + V_eff * b[..., None, :]
    try:
        return np.linalg.solve(A, V_eff)
    except np.linalg.LinAlgError:
        if A.ndim > 2:  # one singular matrix fails the whole stack: solve each on its own
            return np.stack([_solve_L(v, row) for v, row in zip(V_eff, b)])
        # grazing singularity of I + V diag(b): SVD floor, per design decision
        u, s, vh = np.linalg.svd(A)
        s = np.where(s > 1e-12, s, 1e-12)
        return (vh.conj().T / s) @ (u.conj().T @ V_eff)


def _diag_embed(b: np.ndarray) -> np.ndarray:
    """(B, k) -> (B, k, k) stack of diagonal matrices."""
    k = b.shape[-1]
    out = np.zeros(b.shape + (k,), dtype=complex)
    out[..., np.arange(k), np.arange(k)] = b
    return out


def _effective(problem: DetEquivProblem, V: np.ndarray, nu: np.ndarray, rho: np.ndarray):
    """(V + rho1 cbar, nu + rho2 rbar) per row of a batch, rho (B, 2) the rows' tilts.

    An all-zero column adds nothing, so an untilted batch keeps its arrays, and
    one count of nonzero tilts tells such a batch at the least cost.
    """
    if not np.count_nonzero(rho):
        return V, nu
    if rho[:, 0].any():
        V = V + rho[:, 0, None, None] * problem.cbar
    if rho[:, 1].any():
        nu = nu + rho[:, 1, None] * problem.rbar
    return V, nu


def _kernels(problem: DetEquivProblem, V: np.ndarray, nu: np.ndarray, b: np.ndarray, rho: np.ndarray):
    """(V_eff, nu_eff, L, psi, chi, wd) of a batch of states (V (B,k,k), nu (B,k), b (B,k)) with tilts rho (B,2).

    chi and wd = kappa_w / (1 + chi) are (B, m), on the kappa nodes.  The
    quadratic form c1^T psi c1 is each row's own (1, k*k) @ (k*k, m) product
    with the `c1c1` table.
    """
    V_eff, nu_eff = _effective(problem, V, nu, rho)
    L = _solve_L(V_eff, b)
    psi = _diag_embed(b) - L * (b[:, :, None] * b[:, None, :])
    quad = (psi.reshape(len(b), 1, -1) @ problem.c1c1.T)[:, 0]
    chi = (quad + (problem.resid @ b[:, :, None])[:, :, 0]) / problem.beta
    wd = problem.kappa_w / (1.0 + chi)
    return V_eff, nu_eff, L, psi, chi, wd


def fixed_point_map(problem: DetEquivProblem, z: np.ndarray, V: np.ndarray, nu: np.ndarray, b: np.ndarray,
                    rho: np.ndarray):
    """One application of the self-consistent map to a batch of states.

    z (B,), V (B,k,k), nu (B,k), b (B,k) and the tilts rho (B,2); returns
    (V', nu', b') of the states' shapes.  Rows never mix: every row gets the
    arithmetic of a batch of one, bit for bit, because each average over the
    kappa nodes is the row's own stacked product with the `c1c1` or the residual table (one GEMM over the
    batch is not batch-invariant in BLAS).  A row whose state is non-finite
    comes back non-finite.  The largest intermediates are (B, m).
    """
    wd = _kernels(problem, V, nu, b, rho)[-1]
    sf = problem.sample_factor
    V_new = sf * (wd[:, None, :] @ problem.c1c1)[:, 0].reshape(V.shape)
    nu_new = sf * (problem.resid.T @ wd[:, :, None])[:, :, 0]
    V_new_eff, nu_new_eff = _effective(problem, V_new, nu_new, rho)
    L_new = _solve_L(V_new_eff, b)
    b_new = problem.pi * problem.beta / (np.diagonal(L_new, axis1=1, axis2=2) + nu_new_eff - z[:, None])
    return V_new, nu_new, b_new


def _cold_state(problem: DetEquivProblem, z: complex) -> FixedPointState:
    k = problem.k
    b0 = problem.pi.astype(complex) * problem.beta / (-z)
    return FixedPointState(z=z, V=np.zeros((k, k), dtype=complex), nu=np.zeros(k, dtype=complex), b=b0)


def solve_batch(
    problem: DetEquivProblem,
    zs: Sequence[complex],
    starts: Sequence[FixedPointState],
    rhos: Sequence[tuple],
) -> list:
    """Anderson-accelerated iteration of the map at zs[i] tilted by rhos[i], from the iterate starts[i], per batch row.

    This is the one iteration engine: type-II Anderson acceleration (Walker &
    Ni 2011) with memory ANDERSON_MEMORY and mixing ANDERSON_MIXING.  Each row
    keeps its own ring of the last iterate and residual differences, and the
    small least-squares problems of all rows are one stacked solve of their
    Gram matrices, each with a relative Tikhonov term.  A row takes the damped
    step X + ANDERSON_MIXING * (F(X) - X) instead, and clears its history, only
    when the extrapolated iterate leaves the Stieltjes half-plane (Im z > 0 but
    some Im b_q < 0): without that guard the extrapolation can jump to the
    non-physical root.  A row converges when its residual falls below
    DEFAULT_TOL, and leaves the batch then or when its map value turns
    non-finite, so each row ends exactly as it would in a batch of its own.
    Returns, per row, the converged FixedPointState or the FixedPointError that
    ended it (NonConvergenceError after MAX_ITER map rows, UnphysicalRootError
    for a root that `_certified` rejects); either carries the row's SolveStats.
    """
    out: list = [None] * len(zs)
    if not out:
        return out
    k = problem.k
    rows = np.arange(len(out))
    z = np.array([complex(s) for s in zs])
    rho = np.array(rhos, dtype=float)
    # one packed iterate per row, (V, nu, b) flattened, so that the residual and the step are one array each
    X = np.stack([np.concatenate((s.V.ravel(), s.nu, s.b)) for s in starts])
    # per row, rings of the last ANDERSON_MEMORY differences of the damped iterate D = X + mixing*f and of the
    # residual f; pushes counts the differences stored since the row's last reset, and a reset zeroes its rings
    dD = np.zeros((len(out), ANDERSON_MEMORY, X.shape[1]), dtype=complex)
    dF = np.zeros_like(dD)
    pushes = np.zeros(len(out), dtype=int)
    rejections = np.zeros(len(out), dtype=int)
    upper = z.imag > 0
    D_prev = f_prev = X
    for it in range(1, MAX_ITER + 1):
        V, nu, b = X[:, :k * k].reshape(-1, k, k), X[:, k * k:k * k + k], X[:, k * k + k:]
        V1, nu1, b1 = fixed_point_map(problem, z, V, nu, b, rho)
        f = np.concatenate((V1.reshape(len(rows), -1), nu1, b1), axis=1) - X
        res = np.abs(f).max(axis=1)
        ok = np.isfinite(res)
        done = ok & (res < DEFAULT_TOL)
        keep = ok & ~done
        if not keep.all():
            for i in np.flatnonzero(~keep):
                stats = SolveStats(it, int(rejections[i]))
                if ok[i]:
                    out[rows[i]] = _certified(problem, FixedPointState(
                        complex(z[i]), V1[i].copy(), nu1[i].copy(), b1[i].copy(), float(res[i]), stats
                    ), rho[i])
                    continue
                name = next((n for n, a in (("V", V1), ("nu", nu1), ("b", b1)) if not np.isfinite(a[i]).all()), "step")
                out[rows[i]] = FixedPointError(
                    f"non-finite {name} in fixed-point map at z={complex(z[i])}; state: b={b[i]}, V={V[i]}"
                )
                out[rows[i]].stats = stats
            rows, z, rho, upper, X, f, res, D_prev, f_prev, dD, dF, pushes, rejections = (
                a[keep] for a in (rows, z, rho, upper, X, f, res, D_prev, f_prev, dD, dF, pushes, rejections)
            )
            if not len(rows):
                return out
        D = X + ANDERSON_MIXING * f
        if it > 1:
            slot = (np.arange(len(rows)), pushes % ANDERSON_MEMORY)
            dD[slot] = D - D_prev
            dF[slot] = f - f_prev
            pushes += 1
        X_next = D
        if pushes.any():
            X_next = D - _anderson_correction(dD, dF, pushes, f)
            leaves = upper & (pushes > 0) & (X_next[:, k * k + k:].imag < 0).any(axis=1)
            if leaves.any():
                rejections += leaves
                pushes[leaves] = 0
                dD[leaves] = dF[leaves] = 0.0
                X_next[leaves] = D[leaves]
        D_prev, f_prev = D, f
        X = X_next
    for i, row in enumerate(rows):
        out[row] = NonConvergenceError(
            f"fixed point did not converge at z={complex(z[i])} (residual {res[i]:.3e} after {MAX_ITER} iterations)"
        )
        out[row].stats = SolveStats(MAX_ITER, int(rejections[i]))
    return out


def _anderson_correction(dD: np.ndarray, dF: np.ndarray, pushes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """dD^T gamma per row, gamma the Tikhonov least-squares fit of the residual f by the row's stored dF.

    dD, dF are (B, memory, n) rings and f is (B, n).  A slot past a row's
    pushes holds zeros and gets a unit diagonal, so its gamma is exactly 0.
    Every product and solve runs within one row.
    """
    memory = dF.shape[1]
    gram = dF.conj() @ dF.transpose(0, 2, 1)
    diag = gram.reshape(len(gram), -1)[:, ::memory + 1]  # a view: writing it writes the diagonal
    scale = np.maximum(diag.real.max(axis=1), np.finfo(float).tiny)
    diag += np.where(np.arange(memory) < pushes[:, None], ANDERSON_TIKHONOV * scale[:, None], 1.0)
    gamma = np.linalg.solve(gram, dF.conj() @ f[:, :, None])
    return (gamma.transpose(0, 2, 1) @ dD)[:, 0]


def _certified(problem: DetEquivProblem, state: FixedPointState, rho: np.ndarray):
    """The state, or the UnphysicalRootError of an untilted root on z < 0 outside 0 < b_q <= pi_q beta / |z|."""
    z, b = state.z, state.b
    if z.imag or z.real >= 0 or rho.any():
        return state
    bound = problem.pi * problem.beta / -z.real
    if not b.imag.any() and np.all(b.real > 0) and np.all(b.real <= bound * (1 + CERTIFICATE_SLACK)):
        return state
    error = UnphysicalRootError(f"root at z={z} outside the Stieltjes bounds 0 < b <= pi*beta/|z| = {bound}: b={b}")
    error.stats = state.stats
    return error


def ladder(z: complex) -> list:
    """Path to z by LADDER_FACTOR per rung: on z < 0 from -LADDER_TOP, else Im z from LADDER_TOP while above
    LADDER_FLOOR; then z."""
    if z.imag >= LADDER_TOP or abs(z) >= LADDER_TOP:
        return [z]
    real = z.imag == 0.0 and z.real < 0.0
    stop = -z.real if real else max(z.imag, LADDER_FLOOR)
    path, step = [], LADDER_TOP
    while step > stop:
        path.append(complex(-step, 0.0) if real else complex(z.real, step))
        step *= LADDER_FACTOR
    return path + [z]


def solve_paths(problem: DetEquivProblem, paths: Sequence[Sequence[complex]], starts: Sequence) -> list:
    """Natural-parameter continuation along one non-empty path of z values per row, all rows batched.

    Rung r is one `solve_batch` call over every row whose path has an r-th
    point and whose rung r-1 converged, warm-started from that result; rung 0
    starts from starts[i], or cold at paths[i][0] when starts[i] is None.
    Returns, per row, the state at the end of its path or the FixedPointError
    of its failed rung, either with SolveStats summed over the row's rungs.
    """
    current = [_cold_state(problem, path[0]) if start is None else start for path, start in zip(paths, starts)]
    for rung in range(max(map(len, paths), default=0)):
        live = [i for i, path in enumerate(paths) if rung < len(path) and isinstance(current[i], FixedPointState)]
        results = solve_batch(problem, [paths[i][rung] for i in live], [current[i] for i in live],
                              np.zeros((len(live), 2)))
        for i, result in zip(live, results):
            if rung:
                result.stats = current[i].stats + result.stats
            current[i] = result
    return current


def solve_fixed_point(
    problem: DetEquivProblem,
    z: complex,
    warm_start: FixedPointState | None = None,
) -> FixedPointState:
    """Solve the self-consistent equations at z (Im z >= 0, off R+): `solve_paths` with one row.

    Without `warm_start` (a solution at a nearby point, or any explicit
    initial iterate) the row takes the `ladder`.  Raises its FixedPointError.
    """
    z = complex(z)
    if z.imag < 0.0 or (z.imag == 0.0 and z.real >= 0.0):
        raise ValueError(f"z must lie in the upper half-plane or on the negative real axis, got {z}")
    result = solve_paths(problem, [[z] if warm_start is not None else ladder(z)], [warm_start])[0]
    if isinstance(result, FixedPointError):
        raise result
    return result


def solver_totals(results: list) -> dict:
    """JSON summary of the work of some solves (states or FixedPointErrors), for a run manifest."""
    spent = sum((r.stats for r in results), SolveStats())
    residuals = [r.residual for r in results if isinstance(r, FixedPointState)]
    return {
        "map_rows": spent.rows,
        "solves": len(results),
        "rows_per_solve": spent.rows / len(results) if results else None,
        "fallbacks": {"half_plane": spent.half_plane},
        "max_final_residual": max(residuals) if residuals else None,
    }


def stieltjes(problem: DetEquivProblem, b: np.ndarray) -> np.ndarray:
    """m(z) = (1/beta) sum_q b_q(z), for b of shape (..., k): one m per state."""
    return 1.0 / problem.beta * np.sum(b, axis=-1)


# --------------------------------------------------------------------------- #
# Schur block
# --------------------------------------------------------------------------- #


def schur_block(problem: DetEquivProblem, state: FixedPointState, rho: tuple) -> tuple:
    """Complex (C^{-1}, H, A21t): the (k+1)-square Schur block of the equivalent resolvent at state.z, tilted by rho.

    C^{-1} = A11 - z I - A21t^T H A21t with H = (psi^{-1} + (alpha/beta) S)^{-1},
    solved once without forming psi^{-1}.  Index 0 of the k+1 is the label,
    1..k the group means: A11 is the data average of iota iota^T, iota(kappa) =
    (g(kappa), c0(kappa, zeta_1), ..., c0(kappa, zeta_k)); A21t is the reduced
    k x (k+1) cross block (one row per vocabulary entry); S = E_kappa[(kappa^2
    - 1) c1 c1^T / (1 + chi)].
    """
    _, _, _, psi, _, wd = (a[0] for a in _kernels(problem, state.V[None], state.nu[None], state.b[None],
                                                  np.array([rho])))
    sf = problem.sample_factor
    iota = np.concatenate([problem.g[:, None], problem.c0], axis=1)
    A11 = sf * (iota.T @ (iota * wd[:, None]))
    A21t = sf * np.einsum("m,m,mq,mj->qj", wd, problem.kappa, problem.c1, iota)
    S = problem.c1.T @ (problem.c1 * ((problem.kappa**2 - 1.0) * wd)[:, None])
    H = np.linalg.solve(np.eye(problem.k, dtype=complex) + psi @ (sf * S), psi)
    return A11 - state.z * np.eye(problem.k + 1) - A21t.T @ H @ A21t, H, A21t
