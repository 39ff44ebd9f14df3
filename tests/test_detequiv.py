import re

import numpy as np
import pytest

from oracles import (
    assemble_ge, blocks, bulk_kernels, conjugate, empirical_stieltjes, scalar_fixed_point_map,
)
from spikedrf import detequiv as de
from spikedrf import generror as ge
from spikedrf import simulate as sim
from spikedrf.cache import FixedPointCache
from spikedrf.model import ExperimentConfig, VocabularySpec, get_activation, get_link, make_rng
from spikedrf.quadrature import hermite_tables
from test_golden import TINY, VOCABS


def mp_stieltjes(gamma, z):
    """Closed-form Marchenko-Pastur transform of Y^T Y / p, Y of shape (n, p), gamma = n/p.

    Root of z m^2 + (1 + z - gamma) m + 1 = 0 with Stieltjes branch.
    """
    a, b, c = z, 1 + z - gamma, 1.0
    disc = np.sqrt(complex(b * b - 4 * a * c))
    roots = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
    if z.imag > 0:
        return max(roots, key=lambda m: m.imag)
    return max(roots, key=lambda m: m.real)


def small_problem(k=2, alpha=1.5, beta=1.2, activation="tanh", link="sin", zeta=(0.6, -0.3), pi=(0.7, 0.3), **kw):
    return de.build_problem(get_activation(activation), get_link(link), zeta[:k], pi[:k], alpha=alpha, beta=beta, **kw)


def test_alpha_zero_closed_form():
    prob = small_problem(alpha=0.0)
    z = complex(-2.0, 0.5)
    st = de.solve_fixed_point(prob, z)
    assert np.max(np.abs(st.b - prob.pi * prob.beta / (-z))) < 1e-12
    assert np.max(np.abs(st.V)) < 1e-12 and np.max(np.abs(st.nu)) < 1e-12
    assert abs(de.stieltjes(prob, st.b) - (-1 / z)) < 1e-12


def test_alpha_zero_perturbed_map():
    # at alpha = 0 only the rho terms survive: V' = 0, nu' = rho2 * E[r], b' = pi*beta/(-z + penalty shifts)
    prob = small_problem(alpha=0.0)
    z = complex(-1.0, 1.0)
    rho = (0.02, 0.05)
    st = de.solve_batch(prob, [z], [de._cold_state(prob, z)], [rho])[0]
    assert np.max(np.abs(st.V)) < 1e-12
    assert np.max(np.abs(st.nu)) < 1e-12  # the rho2 shift enters through nu_eff, not the stored state
    L = de._solve_L(rho[0] * prob.cbar + 0j * prob.cbar, st.b)
    expected_b = prob.pi * prob.beta / (np.diag(L) + rho[1] * prob.rbar - z)
    assert np.max(np.abs(st.b - expected_b)) < 1e-9


def test_marchenko_pastur_oracle(monkeypatch):
    # c1 = 0 activation with zero spike: the system collapses to the exact MP law
    # with ratio gamma = alpha/beta
    monkeypatch.setattr(de, "DEFAULT_TOL", 1e-12)
    for alpha, beta, z in [(0.6, 1.2, complex(-1.0, 0.0)), (2.0, 0.8, complex(-0.7, 0.3)), (1.0, 1.0, complex(0.5, 0.8))]:
        prob = de.build_problem(get_activation("hermite2"), get_link("sin"), [0.0], [1.0], alpha=alpha, beta=beta)
        st = de.solve_fixed_point(prob, z)
        m = de.stieltjes(prob, st.b)
        assert abs(m - mp_stieltjes(alpha / beta, z)) < 1e-8


def test_identity_activation_matches_eigenvalues():
    # sigma = identity, no spike: bulk is a Wishart product; check against a
    # finite-size eigenvalue sample
    d, beta, alpha = 2000, 1.2, 0.9
    p, n = int(beta * d), int(alpha * d)
    rng = make_rng(17)
    W = sim.sample_first_layer(p, d, rng)
    X = rng.standard_normal((n, d))
    eigs = sim.bulk_spectrum(X @ W.T)
    prob = de.build_problem(get_activation("identity"), get_link("sin"), [0.0], [1.0], alpha=n / d, beta=p / d)
    for z in [complex(-0.5, 0.3), complex(0.8, 0.2)]:
        m_th = de.stieltjes(prob, de.solve_fixed_point(prob, z).b)
        assert abs(m_th - empirical_stieltjes(eigs, z)) < 0.03


def test_block_wishart_scalar_b_form():
    # direct k=2 experiment pinning b_q = pi_q beta / (L_qq + D_q - z) against
    # the group-resolved diagonal of an actual block resolvent
    rng = np.random.default_rng(5)
    d, p = 1200, 1800
    beta = p / d
    pi = np.array([0.7, 0.3])
    sizes = np.array([int(0.7 * p), p - int(0.7 * p)])
    groups = np.repeat([0, 1], sizes)
    A = rng.standard_normal((2, 2))
    C = A @ A.T + 0.5 * np.eye(2)
    D = np.array([0.4, 0.9])
    W = rng.standard_normal((p, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    z = complex(-0.7, 0.4)
    R = np.linalg.inv(C[np.ix_(groups, groups)] * (W @ W.T) + np.diag(D[groups]) - z * np.eye(p))
    emp_b = np.array([np.sum(np.diag(R)[groups == q]) for q in (0, 1)]) / d

    b = pi * beta / (-z) * np.ones(2, dtype=complex)
    for _ in range(5000):
        L = de._solve_L(C.astype(complex), b)
        b_new = pi * beta / (np.diag(L) + D - z)
        if np.max(np.abs(b_new - b)) < 1e-13:
            b = b_new
            break
        b = b + 0.5 * (b_new - b)
    assert np.max(np.abs(emp_b - b)) < 5e-4

    # the matrix-inverse reading of the same display is measurably wrong
    b2 = pi * beta / (-z) * np.ones(2, dtype=complex)
    for _ in range(5000):
        L = de._solve_L(C.astype(complex), b2)
        b_new = pi * beta * np.diag(np.linalg.inv(L + np.diag(D) - z * np.eye(2)))
        if np.max(np.abs(b_new - b2)) < 1e-13:
            b2 = b_new
            break
        b2 = b2 + 0.5 * (b_new - b2)
    assert np.max(np.abs(emp_b - b2)) > 10 * np.max(np.abs(emp_b - b))


def test_half_plane_sign_conditions():
    prob = small_problem()
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5.0))
        st = de.solve_fixed_point(prob, z)
        zeta = max(z.imag, -z.real)
        assert np.all(st.V.imag <= 1e-12)
        assert np.all(st.nu.imag <= 1e-12)
        assert np.all(st.b.imag >= -1e-12)
        assert np.all(np.abs(st.b) <= prob.pi * prob.beta / zeta + 1e-9)


def test_two_cold_starts_agree():
    prob = small_problem()
    z = complex(-0.3, 10.0)
    rng = np.random.default_rng(1)
    sols = []
    for _ in range(2):
        init = de.FixedPointState(
            z=z,
            V=0.2 * (rng.standard_normal((2, 2)) + 0j),
            nu=0.1 * (rng.standard_normal(2) + 0j),
            b=prob.pi * prob.beta / (-z) * (1 + 0.3 * rng.standard_normal(2)),
        )
        sols.append(de.solve_fixed_point(prob, z, warm_start=init))
    diff = max(
        np.max(np.abs(sols[0].V - sols[1].V)),
        np.max(np.abs(sols[0].nu - sols[1].nu)),
        np.max(np.abs(sols[0].b - sols[1].b)),
    )
    assert diff < 1e-8


def test_warm_cold_agreement_and_tail():
    prob = small_problem()
    z = complex(-0.8, 0.02)
    cold = de.solve_fixed_point(prob, z)
    nearby = de.solve_fixed_point(prob, complex(-0.82, 0.02))
    warm = de.solve_fixed_point(prob, z, warm_start=nearby)
    assert np.max(np.abs(cold.b - warm.b)) < 1e-8
    # -z m(z) -> 1 along the imaginary axis
    t = 1e3
    m = de.stieltjes(prob, de.solve_fixed_point(prob, complex(0, t)).b)
    assert abs(m * complex(0, -t) - 1) < 1e-2


def test_vocabulary_split_invariance():
    base = small_problem()
    split = de.build_problem(get_activation("tanh"), get_link("sin"), [0.6, 0.6, -0.3], [0.35, 0.35, 0.3], alpha=1.5, beta=1.2)
    for z in [complex(-0.5, 0.4), complex(-0.05, 0.0)]:
        sb = de.solve_fixed_point(base, z)
        ss = de.solve_fixed_point(split, z)
        assert abs(np.sum(sb.b) - np.sum(ss.b)) < 1e-8
        assert abs(de.stieltjes(base, sb.b) - de.stieltjes(split, ss.b)) < 1e-8


def test_holomorphy_cauchy_riemann(monkeypatch):
    monkeypatch.setattr(de, "DEFAULT_TOL", 1e-12)
    prob = small_problem()
    z0, h = complex(-1.0, 0.5), 1e-5

    def m(z):
        return de.stieltjes(prob, de.solve_fixed_point(prob, z).b)

    d_re = (m(z0 + h) - m(z0 - h)) / (2 * h)
    d_im = (m(z0 + 1j * h) - m(z0 - 1j * h)) / (2j * h)
    assert abs(d_re - d_im) < 1e-5


def test_rejects_lower_half_plane():
    # the lower half-plane is the conjugate of the upper one: callers conjugate a state themselves (oracles.conjugate)
    prob = small_problem()
    with pytest.raises(ValueError):
        de.solve_fixed_point(prob, complex(-0.5, -0.3))


def test_cache_roundtrip_keeps_every_bit(tmp_path):
    # k = 2 and z off both axes: a full 2x2 V goes through the hex record and back
    prob = small_problem()
    st = de.solve_fixed_point(prob, complex(-0.7, 0.2))
    assert st.V.shape == (2, 2) and np.all(st.V != 0)
    FixedPointCache(tmp_path / "cache.cache", prob).put(st)
    back = FixedPointCache(tmp_path / "cache.cache", prob).get(st.z)
    assert back is not None and back.z == st.z
    assert np.array_equal(back.V, st.V) and np.array_equal(back.nu, st.nu) and np.array_equal(back.b, st.b)
    assert back.residual == st.residual


def test_cache_loads_only_its_own_problems_records(tmp_path):
    # one file, two problems: each cache loads its own records, counts the other's as neither torn nor served
    path = tmp_path / "cache.cache"
    prob, other = small_problem(), small_problem(alpha=0.8)
    z1, z2 = complex(-0.7, 0.2), complex(0.4, 0.3)
    FixedPointCache(path, other).put(de.solve_fixed_point(other, z1))
    FixedPointCache(path, other).put(de.solve_fixed_point(other, z2))
    FixedPointCache(path, prob).put(de.solve_fixed_point(prob, z1))
    cache = FixedPointCache(path, prob)
    assert len(cache._entries) == 1 and cache.torn_lines == 0
    assert cache.get(z1) is not None and cache.get(z2) is None
    assert (cache.hits, cache.misses) == (1, 1)
    cache.put(de.solve_fixed_point(prob, z2))
    assert len(path.read_text().splitlines()) == 4
    reloaded, other_cache = FixedPointCache(path, prob), FixedPointCache(path, other)
    assert len(reloaded._entries) == 2 and len(other_cache._entries) == 2
    assert all(c.get(z) is not None for c in (reloaded, other_cache) for z in (z1, z2))
    assert (reloaded.hits, reloaded.misses, reloaded.torn_lines) == (2, 0, 0)


def test_batched_put_appends_each_new_state_once(tmp_path):
    # put(*states) appends one line of the records of the states not yet held, in order; a put of held states
    # opens no file
    path, single = tmp_path / "cache.cache", tmp_path / "single.cache"
    prob = small_problem()
    s1, s2, s3 = (de.solve_fixed_point(prob, z) for z in (complex(-0.7, 0.2), complex(0.4, 0.3), complex(-0.3, 0.5)))
    cache = FixedPointCache(path, prob)
    cache.put(s1)
    cache.put(s2, s1, s3, s2)
    for state in (s1, s2, s3):
        FixedPointCache(single, prob).put(state)
    lines, singles = path.read_text().splitlines(), single.read_text().splitlines()
    assert lines == [singles[0], singles[1] + singles[2].split(" ")[1]]
    cache.path = tmp_path  # a directory: opening it to append would raise
    cache.put(s3, s1)
    # a blank line is skipped, not counted as torn
    path.write_text("\n" + "\n".join(singles[:2]) + "\n\n   \n" + singles[2] + "\n")
    reloaded = FixedPointCache(path, prob)
    assert reloaded.torn_lines == 0 and len(reloaded._entries) == 3
    assert all(reloaded.get(s.z).z == s.z for s in (s1, s2, s3))


def test_nonconvergence_reported(monkeypatch):
    prob = small_problem()
    monkeypatch.setattr(de, "MAX_ITER", 2)
    with pytest.raises(de.NonConvergenceError) as err:
        de.solve_fixed_point(prob, complex(-0.5, 0.5))
    assert err.value.stats.rows == 2
    assert float(re.search(r"residual (\S+) after 2 iterations", str(err.value)).group(1)) > 0


def test_rejects_positive_real_axis():
    prob = small_problem()
    with pytest.raises(ValueError):
        de.solve_fixed_point(prob, complex(0.5, 0.0))


def test_blocks_structure():
    # g = 0 link zeroes the label row/column of A11; sigma = identity collapses S
    zero_link_prob = de.build_problem(
        get_activation("tanh"), get_link("sin"), [0.5], [1.0], alpha=1.0, beta=1.0
    )
    # emulate g = 0 by zeroing the stored link values
    import dataclasses

    zero_link_prob = dataclasses.replace(zero_link_prob, g=np.zeros_like(zero_link_prob.g))
    st = de.solve_fixed_point(zero_link_prob, complex(-0.5, 0.0))
    kern = blocks(zero_link_prob, st)
    assert np.max(np.abs(kern.A11[0, :])) < 1e-14
    assert np.max(np.abs(kern.A11[:, 0])) < 1e-14

    ident = de.build_problem(get_activation("identity"), get_link("sin"), [0.3], [1.0], alpha=1.2, beta=0.9)
    st_i = de.solve_fixed_point(ident, complex(-0.6, 0.0))
    kern_i = blocks(ident, st_i)
    _, chi = bulk_kernels(ident, st_i)
    direct = ident.kappa_w @ ((ident.kappa**2 - 1.0) / (1.0 + chi))
    assert abs(kern_i.S[0, 0] - direct) < 1e-12
    # chi reproduces its defining sum on the quadrature nodes
    psi, b = kern_i.psi, st_i.b
    manual = (ident.c1[0] @ psi @ ident.c1[0] + b @ ident.resid[0]) / ident.beta
    assert abs(chi[0] - manual) < 1e-12


@pytest.mark.parametrize("z", [complex(-0.4, 0.0), complex(0.7, 0.3)])
def test_schur_block_is_the_printed_formula(z):
    # schur_block solves H once without forming psi^{-1}; the printed form inverts psi and then psi^{-1} + sf*S
    prob = small_problem()
    st = de.solve_fixed_point(prob, z)
    Cinv, H, A21t = de.schur_block(prob, st, (0.0, 0.0))
    kern = blocks(prob, st)
    printed_H = np.linalg.inv(np.linalg.inv(kern.psi) + prob.sample_factor * kern.S)
    assert np.max(np.abs(Cinv - (kern.A11 - z * np.eye(3) - kern.A21t.T @ printed_H @ kern.A21t))) <= 1e-10
    assert np.max(np.abs(H - printed_H)) <= 1e-10 and np.max(np.abs(A21t - kern.A21t)) <= 1e-10


def test_a11_positive_semidefinite_at_negative_real():
    prob = small_problem()
    st = de.solve_fixed_point(prob, complex(-0.3, 0.0))
    kern = blocks(prob, st)
    eigs = np.linalg.eigvalsh(kern.A11.real)
    assert eigs.min() >= -1e-10


def test_assemble_ge_toy_cases():
    prob = de.build_problem(get_activation("tanh"), get_link("sin"), [0.4], [1.0], alpha=0.9, beta=1.3)
    z = complex(-0.6, 0.25)
    st = de.solve_fixed_point(prob, z)
    kern = blocks(prob, st)
    p = 8
    groups = np.zeros(p, dtype=int)
    # theta = 0: block-diagonal inverse in closed form
    Ge0 = assemble_ge(prob, st, np.zeros(p), groups)
    assert np.max(np.abs(Ge0[:2, :2] - np.linalg.inv(kern.A11 - z * np.eye(2)))) < 1e-12
    assert np.max(np.abs(np.diag(Ge0)[2:] - 1 / bulk_kernels(prob, st)[0][groups])) < 1e-12

    rng = np.random.default_rng(3)
    theta = rng.standard_normal(p) / np.sqrt(60)
    Ge = assemble_ge(prob, st, theta, groups)
    # label-coordinate unit mass equals the Schur-complemented entry
    M = np.linalg.inv(Ge)
    C = np.linalg.inv(M[:2, :2] - M[:2, 2:] @ np.linalg.inv(M[2:, 2:]) @ M[2:, :2])
    assert abs(Ge[0, 0] - C[0, 0]) < 1e-12
    # hermiticity pattern
    Ge_conj = assemble_ge(prob, conjugate(st), theta, groups)
    assert np.max(np.abs(Ge_conj - Ge.conj())) < 1e-10


def test_problem_from_config_spike_scale():
    cfg = ExperimentConfig(
        d=100, p=150, n=120, n0=500, eta_tilde=3.0, lam=0.1, seed=0,
        activation="relu", link="sin", vocab=VocabularySpec(zeta=(1.0, -2.0), pi=(0.8, 0.2)),
    )
    prob = de.problem_from_config(cfg)
    c1 = cfg.activation_spec().first_coeff()
    cstar1 = cfg.link_spec().first_coeff()
    expected = (cfg.eta_tilde / cfg.beta) * c1 * cstar1 * np.array([1.0, -2.0])
    # the tables are those of the expected spike values, bit for bit
    c0, c1_table, resid = hermite_tables(cfg.activation_spec().fn, prob.kappa, expected)
    assert np.array_equal(prob.c0, c0) and np.array_equal(prob.c1, c1_table) and np.array_equal(prob.resid, resid)
    assert prob.alpha == cfg.alpha and prob.beta == cfg.beta


def warm_batch(prob):
    """40 upper half-plane targets: warm starts from nearby (fast) and distant solutions, and cold starts (slow).

    The cold rows start from b = pi beta / (-z) at Im z = 2e-3, far from their
    target, so they need several times the iterations of the nearby warm rows.
    """
    bases = [de.solve_fixed_point(prob, complex(lam, 0.05)) for lam in np.linspace(-1.0, 2.0, 10)]
    zs, starts = [], []
    for i, base in enumerate(bases):
        near_axis = complex(base.z.real, 2e-3)
        cold_b = prob.pi * prob.beta / (-near_axis)
        cold = de.FixedPointState(near_axis, np.zeros_like(base.V), np.zeros_like(base.nu), cold_b)
        zs += [base.z + 1e-3, base.z - 0.02j, complex(base.z.real, 0.5), near_axis]
        starts += [base, base, bases[(i + 5) % len(bases)], cold]
    return zs, starts


def assert_same_state(a, b):
    assert np.array_equal(a.V, b.V) and np.array_equal(a.nu, b.nu) and np.array_equal(a.b, b.b)
    assert a.z == b.z and a.residual == b.residual and a.stats == b.stats


BATCH_PROBLEMS = pytest.mark.parametrize(
    "prob,tilt",
    [
        (small_problem(k=1), (0.0, 0.0)),
        (small_problem(k=2), (0.0, 0.0)),
        (small_problem(k=2), (1e-4, 0.0)),
        (small_problem(k=2), (0.0, -1e-4)),
    ],
    ids=["k1", "k2", "k2-perturbed", "k2-perturbed-rho2"],
)


@BATCH_PROBLEMS
def test_batched_map_is_bit_identical_to_the_scalar_map(prob, tilt):
    zs, starts = warm_batch(prob)
    zs, starts = zs * 3, starts * 3
    assert len(zs) == 120
    V, nu, b = (np.stack([getattr(s, name) for s in starts]) for name in ("V", "nu", "b"))
    rows = zip(*de.fixed_point_map(prob, np.array(zs), V, nu, b, np.tile(tilt, (len(zs), 1))))
    for z, start, got in zip(zs, starts, rows):
        want = scalar_fixed_point_map(prob, de.FixedPointState(z, start.V, start.nu, start.b), tilt)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@BATCH_PROBLEMS
def test_map_row_does_not_depend_on_its_batch_size(prob, tilt):
    zs, starts = warm_batch(prob)
    zs, starts = np.array(zs * 10), starts * 10
    assert len(zs) == 400
    V, nu, b = (np.stack([getattr(s, name) for s in starts]) for name in ("V", "nu", "b"))
    rho = np.tile(tilt, (len(zs), 1))
    full = de.fixed_point_map(prob, zs, V, nu, b, rho)
    for size in (1, 63, 64, 65):
        part = de.fixed_point_map(prob, zs[:size], V[:size], nu[:size], b[:size], rho[:size])
        assert all(np.array_equal(p, f[:size]) for p, f in zip(part, full))


def test_c1c1_is_the_table_of_c1_products():
    prob = small_problem(k=2)
    m, k = prob.c1.shape
    assert prob.c1c1.shape == (m, k * k) and prob.c1c1.dtype == complex
    for q in range(k):
        for r in range(k):
            assert np.array_equal(prob.c1c1[:, q * k + r], prob.c1[:, q] * prob.c1[:, r])
    assert np.array_equal(prob.c1c1, (prob.c1[:, :, None] * prob.c1[:, None, :]).reshape(m, k * k))


@BATCH_PROBLEMS
def test_batch_is_bit_identical_to_single_solves(prob, tilt):
    zs, starts = warm_batch(prob)
    batch = de.solve_batch(prob, zs, starts, [tilt] * len(zs))
    alone = [de.solve_batch(prob, [z], [s], [tilt])[0] for z, s in zip(zs, starts)]
    for got, want in zip(batch, alone):
        assert_same_state(got, want)
    rows = [s.stats.rows for s in alone]
    assert max(rows) > 3 * min(rows)  # slow and fast rows share the batch


def test_failing_rows_leave_the_batch_alone(monkeypatch):
    prob = small_problem()
    zs, starts = warm_batch(prob)
    alone = [de.solve_fixed_point(prob, z, warm_start=s) for z, s in zip(zs, starts)]
    slow = int(np.argmax([s.stats.rows for s in alone]))
    cap = max(s.stats.rows for i, s in enumerate(alone) if i != slow)
    assert cap < alone[slow].stats.rows
    poisoned = 3
    good = starts[poisoned]
    nan_start = de.FixedPointState(z=good.z, V=good.V * np.nan, nu=good.nu, b=good.b)
    monkeypatch.setattr(de, "MAX_ITER", cap)
    batch = de.solve_batch(prob, zs, [nan_start if i == poisoned else s for i, s in enumerate(starts)],
                           [(0.0, 0.0)] * len(zs))
    assert isinstance(batch[poisoned], de.FixedPointError) and "non-finite" in str(batch[poisoned])
    assert isinstance(batch[slow], de.NonConvergenceError) and batch[slow].stats.rows == cap
    for i, (got, want) in enumerate(zip(batch, alone)):
        if i not in (poisoned, slow):
            assert_same_state(got, want)


def test_empty_batch_does_no_work(monkeypatch):
    def no_map(*args):
        raise AssertionError("the map ran for an empty batch")

    monkeypatch.setattr(de, "fixed_point_map", no_map)
    assert de.solve_batch(small_problem(), [], [], []) == []


def test_singular_row_of_a_stack_falls_back_alone():
    # I + V diag(b) is singular in the first row only: that row takes the SVD floor, the other its plain solve
    V = np.array([[[1, 0], [0, 1]], [[2, 1], [1, 3]]], dtype=complex)
    b = np.array([[-1, 1], [0.3, 0.2]], dtype=complex)
    L = de._solve_L(V, b)
    assert np.array_equal(L[0], de._solve_L(V[0], b[0])) and np.array_equal(L[1], de._solve_L(V[1], b[1]))
    assert np.all(np.isfinite(L))


FIG2 = dict(d=1365, p=2048, n=1365, n0=30 * 1365, eta_tilde=2.0, lam=0.01, seed=0, activation="relu", link="tanh")
FIG2_K1 = VocabularySpec(zeta=(1.0,), pi=(1.0,))
FIG2_K4 = VocabularySpec(zeta=(1.0, -0.5, 1.5, -2.0), pi=(0.7, 0.1, 0.1, 0.1))


def test_ladder_on_the_negative_real_axis():
    z = complex(-0.01, 0.0)
    path = de.ladder(z)
    assert path[0] == -de.LADDER_TOP and path[-1] == z and not any(p.imag for p in path)
    ratios = [b.real / a.real for a, b in zip(path[:-2], path[1:-1])]
    assert ratios == pytest.approx([de.LADDER_FACTOR] * len(ratios), rel=1e-12)
    assert path[-2].real < z.real < de.LADDER_FACTOR * path[-2].real  # the last hop is shorter than a rung
    assert de.ladder(complex(-20.0, 0.0)) == [complex(-20.0, 0.0)]
    # above the axis the ladder still comes down in Im z at the target's Re z
    assert [p.real for p in de.ladder(complex(-0.01, 0.02))] == [-0.01] * len(de.ladder(complex(-0.01, 0.02)))


def assert_certified_or_rejected(result):
    """A solve at z < 0 ends in a state inside the Stieltjes bounds or in UnphysicalRootError, never in b <= 0."""
    assert isinstance(result, (de.FixedPointState, de.UnphysicalRootError))
    if isinstance(result, de.FixedPointState):
        assert not result.b.imag.any() and np.all(result.b.real > 0)


def test_certificate_rejects_a_direct_cold_root_at_minus_lambda():
    # Fig.-2, k=1, alpha=2: which root a cold start directly at z = -lambda reaches hangs on rounding, and
    # the unphysical one is b = -84.2 (m = -56.1): a start inside its basin converges to it, and is rejected
    prob = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_K1)).with_alpha(2.0)
    z = complex(-FIG2["lam"], 0.0)
    assert_certified_or_rejected(de.solve_batch(prob, [z], [de._cold_state(prob, z)], [(0.0, 0.0)])[0])
    basin = de.FixedPointState(z, np.zeros((1, 1), complex), np.zeros(1, complex), np.array([-84.0 + 0j]))
    direct = de.solve_batch(prob, [z], [basin], [(0.0, 0.0)])[0]
    assert isinstance(direct, de.UnphysicalRootError) and direct.stats.rows > 0
    assert "b=[-84.22" in str(direct)
    # the real-axis ladder reaches the Stieltjes root, inside 0 < b <= pi beta / lambda = 150
    m = de.stieltjes(prob, de.solve_fixed_point(prob, z).b)
    assert m.imag == 0.0 and m.real == pytest.approx(11.98, abs=5e-3)


def test_certificate_rejects_the_root_of_a_coarse_real_path():
    # Fig.-2, k=4, alpha=1: the path -10, -1, -0.01 can converge to b = (-17.5, -1.77, -2.58, -1.24), as a
    # start inside that root's basin does
    prob = de.problem_from_config(ExperimentConfig(**FIG2, vocab=FIG2_K4)).with_alpha(1.0)
    z = complex(-FIG2["lam"], 0.0)
    assert_certified_or_rejected(de.solve_paths(prob, [[complex(-10.0, 0.0), complex(-1.0, 0.0), z]], [None])[0])
    b = np.array([-17.5, -1.8, -2.6, -1.2], complex)
    basin = de.FixedPointState(z, np.full((4, 4), -0.1 + 0j), np.zeros(4, complex), b)
    coarse = de.solve_paths(prob, [[z]], [basin])[0]
    assert isinstance(coarse, de.UnphysicalRootError) and "b=[-17.49" in str(coarse)
    # the ladder's root, against the bound (105, 15, 15, 15)
    assert de.solve_fixed_point(prob, z).b.real == pytest.approx([43.62, 5.68, 6.22, 4.865], abs=5e-3)


def test_certificate_accepts_the_attained_bound_at_alpha_zero():
    prob = small_problem(alpha=0.0)
    for lam in (0.01, 0.3, 7.0):
        state = de.solve_fixed_point(prob, complex(-lam, 0.0))
        assert np.max(np.abs(state.b / (prob.pi * prob.beta / lam) - 1.0)) <= de.CERTIFICATE_SLACK
    # a tilted row is not a covariance resolvent: its root leaves the bound, and the engine does not check it;
    # the check is per row, so the untilted row of the same batch is checked
    z = complex(-0.3, 0.0)
    tilted, untilted = de.solve_batch(prob, [z, z], [de._cold_state(prob, z)] * 2, [(-1e-4, 0.0), (0.0, 0.0)])
    assert np.max(tilted.b.real / (prob.pi * prob.beta / 0.3)) > 1.0 + 1e-6
    assert np.max(np.abs(untilted.b / (prob.pi * prob.beta / 0.3) - 1.0)) <= de.CERTIFICATE_SLACK


def assert_same_bits(a, b):
    assert a.z == b.z and a.residual == b.residual and a.stats == b.stats
    assert all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in ("V", "nu", "b"))


TINY_K2 = ExperimentConfig.from_dict({**TINY, "vocab": VOCABS["k2"]})


@pytest.mark.parametrize("config,alpha", [
    (ExperimentConfig(**FIG2, vocab=FIG2_K1), 0.5), (ExperimentConfig(**FIG2, vocab=FIG2_K1), 4.0),
    (ExperimentConfig(**FIG2, vocab=FIG2_K4), 0.5), (ExperimentConfig(**FIG2, vocab=FIG2_K4), 4.0),
    (TINY_K2, TINY_K2.alpha),
], ids=["fig2-k1-0.5", "fig2-k1-4", "fig2-k4-0.5", "fig2-k4-4", "tiny-k2"])
def test_tilted_rows_are_their_own_solves(config, alpha):
    # the four-row batch of tau2_tau3: each row is the warm one-row solve of its tilt, bit for bit
    prob = de.problem_from_config(config).with_alpha(alpha)
    z, h = complex(-config.lam, 0.0), ge.DEFAULT_RHO_STEP
    base = de.solve_fixed_point(prob, z)
    tilts = [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
    for rho, got in zip(tilts, de.solve_batch(prob, [z] * 4, [base] * 4, tilts)):
        assert_same_bits(got, de.solve_batch(prob, [z], [base], [rho])[0])
    # an untilted row is the untilted solve, in a batch of zero tilts and in a batch of tilted rows
    far = de.solve_fixed_point(prob, 3 * z)
    want = de.solve_fixed_point(prob, z, warm_start=far)
    assert want.stats.rows > 5
    for got in de.solve_batch(prob, [z] * 3, [far] * 3, [(0.0, 0.0)] * 3):
        assert_same_bits(got, want)
    mixed = de.solve_batch(prob, [z] * 3, [base, far, base], [tilts[0], (0.0, 0.0), tilts[3]])
    assert_same_bits(mixed[1], want)
