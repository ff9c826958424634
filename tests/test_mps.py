"""Periodic MPS: initialization, energy, local updates, sweeps, correlators."""

import sys
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import bethe_energy, ring_env
from spinsvd import corr, four_site
from spinsvd import mps
from spinsvd import svd_analysis as sa
from spinsvd.basis import enumerate_sector
from spinsvd.errors import ConditioningError
from spinsvd.exact import lanczos_ground_state

# -- reference ring walk ------------------------------------------------------
# Independent oracle for the cached block environments: every site's H_eff and
# N_eff from one walk round the ring of kron-built transfer matrices,
# O(N chi^6) per site.

_SZ = np.diag([-0.5, 0.5])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SM = _SP.T
_I2 = np.eye(2)


def _transfer(a, op=None):
    """Doubled transfer matrix sum_{s',s} op[s',s] kron(A^{s'}, A^{s})."""
    if op is None:
        return np.kron(a[0], a[0]) + np.kron(a[1], a[1])
    out = 0.0
    for sp in range(2):
        for s in range(2):
            if op[sp, s] != 0.0:
                out = out + op[sp, s] * np.kron(a[sp], a[s])
    return out


def mps_correlator_zz(state, i, j):
    """<Sz_i Sz_j> on the (not necessarily normalized) MPS, one entry from
    one ring product of kron-built transfer matrices."""
    n = state.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for n_sites={n}")
    num = den = np.eye(state.chi**2)
    for site, a in enumerate(state.tensors):
        t = _transfer(a)
        # (Sz)^2 = identity/4
        num = num @ (0.25 * t if i == j == site else _transfer(a, _SZ) if site in (i, j) else t)
        den = den @ t
    return float(np.trace(num)) / float(np.trace(den))


def _transfer_set(state):
    """Plain, Sz-, S+- and S--inserted transfer matrices for every site."""
    return tuple([_transfer(a, op) for a in state.tensors] for op in (None, _SZ, _SP, _SM))


def _env_to_quadratic(g, chi):
    """Ring environment (b'b, a'a) -> matrix on the site vector (a'b', ab)."""
    return g.reshape(chi, chi, chi, chi).transpose(2, 0, 3, 1).reshape(chi * chi, chi * chi)


def ring_walk_site_matrices(ts, k, n_sites, chi, j_coupling):
    """Effective H and full 2chi^2 Gram matrix for the tensor at site k.

    One pass around the ring (sites k+1 ... k+N-1) accumulates the plain
    product, the interior Hamiltonian bonds, and the two bonds touching k.
    """
    e, ez, ep, em = ts
    d2 = chi * chi
    js = [(k + 1 + t) % n_sites for t in range(n_sites - 1)]

    p = np.eye(d2)
    q = np.zeros((d2, d2))
    rz = rp = rm = None
    fz = fp = fm = None
    glz = glp = glm = None

    for idx, j in enumerate(js):
        last = idx == len(js) - 1
        q = q @ e[j]
        if rz is not None:
            q += rz @ ez[j] + 0.5 * (rp @ em[j] + rm @ ep[j])
        if last:
            glz, glp, glm = p @ ez[j], p @ ep[j], p @ em[j]
            rz = rp = rm = None
        else:
            rz, rp, rm = p @ ez[j], p @ ep[j], p @ em[j]
        if idx == 0:
            fz, fp, fm = ez[j], ep[j], em[j]
        else:
            fz, fp, fm = fz @ e[j], fp @ e[j], fm @ e[j]
        p = p @ e[j]

    heff = (
        np.kron(_I2, _env_to_quadratic(q, chi))
        + np.kron(_SZ, _env_to_quadratic(fz + glz, chi))
        + 0.5 * np.kron(_SP, _env_to_quadratic(fm + glm, chi))
        + 0.5 * np.kron(_SM, _env_to_quadratic(fp + glp, chi))
    )
    heff *= j_coupling
    neff = np.kron(_I2, _env_to_quadratic(p, chi))
    heff = 0.5 * (heff + heff.T)
    neff = 0.5 * (neff + neff.T)
    return heff, neff


def assert_envs_match_ring_walk(state, j_coupling, tol, n_updates=0):
    """Compare the sweep's cached environments, and the cache-free ring_env, with
    the ring walk at every site (relative Frobenius), updating sites
    0 ... n_updates-1 on the way as a sweep does."""

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    for k, env in mps._sweep_envs(state):
        ref_h, ref_n = ring_walk_site_matrices(
            _transfer_set(state), k, state.n_sites, state.chi, j_coupling
        )
        for e in (env, ring_env(state, k)):
            heff, nenv = mps._site_matrices(e, state.chi, j_coupling)
            assert rel(heff, ref_h) < tol, k
            assert rel(np.kron(_I2, nenv), ref_n) < tol, k
        if k < n_updates:
            mps.optimize_site(state, k, j_coupling, env)


def neel_product_state(n_sites):
    t = np.zeros((n_sites, 2, 1, 1))
    for i in range(n_sites):
        t[i, i % 2, 0, 0] = 1.0
    return mps.MpsState(n_sites, 1, t)


@pytest.fixture(scope="module")
def optimized_n4():
    state, reports = mps.sweep_optimize(mps.random_init(4, 4, seed=1), n_sweeps=15)
    return state, reports


def pair_basis(chi):
    """Explicit orthogonal pair basis: rows (e_bd + e_db)/sqrt2 for b < d and
    e_bb, in the row-major order of b <= d, then (e_bd - e_db)/sqrt2 for b < d;
    and the number of symmetric rows."""
    sym, anti = [], []
    for b in range(chi):
        for d in range(b, chi):
            e_bd, e_db = np.eye(chi * chi)[b * chi + d], np.eye(chi * chi)[d * chi + b]
            sym.append(e_bd if b == d else (e_bd + e_db) / np.sqrt(2))
            if b < d:
                anti.append((e_bd - e_db) / np.sqrt(2))
    return np.array(sym + anti).reshape(chi * chi, chi * chi), len(sym)


_SX, _SA = 0.5 * (_SP + _SM), 0.5 * (_SP - _SM)


@pytest.mark.parametrize("chi", [1, 2, 3, 10])
def test_transfers_match_kron_oracle(chi):
    # Q E Q^T of the kron oracle: blocks ss, aa for I, Sz, Sx; sa, as for Sa;
    # the other two blocks vanish
    a = np.random.default_rng(chi).standard_normal((2, chi, chi))
    q, ns = pair_basis(chi)
    assert np.allclose(q @ q.T, np.eye(chi * chi), rtol=0, atol=1e-15)
    oracle = [q @ _transfer(a, op) @ q.T for op in (_I2, _SZ, _SX, _SA)]
    for ops in (slice(None), slice(1), slice(2), slice(1, None)):
        for got, want, odd in zip(mps._transfers(a, mps._OPS[ops]), oracle[ops], (0, 0, 0, 1)[ops]):
            scale = np.linalg.norm(want)
            assert got.odd == odd
            s, x = slice(None, ns), slice(ns, None)
            (ss, sa), (as_, aa) = (want[s, s], want[s, x]), (want[x, s], want[x, x])
            on, off = ((sa, as_), (ss, aa)) if odd else ((ss, aa), (sa, as_))
            assert got.s.shape == on[0].shape and got.a.shape == on[1].shape
            assert np.linalg.norm(got.s - on[0]) <= 1e-13 * scale
            assert np.linalg.norm(got.a - on[1]) <= 1e-13 * scale
            assert max(np.abs(off[0]).max(initial=0), np.abs(off[1]).max(initial=0)) <= 1e-13 * scale


def test_chi1_antisymmetric_sector_is_empty():
    e, z, x, sa = mps._transfers(np.array([[[0.6]], [[-0.8]]]))
    assert [(p.s.shape, p.a.shape) for p in (e, z, x)] == [((1, 1), (0, 0))] * 3
    assert (sa.s.shape, sa.a.shape) == ((1, 0), (0, 1))
    assert [e.s[0, 0], z.s[0, 0], x.s[0, 0]] == pytest.approx([1.0, 0.5 * (0.64 - 0.36), -0.48])


def test_combine_with_one_site_is_the_explicit_products():
    # a one-site block holds no bond (h is None), so _combine skips its product
    # with h; the explicit products with a zero h give the same bits
    def explicit(a, b):
        ah, bh = (x.p - x.p if x.h is None else x.h for x in (a, b))
        (az, ax, aa), (bz, bx, ba) = a.right, b.left
        h = ah @ b.p + a.p @ bh + (az @ bz + ax @ bx - aa @ ba)
        return [a.p @ b.p, h, *(f @ b.p for f in a.left), *(a.p @ f for f in b.right)]

    state = mps.random_init(6, 3, seed=8)
    seg = ring_env(state, 5)  # sites 0 ... 4
    sites = [mps._site_block(a) for a in state.tensors[4:]]
    assert sites[0].h is None
    for a, b in ((seg, sites[1]), (sites[1], seg), (sites[0], sites[1])):
        got = mps._combine(a, b)
        for x, y in zip([got.p, got.h, *got.left, *got.right], explicit(a, b)):
            assert x.odd == y.odd and np.array_equal(x.s, y.s) and np.array_equal(x.a, y.a)
        assert [f.odd for f in got.left] == [f.odd for f in got.right] == [False, False, True]


def dense_correlation_matrix(state):
    """All <Sz_i Sz_j> from prefix and suffix products of kron-built transfer
    matrices, O(N^2 chi^6)."""
    n = state.n_sites
    e, ez = ([_transfer(a, op) for a in state.tensors] for op in (None, _SZ))
    suffix = [np.eye(state.chi**2)]
    for m in range(n - 1, 0, -1):
        suffix.insert(0, e[m] @ suffix[0])  # suffix[m] = E_{m+1} ... E_{N-1}
    out, prefix = np.zeros((n, n)), np.eye(state.chi**2)
    for i in range(n - 1):
        left = prefix @ ez[i]
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = np.trace(left @ ez[j] @ suffix[j])
            left = left @ e[j]
        prefix = prefix @ e[i]
    out /= np.trace(prefix @ e[-1])
    np.fill_diagonal(out, 0.25)
    return out


@pytest.mark.parametrize("n", [4, 8, 64])
@pytest.mark.parametrize("chi", [1, 2, 3, 10])
def test_sector_kernels_match_dense_formulas(n, chi):
    # the pair-sector environments, energy, norm and correlations against the
    # kron-built ring walk and products, to 1e-12 relative
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    state = mps.random_init(n, chi, seed=n + chi)
    ts = _transfer_set(state)
    for k, env in mps._sweep_envs(state):
        heff, nenv = mps._site_matrices(env, chi, 0.7)
        ref_h, ref_n = ring_walk_site_matrices(ts, k, n, chi, 0.7)
        assert rel(heff, ref_h) <= 1e-12 and rel(np.kron(_I2, nenv), ref_n) <= 1e-12, k
        assert np.array_equal(heff, heff.T) and np.array_equal(nenv, nenv.T), k  # exactly symmetric
        if k == 0:
            x = state.tensors[0].reshape(-1)
            assert mps.energy(state, 0.7) == pytest.approx((x @ ref_h @ x) / (x @ ref_n @ x), rel=1e-12)
    assert np.ldexp(*mps._ring_trace(state)) == pytest.approx(np.trace(np.linalg.multi_dot(ts[0])), rel=1e-12)
    assert rel(mps.correlation_matrix(state), dense_correlation_matrix(state)) <= 1e-12


def test_random_init_deterministic():
    a = mps.random_init(6, 3, seed=42)
    b = mps.random_init(6, 3, seed=42)
    assert np.array_equal(a.tensors, b.tensors)
    c = mps.random_init(6, 3, seed=43)
    assert not np.array_equal(a.tensors, c.tensors)


def test_random_init_norm():
    for n, chi in [(4, 1), (12, 5), (64, 10)]:
        st = mps.random_init(n, chi, seed=0)
        assert np.ldexp(*mps._ring_trace(st)) == pytest.approx(1.0, rel=1e-12)


def _log_ring_norm(state):
    """log <psi|psi> from kron-built transfer matrices, the running product
    renormalized to unit Frobenius norm at every site."""
    product, log_scale = np.eye(state.chi**2), 0.0
    for a in state.tensors:
        product = product @ _transfer(a)
        scale = np.linalg.norm(product)
        product, log_scale = product / scale, log_scale + np.log(scale)
    return log_scale + np.log(np.trace(product))


def test_random_init_long_ring_is_one_normalized_draw():
    # the unnormalized norm of 1100 sites is about e^750, beyond the float range
    n, chi = 1100, 10
    state = mps.random_init(n, chi, seed=0)
    assert abs(_log_ring_norm(state)) < 1e-9
    assert np.ldexp(*mps._ring_trace(state)) == pytest.approx(1.0, abs=1e-9)
    ratio = state.tensors / np.random.default_rng(0).standard_normal((n, 2, chi, chi))
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-12, atol=0)  # seed 0's draw, rescaled


def test_random_init_chi_validation():
    with pytest.raises(ValueError):
        mps.random_init(4, 0)


def test_chi1_product_state_energy():
    st = neel_product_state(4)
    assert mps.energy(st) == pytest.approx(-1.0, abs=1e-12)


def test_chi1_energy_finite():
    st = mps.random_init(4, 1, seed=0)
    assert np.isfinite(mps.energy(st))


# -- ring symmetries ------------------------------------------------------------
# Each maps a state's tensors to those of a state with the same physics, with no
# ED oracle, up to N = 64: a gauge at a bond (the PBC-MPS gauge freedom:
# Perez-Garcia, Verstraete, Wolf and Cirac, Quantum Inf. Comput. 7, 401 (2007)),
# the ring's translations, reflection and spin flip, and any scale of the state.

_SYMMETRIES = ["gauge", "roll", "reflect", "flip", "site scale", "power of two"]


def symmetric_image(kind, n, chi, seed):
    """(state, image, perm): random_init(n, chi, seed) and its image under one
    symmetry, drawn from seed + 1; site i of the image is site perm[i] of the
    state."""
    state, rng = mps.random_init(n, chi, seed), np.random.default_rng(seed + 1)
    t, perm = state.tensors.copy(), np.arange(n)
    if kind == "gauge":  # A_b -> A_b G, A_{b+1} -> G^-1 A_{b+1}, b = N - 1 closes the ring
        (q, _), (r, _) = (np.linalg.qr(rng.standard_normal((chi, chi))) for _ in range(2))
        g, b = q @ np.diag(2.0 ** rng.uniform(-1, 1, chi)) @ r, rng.integers(n)  # cond(G) <= 4
        t[b], t[(b + 1) % n] = t[b] @ g, np.linalg.solve(g, t[(b + 1) % n])
    elif kind == "roll":
        shift = rng.integers(1, n)
        t, perm = np.roll(t, shift, axis=0), np.roll(perm, shift)
    elif kind == "reflect":  # tr(A_0 ... A_{N-1}) = tr(A_{N-1}^T ... A_0^T)
        t, perm = t[::-1].swapaxes(2, 3), perm[::-1]
    elif kind == "flip":
        t = t[:, ::-1]
    elif kind == "site scale":
        t *= 10.0 ** rng.uniform(-6, 6, (n, 1, 1, 1))
    else:  # |k| >= 150: <psi|psi> = 2^(2kN) lies beyond the float range even at N = 4
        t = np.ldexp(t, rng.choice([-1, 1]) * rng.integers(150, 251))
    return state, mps.MpsState(n, chi, t), perm


def assert_same_physics(kind, state, image, perm, sweep):
    """energy and correlation_matrix (permuted) of the image match the state's,
    bit for bit under a power of two; with sweep, so do one sweep's energy and
    correlations, for the symmetries that keep the sweep's site order."""
    exact = kind == "power of two"
    e, s = mps.energy(state), mps.correlation_matrix(state)
    e_image, s_image = mps.energy(image), mps.correlation_matrix(image)
    assert e_image == e if exact else e_image == pytest.approx(e, rel=1e-12)
    assert np.abs(s_image - s[np.ix_(perm, perm)]).max() <= (0 if exact else 1e-12)
    if not sweep or kind in ("roll", "reflect"):  # these change which site the sweep starts from
        return
    (out, reports), (out_image, reports_image) = (mps.sweep_optimize(x, n_sweeps=1) for x in (state, image))
    if exact:
        assert np.array_equal(out_image.tensors, out.tensors)
        np.testing.assert_equal([astuple(r) for r in reports_image], [astuple(r) for r in reports])
        return
    assert reports_image[-1].energy == pytest.approx(reports[-1].energy, rel=1e-9)
    assert np.abs(mps.correlation_matrix(out_image) - mps.correlation_matrix(out)).max() <= 1e-8


@pytest.mark.parametrize("kind", _SYMMETRIES)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(n=st.sampled_from([4, 8]), chi=st.sampled_from([1, 2, 3, 10]), seed=st.integers(0, 2**32 - 1))
def test_short_ring_kernels_and_sweep_keep_the_ring_symmetries(kind, n, chi, seed):
    assert_same_physics(kind, *symmetric_image(kind, n, chi, seed), sweep=True)


@pytest.mark.parametrize("kind", _SYMMETRIES)
@settings(max_examples=2, derandomize=True, deadline=None)
@given(chi=st.sampled_from([10, 3, 2, 1]), seed=st.integers(0, 2**32 - 1))  # the first example: chi = 10
def test_n64_kernels_keep_the_ring_symmetries(kind, chi, seed):
    assert_same_physics(kind, *symmetric_image(kind, 64, chi, seed), sweep=False)


@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_n64_kernels_keep_a_uniform_decimal_scale(scale):
    # <psi|psi> = scale^(2N) is beyond the float range; 1e3 gave a nan energy
    state = mps.random_init(64, 10, seed=1)
    scaled = mps.MpsState(64, 10, scale * state.tensors)
    assert mps.energy(scaled) == pytest.approx(mps.energy(state), rel=1e-12)
    assert np.abs(mps.correlation_matrix(scaled) - mps.correlation_matrix(state)).max() <= 1e-12


@pytest.mark.parametrize("first,second", [(1e6, 1e-6), (1e-6, 1e6)], ids=["big-small", "small-big"])
def test_energy_of_far_apart_half_rings_is_a_conditioning_error(first, second):
    # one half of the ring scaled by 1e12 against the other: the unit-scaled
    # environment of site 0 underflows to 0 / 0 or overflows to nan / nan
    tensors = mps.random_init(64, 10, seed=1).tensors.copy()
    tensors[:32] *= first
    tensors[32:] *= second
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConditioningError):
        mps.energy(mps.MpsState(64, 10, tensors))


def test_gauge_invariance():
    # G A G^-1 at every site, a gauge at every bond, with a G less well conditioned;
    # the sweep's Gram shift is not gauge invariant, and with this G its energy
    # moves by 1.6e-9 relative, so only the state's own values are compared
    state = mps.random_init(6, 4, seed=3)
    g = np.random.default_rng(9).standard_normal((4, 4)) + 2 * np.eye(4)
    image = mps.MpsState(6, 4, g @ state.tensors @ np.linalg.inv(g))
    assert_same_physics("gauge", state, image, np.arange(6), sweep=False)


def test_single_update_lowers_energy():
    for seed in (0, 1, 2):
        st = mps.random_init(6, 3, seed=seed)
        e0 = mps.energy(st)
        e1 = mps.optimize_site(st, 0).energy
        assert e1 < e0


def test_optimize_site_energy_matches_rayleigh():
    st = mps.random_init(6, 3, seed=4)
    e_local = mps.optimize_site(st, 2).energy
    assert mps.energy(st) == pytest.approx(e_local, abs=1e-9)


def test_energy_and_optimize_site_use_the_sweep_environments():
    state = mps.random_init(8, 3, seed=2)
    for k, env in mps._sweep_envs(state):
        if k == 0:
            heff, nenv = mps._site_matrices(env, state.chi, 1.0)
            x = state.tensors[0].reshape(-1)
            assert mps.energy(state) == float(x @ heff @ x) / mps._gram(x, nenv)
        built, given = state.copy(), state.copy()
        e_built = mps.optimize_site(built, k)
        e_given = mps.optimize_site(given, k, env=env)
        assert e_built == e_given, k
        assert np.array_equal(built.tensors, given.tensors), k
    for site in (-1, state.n_sites):
        with pytest.raises(IndexError):
            mps.optimize_site(state.copy(), site)


def test_neff_is_psd_gram():
    st = mps.random_init(6, 4, seed=5)
    _, nenv = mps._site_matrices(ring_env(st, 1), 4, 1.0)
    evals = np.linalg.eigvalsh(nenv)
    assert evals[0] > -1e-10 * max(abs(evals[-1]), 1.0)


def test_solve_site_rejects_a_gram_that_is_not_positive_definite():
    with pytest.raises(np.linalg.LinAlgError):
        mps._solve_site(np.eye(8), -np.eye(4), np.ones(8))


@pytest.mark.parametrize("n", [4, 6])
def test_short_ring_at_chi_10_sweeps_on_the_shifted_gram(n):
    # N_env has rank <= 2^(N-1) < chi^2 = 100, so only the relative 1e-10
    # shift keeps its Cholesky factor defined
    e_ed = lanczos_ground_state(enumerate_sector(n, 0)).energy
    _, reports = mps.sweep_optimize(mps.random_init(n, 10, seed=0), n_sweeps=10)
    for r in reports[1:]:
        assert r.energy_change <= 1e-10 * abs(r.energy), r.sweep_index
    assert reports[-1].energy >= e_ed - 1e-12 * abs(e_ed)


def test_cached_envs_match_ring_walk_random_state():
    assert_envs_match_ring_walk(mps.random_init(12, 4, seed=7), 0.7, 1e-12)


def test_cached_envs_match_ring_walk_mid_sweep():
    # The updates at sites 0..31 leave those sites left-canonical, so the ring
    # products stay well scaled: the cached blocks and the cache-free ring_env
    # both match the ring walk to 5e-15 relative at every site (measured).
    assert_envs_match_ring_walk(mps.random_init(64, 10, seed=0), 1.0, 1e-10, n_updates=32)


def test_one_sweep_peak_allocation_n64():
    # each cached right block is two matrices of two pair-sector blocks
    # (55^2 + 45^2 entries each), 5.1 MB in all at N = 64, chi = 10; one sweep
    # measures about 9.5 MB
    state = mps.random_init(64, 10, seed=0)
    tracemalloc.start()
    try:
        mps.sweep_optimize(state, n_sweeps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6, f"{peak / 1e6:.1f} MB"


def test_sweep_report_counts_local_steps(monkeypatch):
    steps = []
    optimize_site, lowest = mps.optimize_site, mps._lowest_eigenpair

    def counted_site(state, site, *args):
        update = optimize_site(state, site, *args)
        assert update.steps == steps[-1]
        return update

    def counted_lowest(*args):
        result = lowest(*args)
        steps.append(result[2])
        return result

    monkeypatch.setattr(mps, "optimize_site", counted_site)
    monkeypatch.setattr(mps, "_lowest_eigenpair", counted_lowest)
    n = 20
    _, reports = mps.sweep_optimize(mps.random_init(n, 6, seed=0), n_sweeps=3)
    for r in reports:
        sweep = slice(r.sweep_index * n, (r.sweep_index + 1) * n)
        assert r.local_iterations == sum(steps[sweep]) > 0


def test_n64_run_is_within_5e_4_of_the_bethe_energy(mps_run_n64):
    # chi = 10 bounds the error; the 40-sweep run reaches 4.51e-4 relative
    e, e0 = mps_run_n64[1][-1].energy, bethe_energy(64)
    print(f"N=64 MPS {e:.12f}, Bethe {e0:.12f}, rel err {(e - e0) / abs(e0):.3e}")
    assert e0 <= e <= e0 * (1 - 5e-4)


def test_n64_run_reports_the_energy_of_its_state(mps_run_n64):
    state, reports, _ = mps_run_n64
    assert mps.energy(state) == pytest.approx(reports[-1].energy, rel=1e-10, abs=0)


def test_n64_run_is_left_canonical_below_the_last_site(mps_run_n64):
    state = mps_run_n64[0]
    for k, a in enumerate(state.tensors[:-1]):
        gram = np.einsum("sab,sac->bc", a, a)  # sum_s A_k^sT A_k^s
        assert np.abs(gram - np.eye(state.chi)).max() <= 1e-12, k


def test_n64_sweep_energies_never_rise(mps_run_n64):
    for r in mps_run_n64[1][1:]:
        assert r.energy_change <= 1e-10 * abs(r.energy), r.sweep_index


def test_n24_mps_meets_criterion4_against_ed(mps_ed_n24):
    state, reports, ed = mps_ed_n24
    e, e_ed = reports[-1].energy, ed.energy
    s_mps, s_ed = corr.build_from_mps(state), corr.build_from_wavefunction(ed.wf)
    dev = float(np.max(np.abs(s_mps.entries - s_ed.entries)))
    lam_mps, lam_ed = (sa.eigendecompose(s).squared for s in (s_mps, s_ed))
    rel_lam = np.abs(lam_mps[:23] - lam_ed[:23]) / lam_ed[:23]
    print(f"N=24 rel energy err {(e - e_ed) / abs(e_ed):.2e}, max |dS| {dev:.2e}")
    print("lambda_n rel err, n <= 23: " + " ".join(f"{x:.1e}" for x in rel_lam))
    print(f"lambda_24/lambda_1: MPS {lam_mps[23] / lam_mps[0]:.2e}, ED {lam_ed[23] / lam_ed[0]:.2e}")
    assert e >= e_ed - 1e-9  # variational bound
    assert (e - e_ed) / abs(e_ed) <= 1e-3
    assert dev <= 1e-3


def test_concurrent_sweeps_report_their_own_counts():
    # two sweeps in two threads: each report must equal the run done alone
    inits = [mps.random_init(16, 6, seed=seed) for seed in (0, 1)]
    alone = [mps.sweep_optimize(s, n_sweeps=3) for s in inits]
    together = [None, None]
    barrier = threading.Barrier(2, timeout=60)

    def run(i):
        barrier.wait()
        together[i] = mps.sweep_optimize(inits[i], n_sweeps=3)

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (state, reports), (state_alone, reports_alone) in zip(together, alone):
        # astuple: the first energy_change is NaN, which assert_equal matches
        np.testing.assert_equal([astuple(r) for r in reports], [astuple(r) for r in reports_alone])
        assert np.array_equal(state.tensors, state_alone.tensors)


def assert_lowest_eigenpair(a, y0):
    """The Lanczos pair against dense eigh: eigenvalue to 1e-10 and residual
    to twice the stopping tolerance, both relative to the spectral radius.

    eigvalsh is not the oracle: with entries of 1.8e-161 beside 0.1875 it
    returns -0.187500717 for the eigenvalue -0.1875 that eigh and eigvals give.
    """
    theta, y, steps = mps._lowest_eigenpair(a, y0)
    evals = np.linalg.eigh(a)[0]
    radius = np.abs(evals).max()
    assert 1 <= steps <= len(a)
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
    assert abs(theta - evals[0]) <= 1e-10 * radius
    assert np.linalg.norm(a @ y - theta * y) <= 2 * mps._RITZ_TOL * radius


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lowest_eigenpair_matches_dense_eigh(data):
    n = data.draw(st.integers(1, 80), label="n")
    unit = st.floats(-1, 1)
    b = data.draw(arrays(np.float64, (n, n), elements=unit), label="b")
    y0 = data.draw(arrays(np.float64, n, elements=unit), label="y0")
    assert_lowest_eigenpair(b + b.T, y0)


@pytest.mark.parametrize("a", [[[-2.5]], [[0.0]], [[3.0]]])
@pytest.mark.parametrize("y0", [[1.0], [0.0]])
def test_lowest_eigenpair_one_by_one(a, y0):
    assert_lowest_eigenpair(np.array(a), np.array(y0))


@pytest.mark.parametrize("which", [0, 1, 30, -1])
def test_lowest_eigenpair_from_an_eigenvector(which):
    # a start that is an eigenvector spans a closed Krylov space; only the
    # fixed part of the start reaches the lowest eigenvector from there
    b = np.random.default_rng(4).standard_normal((60, 60))
    for a in (b + b.T, np.diag(np.arange(60.0) - 7.0)):
        assert_lowest_eigenpair(a, np.linalg.eigh(a)[1][:, which])


def test_sweep_optimize_rejects_zero_sweeps():
    with pytest.raises(ValueError):
        mps.sweep_optimize(mps.random_init(4, 2), n_sweeps=0)


def test_n4_converges_to_exact(optimized_n4):
    state, reports = optimized_n4
    assert reports[-1].energy == pytest.approx(-2.0, abs=1e-8)


def test_energy_monotone_across_sweeps(optimized_n4):
    _, reports = optimized_n4
    energies = [r.energy for r in reports]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-8


def test_variational_bound_small_chain():
    ed = lanczos_ground_state(enumerate_sector(6, 0)).energy
    for seed in (0, 1):
        for chi in (2, 4):
            state, reports = mps.sweep_optimize(
                mps.random_init(6, chi, seed=seed), n_sweeps=10
            )
            assert reports[-1].energy >= ed - 1e-9


def test_correlator_diagonal(optimized_n4):
    state, _ = optimized_n4
    for i in range(4):
        assert mps_correlator_zz(state, i, i) == pytest.approx(0.25, abs=1e-10)
    with pytest.raises(IndexError):
        mps_correlator_zz(state, 0, 4)


def test_n4_correlators_match_exact(optimized_n4):
    state, _ = optimized_n4
    for i in range(4):
        for j in range(4):
            assert mps_correlator_zz(state, i, j) == pytest.approx(
                four_site.CORRELATION[i, j], abs=1e-6
            )


def test_correlation_matrix_consistent(optimized_n4):
    # every entry against one kron-built ring product, the sector sums included
    for state in (optimized_n4[0], mps.random_init(10, 3, seed=6), mps.random_init(8, 3, seed=2)):
        full = mps.correlation_matrix(state)
        for i in range(state.n_sites):
            for j in range(state.n_sites):
                assert full[i, j] == pytest.approx(
                    mps_correlator_zz(state, i, j), abs=1e-12
                )


def test_translation_approximate(optimized_n4):
    # the site-dependent ansatz only approximately restores translation
    state, _ = optimized_n4
    full = mps.correlation_matrix(state)
    first = full[0]
    for i in range(4):
        row = np.roll(full[i], -i)
        assert np.max(np.abs(row - first)) < 1e-2
