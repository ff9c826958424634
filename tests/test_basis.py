"""Sector enumeration, Hamiltonian action, and zz correlators."""

from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_hamiltonian
from spinsvd.basis import (
    MomentumBasis,
    SectorBasis,
    Wavefunction,
    apply_hamiltonian,
    apply_hamiltonian_to_array,
    correlator_zz,
    dense_hamiltonian,
    enumerate_sector,
    momentum_block,
    neel_config,
    translation_orbits,
)
from spinsvd.corr import build_from_wavefunction
from spinsvd.errors import InvalidSizeError

kron_oracle = cache(kron_hamiltonian)


def unit_wf(basis, k):
    amps = np.zeros(basis.dim)
    amps[k] = 1.0
    return Wavefunction(basis, amps)


@pytest.mark.parametrize(
    "n,sz,expected",
    [(4, 0, 6), (12, 0, 924), (4, 2, 1), (8, 0, 70), (4, 3, 0), (4, -5, 0)],
)
def test_sector_sizes(n, sz, expected):
    assert enumerate_sector(n, sz).dim == expected


def test_sector_sorted_and_invertible():
    b = enumerate_sector(8, 1)
    assert np.all(np.diff(b.configs) > 0)
    for k, cfg in enumerate(b.configs):
        assert b.index_of(int(cfg)) == k
    with pytest.raises(KeyError):
        b.index_of(0)


@pytest.mark.parametrize("n", range(4, 15, 2))
def test_sector_matches_itertools(n):
    for sz in [x / 2 for x in range(-n - 3, n + 4)]:  # half-integers are unattainable
        configs = enumerate_sector(n, sz).configs
        n_up = n / 2 + sz
        expected = []
        if n_up == int(n_up) and 0 <= n_up <= n:
            expected = sorted(sum(1 << p for p in c) for c in combinations(range(n), int(n_up)))
        assert configs.dtype == np.int64
        assert configs.tolist() == expected


@pytest.mark.parametrize("n", [3, 5, 2, 0])
def test_invalid_sizes(n):
    with pytest.raises(InvalidSizeError):
        enumerate_sector(n, 0)


def test_neel_expectation():
    b = enumerate_sector(4, 0)
    wf = unit_wf(b, b.index_of(neel_config(4)))
    hwf = apply_hamiltonian(wf)
    assert wf.amps @ hwf.amps == pytest.approx(-1.0, abs=1e-14)


def test_all_up_expectation():
    b = enumerate_sector(4, 2)
    wf = unit_wf(b, 0)
    hwf = apply_hamiltonian(wf)
    assert wf.amps @ hwf.amps == pytest.approx(1.0, abs=1e-14)


def test_linearity():
    b = enumerate_sector(8, 0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(b.dim)
    v = rng.standard_normal(b.dim)
    a, c = 0.7, -1.3
    lhs = apply_hamiltonian(Wavefunction(b, a * u + c * v)).amps
    rhs = a * apply_hamiltonian(Wavefunction(b, u)).amps + c * apply_hamiltonian(
        Wavefunction(b, v)
    ).amps
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hermiticity():
    b = enumerate_sector(8, 0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(b.dim)
        v = rng.standard_normal(b.dim)
        left = u @ apply_hamiltonian(Wavefunction(b, v)).amps
        right = apply_hamiltonian(Wavefunction(b, u)).amps @ v
        assert abs(left - right) < 1e-12


def test_sector_closure():
    # H maps each basis state onto configurations of equal popcount
    b = enumerate_sector(8, 1)
    for k in range(0, b.dim, 7):
        out = apply_hamiltonian(unit_wf(b, k)).amps
        support = b.configs[np.abs(out) > 0]
        pops = [bin(int(c)).count("1") for c in support]
        assert all(p == pops[0] for p in pops)


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10]),
    j_coupling=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_operator_is_kron_oracle_restricted(n, j_coupling, seed):
    full = kron_oracle(n)
    rng = np.random.default_rng(seed)
    for sz in range(-n // 2, n // 2 + 1):
        b = enumerate_sector(n, sz)
        h = dense_hamiltonian(b, j_coupling)
        assert np.array_equal(h, j_coupling * full[np.ix_(b.configs, b.configs)])
        assert np.array_equal(h, h.T)
        outside = np.setdiff1d(np.arange(2**n), b.configs)
        assert not full[np.ix_(outside, b.configs)].any()  # H keeps the sector
        x = rng.standard_normal(b.dim)
        assert np.max(np.abs(apply_hamiltonian_to_array(b, x, j_coupling) - h @ x)) < 1e-12


def test_operator_belongs_to_its_basis():
    # same (n_sites, sz_total) label, other configurations: each basis gets
    # its own operator, the Hamiltonian projected onto its configurations
    full = enumerate_sector(8, 0)
    half = SectorBasis(8, 0, full.configs[::2].copy())
    for b in (full, half):
        assert np.array_equal(dense_hamiltonian(b), kron_oracle(8)[np.ix_(b.configs, b.configs)])
    # the matvec drops the hops that leave the half list, as the dense matrix does
    x = np.random.default_rng(3).standard_normal(half.dim)
    h_half = dense_hamiltonian(half)
    assert np.max(np.abs(apply_hamiltonian_to_array(half, x) - h_half @ x)) < 1e-12


def _cyclic_shift(basis, amps):
    """Shift every configuration's bits cyclically by one site."""
    n = basis.n_sites
    mask = (1 << n) - 1
    out = np.zeros_like(amps)
    for k, cfg in enumerate(basis.configs):
        shifted = ((int(cfg) << 1) | (int(cfg) >> (n - 1))) & mask
        out[basis.index_of(shifted)] = amps[k]
    return out


def test_translation_covariance():
    b = enumerate_sector(8, 0)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(b.dim)
    h_then_shift = _cyclic_shift(b, apply_hamiltonian(Wavefunction(b, amps)).amps)
    shift_then_h = apply_hamiltonian(Wavefunction(b, _cyclic_shift(b, amps))).amps
    assert np.max(np.abs(h_then_shift - shift_then_h)) < 1e-12


def _orbit(rep, n):
    """[T^r rep for r < R]: the configuration's translates until it recurs."""
    orbit = [rep]
    while (nxt := ((orbit[-1] << 1) | (orbit[-1] >> (n - 1))) & ((1 << n) - 1)) != rep:
        orbit.append(nxt)
    return orbit


def _momentum_isometry(sector, block):
    """Sector amplitudes of the block states: (+-1)^r / sqrt(R_a) on T^r a, r < R_a."""
    v = np.zeros((sector.dim, block.dim))
    for col, rep in enumerate(block.configs.tolist()):
        orbit = _orbit(rep, sector.n_sites)
        for r, cfg in enumerate(orbit):
            v[sector.index_of(cfg), col] = (-1) ** (r * block.k_over_pi) / np.sqrt(len(orbit))
    return v


def _complex_momentum_isometry(sector, m):
    """Columns e^{-ikr} / sqrt(R_a) on T^r a (r < R_a, k = 2 pi m / N) for every
    orbit a of the sector that has a state at k, with its representatives."""
    n = sector.n_sites
    columns, reps = [], []
    for rep in sector.configs.tolist():
        orbit = _orbit(rep, n)
        if rep != min(orbit) or m * len(orbit) % n:
            continue
        col = np.zeros(sector.dim, dtype=complex)
        for r, cfg in enumerate(orbit):
            col[sector.index_of(cfg)] = np.exp(-2j * np.pi * m * r / n) / np.sqrt(len(orbit))
        columns.append(col)
        reps.append(rep)
    return np.array(columns).reshape(-1, sector.dim).T, reps


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10, 12]),
    k_over_pi=st.sampled_from([0, 1]),
    j_coupling=st.floats(-3.0, 3.0).filter(lambda j: abs(j) > 1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_momentum_block_is_sector_operator_restricted(n, k_over_pi, j_coupling, seed):
    sector, block = enumerate_sector(n, 0), momentum_block(n, k_over_pi)
    mask = (1 << n) - 1
    orbits = {
        min(((c << r) | (c >> (n - r))) & mask for r in range(n)) for c in sector.configs.tolist()
    }
    assert block.configs.tolist() == sorted(orbits)
    v = _momentum_isometry(sector, block)
    assert np.max(np.abs(v.T @ v - np.eye(block.dim))) < 1e-14
    # the block states span an invariant subspace and the block matrix is H on it
    h = dense_hamiltonian(sector, j_coupling)
    h_block = np.column_stack(
        [apply_hamiltonian_to_array(block, e, j_coupling) for e in np.eye(block.dim)]
    )
    assert np.array_equal(dense_hamiltonian(block, j_coupling), h_block)  # one operator
    assert np.max(np.abs(h @ v - v @ h_block)) < 1e-12
    spectrum = np.linalg.eigvalsh(h)
    for e in np.linalg.eigvalsh(h_block):
        assert np.min(np.abs(spectrum - e)) < 1e-12
    # the circulant ZZ matrix of a block state is the sector one of its embedding
    psi = np.random.default_rng(seed).standard_normal(block.dim)
    psi /= np.linalg.norm(psi)
    got = build_from_wavefunction(Wavefunction(block, psi)).entries
    want = build_from_wavefunction(Wavefunction(sector, v @ psi)).entries
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=8, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10, 12]),
    j_coupling=st.floats(-3.0, 3.0).filter(lambda j: abs(j) > 1e-3),
)
def test_every_momentum_block_is_sector_operator_restricted(n, j_coupling):
    # every (S_z, m) block, real ones included, against the complex isometry
    for sz in range(-n // 2, n // 2 + 1):
        sector = enumerate_sector(n, sz)
        h = dense_hamiltonian(sector, j_coupling)
        orbits = translation_orbits(sector)
        for m in range(n):
            block = orbits.block(m)
            v, reps = _complex_momentum_isometry(sector, m)
            assert block.configs.tolist() == reps
            assert np.max(np.abs(v.conj().T @ v - np.eye(block.dim)), initial=0.0) < 1e-14
            h_block = dense_hamiltonian(block, j_coupling)
            real = 2 * m % n == 0
            assert h_block.dtype == (np.float64 if real else np.complex128)
            assert np.max(np.abs(h @ v - v @ h_block), initial=0.0) < 1e-12
            # the same block read without its sector's orbits: checked, same operator
            loaded = MomentumBasis(n, sz, m, block.configs)
            assert np.array_equal(dense_hamiltonian(loaded, j_coupling), h_block)
            if block.dim < len(orbits.reps):
                with pytest.raises(ValueError, match="without a state at momentum"):
                    MomentumBasis(n, sz, m, orbits.reps)


def test_correlator_diagonal_and_symmetry():
    b = enumerate_sector(8, 0)
    rng = np.random.default_rng(8)
    wf = Wavefunction(b, rng.standard_normal(b.dim)).normalized()
    for i in range(8):
        assert correlator_zz(wf, i, i) == pytest.approx(0.25, abs=1e-14)
    for i, j in [(0, 3), (2, 7), (1, 4)]:
        assert correlator_zz(wf, i, j) == correlator_zz(wf, j, i)
    with pytest.raises(IndexError):
        correlator_zz(wf, 0, 8)


def test_ground_state_correlators(ground_n4):
    wf = ground_n4.wf
    assert correlator_zz(wf, 0, 1) == pytest.approx(-1 / 6, abs=1e-12)
    assert correlator_zz(wf, 0, 2) == pytest.approx(1 / 12, abs=1e-12)
