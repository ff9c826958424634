"""Sector enumeration, Hamiltonian action, and zz correlators."""

import tracemalloc
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import correlator_zz, kron_hamiltonian
from spinsvd.basis import (
    MomentumBasis,
    SectorBasis,
    Wavefunction,
    apply_hamiltonian,
    apply_hamiltonian_to_array,
    dense_hamiltonian,
    enumerate_sector,
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


def searchsorted_operator(configs, n):
    """(diagonal, sources, targets) of the J = 1 exchange on a sorted list, by
    bisection: the flips of bond i = 0 ... n-1 in turn, each in source order,
    a flip that leaves the list dropped."""
    diagonal = np.zeros(len(configs))
    sources, targets = [], []
    for i in range(n):
        j = (i + 1) % n
        differ = ((configs >> i) ^ (configs >> j)) & 1
        diagonal += np.where(differ, -0.25, 0.25)
        src = np.flatnonzero(differ)
        flipped = configs[src] ^ ((1 << i) | (1 << j))
        pos = np.searchsorted(configs, flipped)
        found = configs[np.minimum(pos, len(configs) - 1)] == flipped
        sources.append(src[found])
        targets.append(pos[found])
    return diagonal, np.concatenate(sources), np.concatenate(targets)


def assert_operator_matches_reference(basis, seed=0):
    diagonal, hops = basis.hamiltonian
    ref_diagonal, ref_sources, ref_targets = searchsorted_operator(basis.configs, basis.n_sites)
    assert np.array_equal(diagonal, ref_diagonal)
    assert np.array_equal(hops.sources, ref_sources)
    assert np.array_equal(hops.targets, ref_targets)
    assert np.all(hops.values == 0.5)
    x = np.random.default_rng(seed).standard_normal(basis.dim)
    deviation = apply_hamiltonian_to_array(basis, x) - dense_hamiltonian(basis) @ x
    assert np.max(np.abs(deviation), initial=0.0) < 1e-12


def largest_and_flips(basis):
    """The list's largest configuration and its number of antiparallel bonds."""
    n, c = basis.n_sites, basis.configs
    flips = sum(int(np.sum(((c >> i) ^ (c >> (i + 1) % n)) & 1)) for i in range(n))
    return int(c[-1]), flips


@pytest.mark.parametrize("n", range(4, 15, 2))
def test_sector_operator_matches_searchsorted_reference(n):
    for sz in range(-n // 2, n // 2 + 1):
        assert_operator_matches_reference(enumerate_sector(n, sz))


def test_reference_cases_cover_both_lookups():
    # a whole S_z = 0 sector, or its lower half, has more flips than its
    # largest configuration (direct index); a sector near full polarization
    # has far fewer (bisection)
    largest, flips = largest_and_flips(enumerate_sector(12, 0))
    assert largest + 2 <= flips
    lower_half = SectorBasis(14, 0, enumerate_sector(14, 0).configs[:1716])
    largest, flips = largest_and_flips(lower_half)
    assert largest + 2 <= flips
    assert_operator_matches_reference(lower_half)  # drops the flips above its largest
    largest, flips = largest_and_flips(enumerate_sector(12, 5))
    assert largest + 2 > flips


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10, 12, 14]),
    level=st.integers(0, 14),
    stop=st.floats(0, 1),
    drops=st.lists(st.integers(0, 2**31), max_size=400),
)
@example(n=8, level=4, stop=0.0, drops=[])  # the empty list
@example(n=8, level=4, stop=1.0, drops=list(range(1, 70)))  # a single configuration
@example(n=14, level=7, stop=1.0, drops=list(range(0, 3432, 2)))  # every other configuration
def test_partial_list_operator_matches_searchsorted_reference(n, level, stop, drops):
    # level sets the sector (level mod (n + 1) up spins); the list is the
    # sector's lowest stop share of configurations without the dropped ones
    sector = enumerate_sector(n, level % (n + 1) - n // 2)
    kept = np.setdiff1d(np.arange(round(stop * sector.dim)), drops)
    assert_operator_matches_reference(SectorBasis(n, sector.sz_total, sector.configs[kept]))


@pytest.mark.parametrize("configs", [[], [0b0101_0101], [0b0011_0011]], ids=["empty", "neel", "two-domains"])
def test_tiny_list_operator(configs):
    basis = SectorBasis(8, 0, np.array(configs, dtype=np.int64))
    assert_operator_matches_reference(basis)
    assert len(basis.hamiltonian[1].sources) == 0


@pytest.mark.parametrize(
    "configs,message",
    [
        # the 4-site sector reversed: unchecked, its operator had lowest eigenvalue -1, not -2
        (np.array([12, 10, 9, 6, 5, 3]), "strictly increasing"),
        (np.array([3, 5, 5, 6]), "strictly increasing"),
        (np.array([3.0, 5.0]), "list of integers"),
        (np.array([[3, 5], [6, 9]]), "list of integers"),
        (np.array([-4, 3]), "outside the S_z = 0 sector"),
        (np.array([3, 1 << 4 | 1]), "outside the S_z = 0 sector"),
        (np.array([3, 7]), "outside the S_z = 0 sector"),
    ],
    ids=["reversed", "duplicate", "float", "2-d", "negative", "above-2^n", "popcount"],
)
def test_sector_basis_rejects_malformed_list(configs, message):
    with pytest.raises(ValueError, match=message):
        SectorBasis(4, 0, configs)


def test_sparse_long_ring_list_builds_without_large_allocation():
    # a few configurations of a 40-site ring up to ~2^40: a direct index by
    # configuration would take terabytes
    n = 40
    neel = sum(1 << i for i in range(0, n, 2))
    configs = sorted({neel, neel << 1, neel ^ 0b11, neel ^ (0b11 << 20), neel ^ (1 | 1 << 39)})
    basis = SectorBasis(n, 0, np.array(configs, dtype=np.int64))
    largest, flips = largest_and_flips(basis)
    assert largest > 2**39 and flips < 200
    tracemalloc.start()
    try:
        basis.hamiltonian
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert_operator_matches_reference(basis)
    assert len(basis.hamiltonian[1].sources) > 0  # the list holds some of its own flips


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
    sector = enumerate_sector(n, 0)
    block = translation_orbits(sector).block(k_over_pi * n // 2)
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
