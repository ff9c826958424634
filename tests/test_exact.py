"""Lanczos ground states and full small-chain spectra vs dense oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bethe_energy, embed_in_full_space, kron_hamiltonian
from spinsvd import exact
from spinsvd.basis import SectorBasis, dense_hamiltonian, enumerate_sector, neel_config
from spinsvd.corr import build_from_wavefunction, build_thermal
from spinsvd.errors import ConvergenceError, DegenerateGroundStateError, InvalidSizeError
from spinsvd.exact import (
    FullSpectrum,
    SectorSpectrum,
    full_spectrum,
    lanczos_ground_state,
    momentum_ground_state,
)


def test_ground_energy_n4(ground_n4):
    assert ground_n4.energy == pytest.approx(-2.0, abs=1e-10)
    assert ground_n4.residual_norm <= 1e-10


def test_ground_amplitudes_n4(ground_n4):
    expected = np.array([-1, 2, -1, -1, 2, -1]) / np.sqrt(12)
    assert np.max(np.abs(ground_n4.wf.amps - expected)) < 1e-10


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_momentum_ground_state_matches_bethe_ansatz(n):
    assert momentum_ground_state(n)[0].energy == pytest.approx(bethe_energy(n), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_lanczos_vs_kron_oracle(n):
    # independent oracle: dense diagonalization of the full 2^N kron-built H
    sol = lanczos_ground_state(enumerate_sector(n, 0))
    oracle = np.linalg.eigvalsh(kron_hamiltonian(n))[0]
    assert sol.energy == pytest.approx(oracle, abs=1e-9)
    assert sol.energy >= oracle - 1e-10  # variational bound


def test_kron_oracle_validates_sector_action():
    # the embedded sector ground state is an eigenvector of the kron H
    sol = lanczos_ground_state(enumerate_sector(6, 0))
    psi = embed_in_full_space(sol.wf)
    h = kron_hamiltonian(6)
    assert np.max(np.abs(h @ psi - sol.energy * psi)) < 1e-9


def test_lanczos_n12_vs_dense_sector(ground_n12):
    b = enumerate_sector(12, 0)
    dense_e0 = np.linalg.eigvalsh(dense_hamiltonian(b))[0]
    assert ground_n12.energy == pytest.approx(dense_e0, abs=1e-9)
    assert ground_n12.energy >= dense_e0 - 1e-10
    assert ground_n12.residual_norm <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lanczos_n12_seeds_match_dense_sector(seed):
    b = enumerate_sector(12, 0)
    energies, vectors = np.linalg.eigh(dense_hamiltonian(b))
    sol = lanczos_ground_state(b, seed=seed)
    assert abs(sol.energy - energies[0]) < 1e-12
    dense_gs = vectors[:, 0] * np.sign(vectors[:, 0] @ sol.wf.amps)
    assert np.max(np.abs(sol.wf.amps - dense_gs)) < 1e-12


def test_lanczos_deterministic():
    b = enumerate_sector(8, 0)
    a = lanczos_ground_state(b, seed=5)
    c = lanczos_ground_state(b, seed=5)
    assert np.array_equal(a.wf.amps, c.wf.amps)


def test_j_scaling():
    b = enumerate_sector(4, 0)
    assert lanczos_ground_state(b, j_coupling=2.5).energy == pytest.approx(-5.0, abs=1e-9)


@pytest.mark.parametrize("j_coupling", [1e-9, 1e3, 1e300])
@pytest.mark.parametrize("n", [12, 16])
def test_energy_scales_with_j(n, j_coupling):
    # Lanczos runs at unit |J|: the residual and gap bounds do not see the size of J
    ref, ref_gap = momentum_ground_state(n)
    sol, cross_block_gap = momentum_ground_state(n, j_coupling)
    assert abs(sol.energy - j_coupling * ref.energy) <= 1e-12 * abs(j_coupling * ref.energy)
    assert abs(cross_block_gap - j_coupling * ref_gap) <= 1e-9 * j_coupling * ref_gap
    assert np.array_equal(sol.wf.amps, ref.wf.amps)


def test_closed_krylov_space_raises():
    # at J = 0 the start vector is an eigenvector: the space closes at iteration 0
    with pytest.raises(DegenerateGroundStateError, match="Krylov space closed"):
        lanczos_ground_state(enumerate_sector(6, 0), j_coupling=0.0)


@pytest.mark.parametrize("j_coupling", [1.0, -0.7])
@pytest.mark.parametrize("sz", [2, -2])
def test_one_state_basis_is_one_exact_step(sz, j_coupling):
    # the fully polarized 4-site ring: four parallel bonds of 1/4 each, no flip
    sol = lanczos_ground_state(enumerate_sector(4, sz), j_coupling=j_coupling)
    assert sol.energy == j_coupling and sol.wf.amps.tolist() == [1.0]
    assert sol.residual_norm == 0.0 and sol.gap is None and sol.iterations == 1


def _partial_sector_without_neel(n):
    configs = enumerate_sector(n, 0).configs
    return SectorBasis(n, 0, configs[configs != neel_config(n)])


@pytest.mark.parametrize(
    "basis", [enumerate_sector(6, 1), _partial_sector_without_neel(6)], ids=["sz-1", "partial"]
)
@pytest.mark.parametrize("top", [2.0, -2.0])
def test_fix_sign_without_neel_makes_largest_entry_positive(basis, top):
    vec = np.random.default_rng(3).uniform(-1.0, 1.0, basis.dim)
    vec[basis.dim // 2] = top  # the one entry of magnitude above 1
    assert np.array_equal(exact._fix_sign(basis, vec), vec if top > 0 else -vec)


@pytest.mark.parametrize("neel_amp,flipped", [(-0.1, True), (0.1, False), (-1e-13, False)])
def test_fix_sign_pivots_on_neel_amplitude(neel_amp, flipped):
    basis = enumerate_sector(6, 0)
    vec = np.random.default_rng(4).uniform(-1.0, 1.0, basis.dim)
    vec[0] = 2.0  # the largest entry, positive; it decides only when the Neel amplitude vanishes
    vec[basis.index_of(neel_config(6))] = neel_amp
    assert np.array_equal(exact._fix_sign(basis, vec), -vec if flipped else vec)


def test_step_budget_exhausted_raises_with_residual(monkeypatch):
    # 4 steps cannot resolve the 924-state N = 12 sector's ground state
    monkeypatch.setattr(exact, "_LANCZOS_MAX_STEPS", 4)
    with pytest.raises(ConvergenceError, match="after 4 iterations .budget spent") as info:
        lanczos_ground_state(enumerate_sector(12, 0))
    assert np.isfinite(info.value.residual) and info.value.residual > 0


@pytest.mark.parametrize("j_coupling", [1.0, -0.7])
@pytest.mark.parametrize("n", range(4, 17, 2))
def test_momentum_ground_state_matches_sector_lanczos(n, j_coupling):
    ref = lanczos_ground_state(enumerate_sector(n, 0), j_coupling)
    sol, cross_block_gap = momentum_ground_state(n, j_coupling)
    assert abs(sol.energy - ref.energy) <= 1e-12 * abs(ref.energy)
    # Marshall's sign rule: k = pi for N = 6, 10, 14; the ferromagnet sits at k = 0
    assert sol.wf.basis.k_over_pi == ((n // 2) % 2 if j_coupling > 0 else 0)
    assert sol.residual_norm <= 1e-10 and sol.gap > 1e-8 and cross_block_gap > 1e-8
    got = build_from_wavefunction(sol.wf)
    got.validate()
    assert np.max(np.abs(got.entries - build_from_wavefunction(ref.wf).entries)) < 1e-12


@pytest.mark.parametrize(
    "gaps,energies,match",
    [
        ((1.0, 0.0), (-1.0, 0.0), None),  # a degenerate level in the other block is fine
        ((1e-9, 1.0), (-1.0, 0.0), "Ritz gap"),
        ((1.0, 1.0), (-1.0, -1.0 + 1e-9), "k = 0 / pi gap"),
    ],
)
def test_momentum_ground_state_gap_checks(monkeypatch, gaps, energies, match):
    solve = exact.lanczos_ground_state

    def with_block_values(basis, *args, min_gap=1e-8, **kwargs):
        # the real call with this block's energy and Ritz gap swapped in
        sol = solve(basis, *args, min_gap=min_gap, **kwargs)
        k = basis.k_over_pi
        if min_gap is not None and gaps[k] <= min_gap:
            raise DegenerateGroundStateError(f"Ritz gap {gaps[k]} in block k = {k}")
        return dataclasses.replace(sol, energy=energies[k], gap=gaps[k])

    monkeypatch.setattr(exact, "lanczos_ground_state", with_block_values)
    if match is None:
        sol, cross_block_gap = momentum_ground_state(8)
        assert sol.wf.basis.k_over_pi == 0 and cross_block_gap == 1.0
    else:
        with pytest.raises(DegenerateGroundStateError, match=match):
            momentum_ground_state(8)


def test_full_spectrum_n4():
    spec = full_spectrum(4)
    e = spec.energies
    assert len(e) == 16
    assert e[0] == pytest.approx(-2.0, abs=1e-10)
    assert e[-1] == pytest.approx(1.0, abs=1e-10)
    assert sum(s.multiplicity * s.basis.dim for s in spec.sectors) == 16


def assert_sector_eigenpairs(spectrum):
    """Each sector: eigenpairs of its dense matrix, orthonormal, ascending."""
    for sector in spectrum.sectors:
        h = dense_hamiltonian(sector.basis, spectrum.j_coupling)
        v = sector.vectors
        assert np.max(np.abs(h @ v - v * sector.energies)) < 1e-10
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(len(sector.energies)))) < 1e-10
        assert np.all(np.diff(sector.energies) >= 0)


def test_full_spectrum_eigenpairs(spectrum_n8):
    assert_sector_eigenpairs(spectrum_n8)


@pytest.mark.parametrize("n,j_coupling", [(4, 1.0), (12, 1.0), (6, -0.7)])
def test_full_spectrum_eigenpairs_other_sizes(n, j_coupling):
    assert_sector_eigenpairs(full_spectrum(n, j_coupling))


def test_spin_flip_symmetry():
    # the flip maps sector S_z onto -S_z: equal spectra, each from its own matrix
    for sz in (1, 2, 3, 4):
        plus = np.linalg.eigvalsh(dense_hamiltonian(enumerate_sector(8, sz)))
        minus = np.linalg.eigvalsh(dense_hamiltonian(enumerate_sector(8, -sz)))
        assert np.max(np.abs(plus - minus)) < 1e-10


def test_full_spectrum_n12_matches_per_sector_eigh():
    # reference: plain eigh of every sector's dense matrix, no symmetry used
    reference = FullSpectrum(
        12,
        1.0,
        [
            SectorSpectrum(b, *np.linalg.eigh(dense_hamiltonian(b)))
            for b in (enumerate_sector(12, sz) for sz in range(-6, 7))
        ],
    )
    spec = full_spectrum(12)
    assert len(spec.energies) == 2**12
    assert np.max(np.abs(spec.energies - reference.energies)) < 1e-12
    for beta in (1.0, 3.0, 10.0, 100.0):
        got = build_thermal(spec, beta).entries
        assert np.max(np.abs(got - build_thermal(reference, beta).entries)) < 1e-13
    assert np.array_equal(build_thermal(spec, 0.0).entries, 0.25 * np.eye(12))


@settings(max_examples=10, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10, 12]),
    j_coupling=st.floats(-3.0, 3.0).filter(lambda j: abs(j) > 1e-3),
)
def test_full_spectrum_blocks_reproduce_every_sector(n, j_coupling):
    # the stored blocks of S_z <= 0 and 0 <= m <= N/2, each repeated over its
    # k -> -k images, give every sector's spectrum; the flip adds the S_z > 0 ones
    spec = full_spectrum(n, j_coupling)
    assert len(spec.energies) == 2**n
    for sz in range(-n // 2, n // 2 + 1):
        flips = 1 if sz == 0 else 2
        blocks = [b for b in spec.sectors if b.basis.sz_total == -abs(sz)]
        levels = [np.repeat(b.energies, b.multiplicity // flips) for b in blocks]
        got = np.sort(np.concatenate(levels))
        want = np.linalg.eigvalsh(dense_hamiltonian(enumerate_sector(n, sz), j_coupling))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, abs(j_coupling))


def test_momentum_ground_state_shares_orbits_and_frees_operators(monkeypatch):
    blocks = []
    solve = exact.lanczos_ground_state

    def recorded(basis, *args, **kwargs):
        blocks.append(basis)
        return solve(basis, *args, **kwargs)

    monkeypatch.setattr(exact, "lanczos_ground_state", recorded)
    momentum_ground_state(8)
    assert [b.k_over_pi for b in blocks] == [0, 1]
    assert blocks[0].orbits is blocks[1].orbits  # one orbit structure for both blocks
    assert not any("hamiltonian" in vars(b) for b in blocks)  # hop tables released


def test_full_spectrum_cap():
    with pytest.raises(InvalidSizeError):
        full_spectrum(14)


@pytest.mark.parametrize("n", [-4, 0, 2, 5])
def test_full_spectrum_rejects_invalid_size(n):
    with pytest.raises(InvalidSizeError, match=f"n_sites must be even and >= 4, got {n}$"):
        full_spectrum(n)
