"""Ground state by Lanczos iteration and the full small-chain spectrum.

Lanczos runs on a whole S_z sector or, for the CLI's ground state, on the
one S_z = 0 momentum block that Marshall's sign rule picks. The full
spectrum is dense eigh on the (S_z, k) momentum blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    MomentumBasis,
    SectorBasis,
    Wavefunction,
    apply_hamiltonian_to_array,
    check_ring_size,
    dense_hamiltonian,
    enumerate_sector,
    neel_config,
    translation_orbits,
)
from .errors import ConvergenceError, DegenerateGroundStateError, InvalidSizeError
from .lanczos import lowest_ritz_pair

FULL_SPECTRUM_CAP = 12
# ground-state Lanczos: relative stopping tolerance and step budget
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_STEPS = 300


@dataclass
class GroundSolution:
    energy: float
    wf: Wavefunction
    residual_norm: float
    iterations: int
    gap: float | None  # lowest Ritz gap; None on a one-state basis


@dataclass
class SectorSpectrum:
    """Eigenpairs of a sector or a momentum block."""

    basis: SectorBasis | MomentumBasis
    energies: np.ndarray  # ascending
    vectors: np.ndarray  # columns, orthonormal
    multiplicity: int = 1  # blocks with these energies and |v|^2 that this one stands for


@dataclass
class FullSpectrum:
    """Every level of the ring: `sectors` holds sector or block spectra."""

    n_sites: int
    j_coupling: float
    sectors: list

    @property
    def energies(self):
        """All 2^N eigenvalues, ascending."""
        levels = [np.repeat(s.energies, s.multiplicity) for s in self.sectors]
        return np.sort(np.concatenate(levels))


def _fix_sign(basis, vec):
    """Make the Neel amplitude positive, or the largest-magnitude entry when the
    basis lacks the Neel configuration or its amplitude is below 1e-12."""
    neel = np.flatnonzero(basis.configs == neel_config(basis.n_sites))
    pivot = neel[0] if len(neel) and abs(vec[neel[0]]) > 1e-12 else np.argmax(np.abs(vec))
    return -vec if vec[pivot] < 0 else vec


def lanczos_ground_state(basis, j_coupling=1.0, seed=0):
    """Lowest eigenpair of H on the basis by `lanczos.lowest_ritz_pair`.

    The basis is a `SectorBasis` or a `MomentumBasis`. The start vector is
    seeded, so runs are reproducible. Lanczos runs on H / |J|, so that the
    state depends on the sign of J only; the energy, residual and gap are
    scaled by |J| afterwards, and the bounds below hold in units of |J|.
    Lanczos stops at a residual estimate of _LANCZOS_TOL times the largest
    |Ritz value|, well below the 1e-10 acceptance bound, so that downstream
    correlators hold their 1e-12 invariants. A gap > 1e-8 between the
    two lowest Ritz values is required (even-N rings have a unique S_z=0
    ground state; anything else is a usage error). A Krylov space that
    closes before a second Ritz value exists measures no gap and raises,
    unless the basis holds one state: its one step is exact and `gap` is None.
    """
    dim = basis.dim
    if dim == 0:
        raise ValueError("empty sector basis")

    unit = abs(j_coupling) or 1.0  # J = 0 is the zero operator: its space closes at once

    def matvec(v):  # the module attribute, so that a wrapped one is called
        return apply_hamiltonian_to_array(basis, v, j_coupling / unit)

    start = np.random.default_rng(seed).standard_normal(dim)
    thetas, ritz, steps, converged = lowest_ritz_pair(
        matvec, start, _LANCZOS_TOL, _LANCZOS_MAX_STEPS
    )
    theta = float(thetas[0])
    ritz /= np.linalg.norm(ritz)
    residual = float(np.linalg.norm(matvec(ritz) - theta * ritz))
    if not converged or residual > 1e-10:
        raise ConvergenceError(
            f"Lanczos residual {residual:.3e} after {steps} iterations"
            f" ({'converged' if converged else 'budget spent'}; bound 1e-10)",
            residual=residual,
        )
    if dim > 1 and len(thetas) < 2:
        raise DegenerateGroundStateError(
            "Krylov space closed at iteration 0; no gap can be measured"
        )
    gap = float(thetas[1] - thetas[0]) if dim > 1 else None
    if dim > 1 and gap <= 1e-8:
        raise DegenerateGroundStateError(f"Ritz gap {gap:.3e} <= 1e-8 at iteration {steps - 1}")
    ritz = _fix_sign(basis, ritz)
    gap = None if gap is None else unit * gap
    return GroundSolution(unit * theta, Wavefunction(basis, ritz), unit * residual, steps, gap)


def momentum_ground_state(n_sites, j_coupling=1.0, seed=0):
    """S_z = 0 ground state of the even ring, solved in the one momentum block that holds it.

    By the Lieb-Mattis theorem and Marshall's sign rule the J > 0 ground
    state is unique and has momentum k = pi ((N/2) mod 2); for J < 0 the
    ferromagnetic multiplet has k = 0. Lanczos runs on that block alone and
    raises DegenerateGroundStateError when its Ritz gap is <= 1e-8 |J|.
    """
    m = n_sites // 2 if j_coupling > 0 and (n_sites // 2) % 2 else 0
    block = translation_orbits(enumerate_sector(n_sites, 0)).block(m)
    return lanczos_ground_state(block, j_coupling, seed=seed)


def full_spectrum(n_sites, j_coupling=1.0):
    """Every eigenpair (n_sites <= 12) from the (S_z, k = 2 pi m / N) blocks.

    Only S_z <= 0 and 0 <= m <= N/2 are diagonalized. The spin flip maps
    block (S_z, m) onto (-S_z, m) and complex conjugation maps it onto
    (S_z, N - m), each with the same energies and the same |v|^2, so a
    stored block counts once per distinct image in its multiplicity.
    """
    check_ring_size(n_sites)
    if n_sites > FULL_SPECTRUM_CAP:
        raise InvalidSizeError(
            f"full spectrum capped at {FULL_SPECTRUM_CAP} sites, got {n_sites}"
        )
    half = n_sites // 2
    blocks = []
    for sz in range(-half, 1):
        orbits = translation_orbits(enumerate_sector(n_sites, sz))
        for m in range(half + 1):
            b = orbits.block(m)
            if b.dim:
                multiplicity = (1 if sz == 0 else 2) * (1 if m in (0, half) else 2)
                eigh = np.linalg.eigh(dense_hamiltonian(b, j_coupling))
                blocks.append(SectorSpectrum(b, *eigh, multiplicity))
    return FullSpectrum(n_sites, j_coupling, blocks)
