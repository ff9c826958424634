"""The N x N matrix of two-point spin correlators <Sz_i Sz_j>."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class CorrelationMatrix:
    n_sites: int
    entries: np.ndarray  # symmetric, PSD
    provenance: str  # "ed-ground" | "mps" | "thermal(beta=...)"

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.entries)[0])

    def row_sum_max(self):
        return float(np.max(np.abs(self.entries.sum(axis=1))))

    def circulant_deviation(self):
        """Largest |S_ij - S_kl| over pairs with equal (i-j) mod N."""
        sites = np.arange(self.n_sites)
        rolled = self.entries[sites[:, None], (sites[:, None] + sites) % self.n_sites]
        return float(np.max(np.abs(rolled - rolled[0])))

    def validate(self):
        """Raise on violation of the structural invariants."""
        s = self.entries
        if not np.array_equal(s, s.T):
            raise ValueError("matrix not exactly symmetric")
        if np.max(np.abs(np.diag(s) - 0.25)) > 1e-12:
            raise ValueError("diagonal deviates from 1/4")
        if self.min_eigenvalue() < -1e-10:
            raise ValueError("matrix not positive semidefinite")
        if self.provenance == "ed-ground" and self.row_sum_max() > 1e-12:
            raise ValueError("ground-state row sums not zero")
        if self.provenance == "ed-ground" or self.provenance.startswith("thermal("):
            if self.circulant_deviation() > 1e-12:
                raise ValueError(f"{self.provenance} matrix not circulant")


def _mirror(s):
    """Exact symmetry: keep the upper triangle, mirror it down."""
    return np.triu(s) + np.triu(s, 1).T


def _circulant(m):
    """Circulant matrix of the means of m's wrapped diagonals, exactly symmetric."""
    n = len(m)
    sites = np.arange(n)
    half = [m[sites, (sites + r) % n].mean() for r in range(n // 2 + 1)]
    row = np.array(half + half[1 : (n + 1) // 2][::-1])  # entry N - r equals entry r
    return row[(sites[None, :] - sites[:, None]) % n]


def build_from_wavefunction(wf):
    """Correlation matrix of a normalized sector or momentum-block wavefunction.

    A momentum-block state is a translation eigenstate, so its matrix is the
    exact circulant <Sz_0 Sz_r> = sum_a psi_a^2 (1/N) sum_i z_i z_{i+r} over
    the orbit representatives a; no full-sector vector is built.
    """
    from .basis import MomentumBasis  # imported here: the MPS path never loads basis

    if wf.basis.sz_total != 0:
        warnings.warn(
            "wavefunction outside the S_z=0 sector: zero-row-sum invariant waived",
            stacklevel=2,
        )
        provenance = "ed-ground-sz!=0"
    else:
        provenance = "ed-ground"
    z = wf.basis.z_values()
    weighted = z * (wf.amps**2)[:, None]
    s = weighted.T @ z
    s = _circulant(s) if isinstance(wf.basis, MomentumBasis) else _mirror(s)
    np.fill_diagonal(s, 0.25 * float(np.sum(wf.amps**2)))
    return CorrelationMatrix(wf.basis.n_sites, s, provenance)


def build_from_mps(state):
    """Correlation matrix of an (optimized) periodic MPS."""
    from . import mps as mps_mod  # imported here: the ED and thermal paths never load it

    with np.errstate(over="ignore", invalid="ignore"):  # far-apart site scales overflow: checked there
        s = mps_mod.correlation_matrix(state)  # written symmetric, entry by entry
    return CorrelationMatrix(state.n_sites, s, "mps")


def build_thermal(spectrum, beta):
    """S_ij(beta) = Z^-1 sum_n e^{-beta E_n} <n|Sz_i Sz_j|n>, an exact circulant.

    The thermal state is translation invariant, so each level enters only
    through the translation average (1/N) sum_i <n|Sz_i Sz_{i+r}|n>: its
    configuration-basis weights |v|^2 against each configuration's z z^T,
    averaged along the wrapped diagonals, counted `multiplicity` times.
    Boltzmann factors use ground-energy subtraction for overflow safety.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    n = spectrum.n_sites
    e0 = spectrum.energies[0]
    s = np.zeros((n, n))
    z_part = 0.0
    for block in spectrum.sectors:
        with np.errstate(over="ignore"):  # a huge beta sends excited levels to exp(-inf) = 0
            w = block.multiplicity * np.exp(-beta * (block.energies - e0))
        z_part += float(np.sum(w))
        if beta == 0.0:
            # every level weighs 1 and the |v|^2 of a block sum to 1 per
            # state, so counting states keeps the exact +-1/4 cancellations
            q = np.full(block.basis.dim, float(block.multiplicity))
        else:
            v = block.vectors
            q = (v * v.conj()).real @ w
        zvals = block.basis.z_values()
        s += (zvals * q[:, None]).T @ zvals
    s = _circulant(s) / z_part
    return CorrelationMatrix(n, s, f"thermal(beta={beta:g})")
