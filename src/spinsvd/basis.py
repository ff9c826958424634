"""Spin-1/2 ring restricted to a fixed total-S_z sector.

Configurations are stored as integers: bit i set means spin up at site i.
The Hamiltonian is the isotropic antiferromagnetic exchange on a periodic
chain. Each basis builds its J = 1 operator on first use and keeps it as
plain numpy arrays: the diagonal S^z S^z energies plus a hop list of the
spin flips. The matvec is one `np.bincount` over the hops, and the dense
matrix is scattered from them.

The S_z = 0 ground state is also a translation eigenstate, so it can be
found in a momentum block: one state per translation orbit, labelled by the
orbit's smallest configuration (its representative). A whole sector and a
block share the bond flips; they differ only in where a flipped
configuration lands and with what element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSizeError


class _ConfigList:
    """Lookups shared by bases that hold a sorted int64 `configs` array."""

    def __len__(self):
        return len(self.configs)

    @property
    def dim(self):
        return len(self.configs)

    def index_of(self, config):
        """Position of a configuration in the sorted list."""
        pos = int(np.searchsorted(self.configs, config))
        if pos >= len(self.configs) or self.configs[pos] != config:
            raise KeyError(f"configuration {config:#x} not in sector")
        return pos

    def z_values(self):
        """(dim, n_sites) array of S^z eigenvalues (+-1/2) per site."""
        shifts = np.arange(self.n_sites, dtype=np.int64)
        bits = (self.configs[:, None] >> shifts[None, :]) & 1
        return bits.astype(np.float64) - 0.5


def _translate(configs, r, n_sites):
    """Configurations moved r sites along the ring: bit i goes to bit i + r mod n."""
    return ((configs << r) | (configs >> (n_sites - r))) & ((1 << n_sites) - 1)


def _popcount(configs, n_sites):
    """Number of up spins among the n_sites low bits of each configuration."""
    return sum((configs >> i) & 1 for i in range(n_sites))


def _orbit_min(configs, n_sites):
    """(representative, shift): the smallest translate and the r that gives it."""
    rep, shift = configs.copy(), np.zeros(len(configs), dtype=np.int64)
    for r in range(1, n_sites):
        moved = _translate(configs, r, n_sites)
        smaller = moved < rep
        rep[smaller], shift[smaller] = moved[smaller], r
    return rep, shift


@dataclass(frozen=True, eq=False)
class _Hops:
    """Hop list of a sparse operator: `hops @ x` adds value * x[source] per target."""

    sources: np.ndarray
    targets: np.ndarray
    values: np.ndarray
    dim: int

    def __matmul__(self, x):
        return np.bincount(self.targets, self.values * x[self.sources], self.dim)


def _bond_flips(configs, n_sites):
    """(diagonal, sources, flipped) of the exchange term on a configuration list.

    diagonal is sum_i Sz_i Sz_{i+1} per configuration. Each antiparallel bond
    of configs[source] gives one flip, ordered by bond, then by source.
    """
    n = n_sites
    # bit i of d is set where the spins on bond (i, i+1 mod n) differ
    d = configs ^ _translate(configs, n - 1, n)
    sources = [np.flatnonzero((d >> i) & 1) for i in range(n)]
    flipped = np.concatenate(
        [configs[src] ^ ((1 << i) | (1 << (i + 1) % n)) for i, src in enumerate(sources)]
    )
    diagonal = 0.25 * (n - 2 * _popcount(d, n))
    return diagonal, np.concatenate(sources), flipped


@dataclass(frozen=True, eq=False)
class SectorBasis(_ConfigList):
    """All configurations of an n_sites ring with fixed total S_z, sorted."""

    n_sites: int
    sz_total: float
    configs: np.ndarray  # int64, strictly increasing

    @cached_property
    def hamiltonian(self):
        """(diagonal, hops) of the J = 1 Hamiltonian on this basis.

        Each spin flip is a hop of amplitude 1/2 to the flipped configuration.
        A hop that leaves the configuration list is dropped, so on a partial
        list this is the Hamiltonian projected onto its span.
        """
        diagonal, sources, flipped = _bond_flips(self.configs, self.n_sites)
        targets = np.searchsorted(self.configs, flipped)
        inside = self.configs.take(targets, mode="clip") == flipped
        hops = _Hops(sources[inside], targets[inside], np.full(inside.sum(), 0.5), self.dim)
        return diagonal, hops


@dataclass(frozen=True, eq=False)
class MomentumBasis(_ConfigList):
    """S_z = 0 block of momentum k = k_over_pi * pi over translation orbits.

    State a is |a, k> = R_a^-1/2 sum_{r < R_a} e^{-ikr} T^r |a>, where a is
    the smallest configuration of its orbit (its representative) and R_a the
    orbit's period. For k in {0, pi} every amplitude is real. Each period
    holds R_a / 2 up spins, so R_a is even and every orbit is in both blocks.
    The configurations are checked on construction, so a basis read from a
    file is a valid block or raises ValueError.
    """

    n_sites: int
    k_over_pi: int
    configs: np.ndarray  # int64 representatives, strictly increasing
    sz_total = 0

    def __post_init__(self):
        n, reps = self.n_sites, self.configs
        check_ring_size(n)
        if self.k_over_pi not in (0, 1):
            raise ValueError(f"k_over_pi must be 0 or 1, got {self.k_over_pi!r}")
        if reps.ndim != 1 or reps.dtype != np.int64 or len(reps) == 0:
            raise ValueError("representatives must be a non-empty list of integers")
        if np.any(np.diff(reps) <= 0):
            raise ValueError("representatives must be strictly increasing")
        if np.any((reps < 0) | (reps >> n != 0) | (_popcount(reps, n) != n // 2)):
            raise ValueError(f"representative outside the S_z = 0 sector of {n} sites")
        if np.any(_orbit_min(reps, n)[0] != reps):
            raise ValueError("configuration is not the smallest of its translation orbit")

    @cached_property
    def hamiltonian(self):
        """(diagonal, hops) of the J = 1 Hamiltonian in this block.

        Exchanging the spins of an antiparallel bond takes representative a
        to a configuration whose representative b lies `shift` sites on; the
        hop's element is 1/2 (+-1)^shift sqrt(R_a / R_b), the sign alternating
        only at k = pi. Several hops from a to the same b add up in `@`.
        Needs every orbit of the sector in `configs`, as `momentum_block`
        builds it.
        """
        n, reps = self.n_sites, self.configs
        periods = n // sum(_translate(reps, r, n) == reps for r in range(n))
        diagonal, sources, flipped = _bond_flips(reps, n)
        target_reps, shift = _orbit_min(flipped, n)
        targets = np.searchsorted(reps, target_reps)
        values = 0.5 * np.sqrt(periods[sources] / periods[targets])
        if self.k_over_pi:
            values[shift % 2 == 1] *= -1.0
        return diagonal, _Hops(sources, targets, values, self.dim)


@dataclass(eq=False)
class Wavefunction:
    """Real amplitude vector over a sector or momentum-block basis."""

    basis: SectorBasis | MomentumBasis
    amps: np.ndarray

    def norm(self):
        return float(np.linalg.norm(self.amps))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero wavefunction")
        return Wavefunction(self.basis, self.amps / n)


def check_ring_size(n_sites):
    """Raise InvalidSizeError unless n_sites is an even ring length >= 4."""
    if n_sites % 2 != 0 or n_sites < 4:
        raise InvalidSizeError(f"n_sites must be even and >= 4, got {n_sites}")


def enumerate_sector(n_sites, sz_total=0):
    """Enumerate all configurations with popcount = n_sites/2 + sz_total.

    Returns an empty basis when sz_total is unattainable.
    """
    check_ring_size(n_sites)
    n_up_f = n_sites / 2 + sz_total
    n_up = int(round(n_up_f))
    if abs(n_up_f - n_up) > 1e-12 or n_up < 0 or n_up > n_sites:
        configs = np.empty(0, dtype=np.int64)
    else:
        # grow sorted configurations site by site, keeping only the up-counts
        # k that can still reach n_up: c(m+1, k) = c(m, k) then c(m, k-1) | 1<<m
        empty = np.empty(0, dtype=np.int64)
        c = {0: np.zeros(1, dtype=np.int64)}
        for m in range(n_sites):
            bit = np.int64(1 << m)
            c = {
                k: np.concatenate([c.get(k, empty), c.get(k - 1, empty) | bit])
                for k in range(max(0, n_up - (n_sites - m - 1)), min(m + 1, n_up) + 1)
            }
        configs = c[n_up]
    return SectorBasis(n_sites, sz_total, configs)


def momentum_block(n_sites, k_over_pi):
    """The S_z = 0 block of momentum k_over_pi * pi, one state per orbit."""
    reps = enumerate_sector(n_sites, 0).configs
    for r in range(1, n_sites):  # keep the smallest configuration of each orbit
        reps = reps[_translate(reps, r, n_sites) >= reps]
    return MomentumBasis(n_sites, k_over_pi, reps)


def neel_config(n_sites):
    """The smaller-integer Neel configuration (up spins on even sites)."""
    return sum(1 << i for i in range(0, n_sites, 2))


def apply_hamiltonian(wf, j_coupling=1.0):
    """H|wf> for H = J sum_i [Sz_i Sz_{i+1} + (S+_i S-_{i+1} + h.c.)/2].

    The result is unnormalized and stays in the same S_z sector.
    """
    return Wavefunction(wf.basis, apply_hamiltonian_to_array(wf.basis, wf.amps, j_coupling))


def apply_hamiltonian_to_array(basis, amps, j_coupling=1.0):
    """Array-in array-out version of apply_hamiltonian (hot path helper)."""
    diagonal, hops = basis.hamiltonian
    out = diagonal * amps
    out += hops @ amps
    if j_coupling != 1.0:
        out *= j_coupling
    return out


def dense_hamiltonian(basis, j_coupling=1.0):
    """Dense Hamiltonian matrix on a sector or block basis (small bases only)."""
    diagonal, hops = basis.hamiltonian
    h = np.diag(diagonal)
    np.add.at(h, (hops.targets, hops.sources), hops.values)
    return j_coupling * h


def correlator_zz(wf, i, j):
    """<wf| Sz_i Sz_j |wf>; diagonal in the configuration basis."""
    n = wf.basis.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for n_sites={n}")
    z = wf.basis.z_values()
    return float(np.sum(wf.amps**2 * z[:, i] * z[:, j]))
