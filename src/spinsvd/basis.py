"""Spin-1/2 ring restricted to a fixed total-S_z sector.

Configurations are stored as integers: bit i set means spin up at site i.
The Hamiltonian is the isotropic antiferromagnetic exchange on a periodic
chain. Each basis builds its J = 1 operator on first use and keeps it as
plain numpy arrays: the diagonal S^z S^z energies plus a hop list of the
spin flips. The matvec is one `np.bincount` over the hops, and the dense
matrix is scattered from them.

H also commutes with translations, so each sector splits into momentum
blocks: one state per translation orbit, labelled by the orbit's smallest
configuration (its representative). A whole sector and a block share the
bond flips; they differ only in where a flipped configuration lands and
with what element. The k-independent part of that is computed once per
sector (`translation_orbits`) and shared by all of its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def _check_list(self, noun):
        """Raise ValueError unless configs is a strictly increasing int64 list of
        the S_z sector's configurations; noun names an entry in the messages."""
        n, configs, sz = self.n_sites, self.configs, self.sz_total
        if configs.ndim != 1 or configs.dtype != np.int64:
            raise ValueError(f"{noun}s must be a list of integers")
        if np.any(np.diff(configs) <= 0):
            raise ValueError(f"{noun}s must be strictly increasing")
        if np.any((configs < 0) | (configs >> n != 0) | (np.bitwise_count(configs) != n // 2 + sz)):
            raise ValueError(f"{noun} outside the S_z = {sz} sector of {n} sites")

    def z_values(self):
        """(dim, n_sites) array of S^z eigenvalues (+-1/2) per site."""
        shifts = np.arange(self.n_sites, dtype=np.int64)
        bits = (self.configs[:, None] >> shifts[None, :]) & 1
        return bits.astype(np.float64) - 0.5


def _translate(configs, r, n_sites):
    """Configurations moved r sites along the ring: bit i goes to bit i + r mod n."""
    return ((configs << r) | (configs >> (n_sites - r))) & ((1 << n_sites) - 1)


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
    """Hop list of a sparse operator: `hops @ x` adds value * x[source] per target.

    values holds one element per hop, or one scalar shared by every hop.
    """

    sources: np.ndarray
    targets: np.ndarray
    values: np.ndarray
    dim: int

    def __matmul__(self, x):
        # the gathered temporary on the left lets numpy multiply it in place
        return np.bincount(self.targets, x[self.sources] * self.values, self.dim)


def _positions(configs, wanted):
    """Position of each wanted configuration (>= 0) in the sorted list, -1 if absent.

    A list of non-negative configurations whose largest one is below the
    number of lookups gets a direct index by configuration, with one -1 slot
    above the largest so that clipping sends every larger configuration to a
    miss. Any other list is searched by bisection, so the index never
    outweighs the lookups.
    """
    if len(configs) == 0 or configs[0] < 0 or configs[-1] >= len(wanted) - 1:
        pos = np.searchsorted(configs, wanted)
        return np.where(configs.take(pos, mode="clip") == wanted, pos, -1)
    index = np.full(configs[-1] + 2, -1)
    index[configs] = np.arange(len(configs))
    return index.take(wanted, mode="clip")


def _bond_flips(configs, n_sites):
    """(diagonal, sources, flipped) of the exchange term on a configuration list.

    diagonal is sum_i Sz_i Sz_{i+1} per configuration. Each antiparallel bond
    of configs[source] gives one flip, ordered by bond, then by source.
    """
    n = n_sites
    # bit i of d is set where the spins on bond (i, i+1 mod n) differ
    d = configs ^ _translate(configs, n - 1, n)
    # row b holds byte b of each d, so that a bond scans one byte per configuration
    rows = d.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, : (n + 7) // 8].T.copy()
    per_bond = [np.flatnonzero(rows[i // 8] & (1 << i % 8) != 0) for i in range(n)]
    sources = np.concatenate(per_bond)
    flipped = configs[sources]
    start = 0
    for i, src in enumerate(per_bond):
        flipped[start : start + len(src)] ^= (1 << i) | (1 << (i + 1) % n)
        start += len(src)
    diagonal = 0.25 * n - 0.5 * np.bitwise_count(d)  # uint8 counts: no n - 2 * count
    return diagonal, sources, flipped


@dataclass(frozen=True, eq=False)
class SectorBasis(_ConfigList):
    """Configurations of an n_sites ring with fixed total S_z, sorted.

    `enumerate_sector` gives the whole sector; a partial list is checked on
    construction and is a list of the sector's configurations or raises
    ValueError.
    """

    n_sites: int
    sz_total: float
    configs: np.ndarray  # int64, strictly increasing

    def __post_init__(self):
        check_ring_size(self.n_sites)
        self._check_list("configuration")

    @cached_property
    def hamiltonian(self):
        """(diagonal, hops) of the J = 1 Hamiltonian on this basis.

        Each spin flip is a hop of amplitude 1/2 to the flipped configuration.
        A hop that leaves the configuration list is dropped, so on a partial
        list this is the Hamiltonian projected onto its span.
        """
        diagonal, sources, flipped = _bond_flips(self.configs, self.n_sites)
        targets = _positions(self.configs, flipped)
        if targets.min(initial=0) < 0:
            inside = targets >= 0
            sources, targets = sources[inside], targets[inside]
        return diagonal, _Hops(sources, targets, np.float64(0.5), self.dim)


def _periods(reps, n_sites):
    """Period R_a of each configuration: the smallest r > 0 with T^r a = a."""
    return n_sites // sum(_translate(reps, r, n_sites) == reps for r in range(n_sites))


@dataclass(frozen=True, eq=False)
class _Orbits:
    """The k-independent part of every momentum block of one S_z sector.

    reps holds the smallest configuration of each translation orbit and
    periods its period. Bond flip f takes the representative of orbit
    sources[f] to a configuration c with T^shifts[f] c the representative of
    orbit targets[f]; ratios[f] = 1/2 sqrt(R_a / R_b) is its element without
    the phase.
    """

    n_sites: int
    sz_total: int
    reps: np.ndarray
    periods: np.ndarray
    diagonal: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    shifts: np.ndarray
    ratios: np.ndarray

    def block(self, momentum):
        """The block of k = 2 pi momentum / N: each orbit with momentum * R_a = 0 mod N."""
        members = self.reps[momentum * self.periods % self.n_sites == 0]
        return MomentumBasis(self.n_sites, self.sz_total, momentum, members, self)


def translation_orbits(sector):
    """The translation orbits of a whole S_z sector and the exchange between them."""
    n, reps = sector.n_sites, sector.configs
    for r in range(1, n):  # keep the smallest configuration of each orbit
        reps = reps[_translate(reps, r, n) >= reps]
    periods = _periods(reps, n)
    diagonal, sources, flipped = _bond_flips(reps, n)
    target_reps, shifts = _orbit_min(flipped, n)
    targets = np.searchsorted(reps, target_reps)
    ratios = 0.5 * np.sqrt(periods[sources] / periods[targets])
    return _Orbits(n, sector.sz_total, reps, periods, diagonal, sources, targets, shifts, ratios)


@dataclass(frozen=True, eq=False)
class MomentumBasis(_ConfigList):
    """Block of total S_z and momentum k = 2 pi m / N over translation orbits.

    State a is |a, k> = R_a^-1/2 sum_{r < R_a} e^{-ikr} T^r |a>, where a is
    the smallest configuration of its orbit (its representative) and R_a the
    orbit's period. The state exists only when m R_a = 0 mod N. For k in
    {0, pi} (2m = 0 mod N) every amplitude is real; at S_z = 0 each period
    holds R_a / 2 up spins, so R_a is even and every orbit is in both of
    those blocks. `orbits` is the sector's shared structure when the block
    was cut from it; any other basis, such as one read from a file, is
    checked on construction and is a valid block or raises ValueError.
    """

    n_sites: int
    sz_total: int
    momentum: int
    configs: np.ndarray  # int64 representatives, strictly increasing
    orbits: _Orbits | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.orbits is not None:
            return
        n, reps = self.n_sites, self.configs
        check_ring_size(n)
        if not 0 <= self.momentum < n:
            raise ValueError(f"momentum must lie in 0..{n - 1}, got {self.momentum!r}")
        self._check_list("representative")
        if np.any(_orbit_min(reps, n)[0] != reps):
            raise ValueError("configuration is not the smallest of its translation orbit")
        if np.any(self.momentum * _periods(reps, n) % n):
            raise ValueError(f"orbit without a state at momentum 2 pi {self.momentum} / {n}")

    @property
    def k_over_pi(self):
        """k / pi of a real block: 0 or 1."""
        turns, rest = divmod(2 * self.momentum, self.n_sites)
        if rest:
            raise ValueError(f"k = 2 pi {self.momentum} / {self.n_sites} is not 0 or pi")
        return turns

    @cached_property
    def hamiltonian(self):
        """(diagonal, hops) of the J = 1 Hamiltonian in this block.

        Exchanging the spins of an antiparallel bond takes representative a
        to a configuration whose representative b lies `shift` sites on; the
        hop's element is 1/2 e^{-ik shift} sqrt(R_a / R_b). It is real, with
        the sign alternating only at k = pi, for the two real blocks, and
        complex otherwise (their matrix is built with `dense_hamiltonian`;
        the matvec takes real blocks only). Several hops from a to the same
        b add up in `@`. A hop to an orbit outside `configs` is dropped, so
        on a partial list this is H projected onto its span.
        """
        n, m = self.n_sites, self.momentum
        orbits = self.orbits or translation_orbits(enumerate_sector(n, self.sz_total))
        pos = np.searchsorted(orbits.reps, self.configs)
        sources, targets = orbits.sources, orbits.targets
        ratios, shifts = orbits.ratios, orbits.shifts
        if len(pos) < len(orbits.reps):  # renumber the block's orbits, drop the other hops
            index = np.full(len(orbits.reps), -1)
            index[pos] = np.arange(self.dim)
            sources, targets = index[sources], index[targets]
            keep = (sources >= 0) & (targets >= 0)
            sources, targets = sources[keep], targets[keep]
            ratios, shifts = ratios[keep], shifts[keep]
        turns = m * shifts % n  # e^{-ik shift} = e^{-2 pi i turns / n}
        if 2 * m % n == 0:
            values = np.where(turns == 0, ratios, -ratios)
        else:
            values = ratios * np.exp(-2j * np.pi / n * turns)
        return orbits.diagonal[pos], _Hops(sources, targets, values, self.dim)


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
    h = np.diag(diagonal).astype(hops.values.dtype, copy=False)
    np.add.at(h, (hops.targets, hops.sources), hops.values)
    return j_coupling * h
