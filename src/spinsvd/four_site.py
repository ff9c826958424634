"""Closed-form reference values for the 4-site ring.

The 4-site ground state is a resonance of two singlet coverings; every
quantity below has an exact closed form and serves as a golden test for
the solver and analysis modules. Natural logarithms throughout.
"""

from __future__ import annotations

import numpy as np

from .basis import Wavefunction, enumerate_sector
from .corr import CorrelationMatrix, build_from_wavefunction

SQRT12 = np.sqrt(12.0)

# amplitudes over the sorted S_z=0 configurations
# {0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100}
GROUND_AMPS = np.array([-1.0, 2.0, -1.0, -1.0, 2.0, -1.0]) / SQRT12

GROUND_ENERGY = -2.0

CORRELATION = np.array(
    [
        [1 / 4, -1 / 6, 1 / 12, -1 / 6],
        [-1 / 6, 1 / 4, -1 / 6, 1 / 12],
        [1 / 12, -1 / 6, 1 / 4, -1 / 6],
        [-1 / 6, 1 / 12, -1 / 6, 1 / 4],
    ]
)

SINGULAR_VALUES = np.array([2 / 3, 1 / 6, 1 / 6, 0.0])

_ALT = np.array([1.0, -1.0, 1.0, -1.0])
COMPONENT_1 = np.outer(_ALT, _ALT) / 6

COMPONENT_2 = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
) / 12

COMPONENT_3 = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
    ]
) / 12

# entropy closed forms (natural log)
S_AB = 2 * np.log(2) - 0.5 * np.log(3)
S_A = np.log(2)
S_B = np.log(2)
MUTUAL_INFORMATION = 0.5 * np.log(3)


def oracle_ground_state():
    """Normalized ground-state amplitudes over the sorted S_z=0 sector."""
    return GROUND_AMPS.copy()


def _ground_full():
    """Ground state embedded in the full 16-dimensional product basis."""
    basis = enumerate_sector(4, 0)
    psi = np.zeros(16)
    for cfg, amp in zip(basis.configs, GROUND_AMPS):
        psi[int(cfg)] = amp
    return psi


def oracle_density_matrices():
    """(rho_A, rho_AB) for A = site 0 and A x B = sites (0, 1).

    Two-site basis ordering: |dn dn>, |up dn>, |dn up>, |up up> with the
    site-0 spin as the fast (least significant) index.
    """
    psi = _ground_full()
    # reshape to (sites 0+1, sites 2+3): bits 0,1 are the low two bits
    m = psi.reshape(4, 4, order="F")
    rho_ab = m @ m.T
    return partial_trace_site1(rho_ab), rho_ab


def partial_trace_site1(rho_ab):
    """Trace rho_AB (index bit1*2 + bit0) over site 1, leaving site 0."""
    rho = rho_ab.reshape(2, 2, 2, 2)  # [b1, b0, b1', b0']
    return np.einsum("abac->bc", rho)


def von_neumann_entropy(rho):
    """-tr(rho ln rho), zero eigenvalues skipped."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log(evals)))


def oracle_entropies():
    """Closed-form entanglement entropies and mutual information."""
    return {"S_AB": S_AB, "S_A": S_A, "S_B": S_B, "I_M": MUTUAL_INFORMATION}


def psi_split():
    """(psi_1, psi_2) amplitudes over the sorted sector: Neel superposition
    and the four one-domain configurations. psi = psi_1 + psi_2."""
    psi1 = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]) / np.sqrt(3.0)
    psi2 = -np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]) / SQRT12
    return psi1, psi2


def oracle_decomposition_check(atol=1e-12):
    """Verify S_1 = S^(1) and S_2 = S^(2) + S^(3).

    With psi = psi_1 + psi_2 and Sz_i Sz_j diagonal on disjoint supports,
    the split correlators tile the rank-1 components exactly, with unit
    proportionality (the diagonal of S_2 is ||psi_2||^2 / 4 = 1/12, which
    pins the factor). Returns the matrices and maximum deviations; raises
    AssertionError with the matrix differences on failure.
    """
    psi1, psi2 = psi_split()
    if abs(psi1 @ psi2) > atol:
        raise AssertionError("psi_1 and psi_2 are not orthogonal")
    # (S_n)_ij = <psi_n| Sz_i Sz_j |psi_n>, psi_n left unnormalized
    basis = enumerate_sector(4, 0)
    s1, s2 = (build_from_wavefunction(Wavefunction(basis, psi)).entries for psi in (psi1, psi2))
    dev1 = float(np.max(np.abs(s1 - COMPONENT_1)))
    dev2 = float(np.max(np.abs(s2 - (COMPONENT_2 + COMPONENT_3))))
    if dev1 > atol or dev2 > atol:
        raise AssertionError(
            f"decomposition identities violated: |S_1 - S^(1)| = {dev1:.3e}, "
            f"|S_2 - (S^(2)+S^(3))| = {dev2:.3e}\n"
            f"S_1 - S^(1) =\n{s1 - COMPONENT_1}\n"
            f"S_2 - (S^(2)+S^(3)) =\n{s2 - (COMPONENT_2 + COMPONENT_3)}"
        )
    return {"S_1": s1, "S_2": s2, "dev_1": dev1, "dev_2": dev2}


def reference_correlation_matrix():
    """The exact 4-site matrix wrapped as a CorrelationMatrix."""
    return CorrelationMatrix(4, CORRELATION.copy(), "ed-ground")


def as_json_dict():
    """All reference values, JSON-serializable (for the oracle4 command)."""
    rho_a, rho_ab = oracle_density_matrices()
    psi1, psi2 = psi_split()
    return {
        "ground_state": GROUND_AMPS.tolist(),
        "ground_energy": GROUND_ENERGY,
        "rho_A": rho_a.tolist(),
        "rho_AB": rho_ab.tolist(),
        "entropies": oracle_entropies(),
        "correlation_matrix": CORRELATION.tolist(),
        "singular_values": SINGULAR_VALUES.tolist(),
        "components": [
            COMPONENT_1.tolist(),
            COMPONENT_2.tolist(),
            COMPONENT_3.tolist(),
        ],
        "psi_1": psi1.tolist(),
        "psi_2": psi2.tolist(),
    }
