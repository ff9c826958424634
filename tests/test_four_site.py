"""Golden 4-site reference values and their cross-checks against the solver."""

import numpy as np
import pytest

from conftest import correlator_zz
from spinsvd import four_site


def test_ground_state_normalized():
    amps = four_site.oracle_ground_state()
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)


def test_ground_state_matches_lanczos(ground_n4):
    amps = four_site.oracle_ground_state()
    dev = min(
        np.max(np.abs(ground_n4.wf.amps - amps)),
        np.max(np.abs(ground_n4.wf.amps + amps)),
    )
    assert dev < 1e-10


def test_ground_energy(ground_n4):
    assert ground_n4.energy == pytest.approx(four_site.GROUND_ENERGY, abs=1e-10)


def test_density_matrices():
    rho_a, rho_ab = four_site.oracle_density_matrices()
    assert np.allclose(rho_a, np.diag([0.5, 0.5]), atol=1e-14)
    assert np.trace(rho_ab) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(
        np.sort(np.diag(rho_ab)), [1 / 12, 1 / 12, 5 / 12, 5 / 12], atol=1e-14
    )
    assert rho_ab[1, 2] == pytest.approx(-1 / 3, abs=1e-14)
    evals = np.sort(np.linalg.eigvalsh(rho_ab))
    assert np.allclose(evals, [1 / 12, 1 / 12, 1 / 12, 9 / 12], atol=1e-13)


def test_partial_trace_consistency():
    rho_a, rho_ab = four_site.oracle_density_matrices()
    assert np.allclose(four_site.partial_trace_site1(rho_ab), rho_a, atol=1e-14)


def test_entropies_closed_form():
    ent = four_site.oracle_entropies()
    _, rho_ab = four_site.oracle_density_matrices()
    assert four_site.von_neumann_entropy(rho_ab) == pytest.approx(ent["S_AB"], abs=1e-12)
    assert ent["S_A"] == pytest.approx(np.log(2), abs=1e-14)
    assert ent["I_M"] == pytest.approx(ent["S_A"] + ent["S_B"] - ent["S_AB"], abs=1e-14)
    assert ent["S_AB"] == pytest.approx(2 * np.log(2) - 0.5 * np.log(3), abs=1e-14)
    assert ent["I_M"] == pytest.approx(0.5 * np.log(3), abs=1e-14)


def test_correlation_matrix_against_solver(ground_n4):
    for i in range(4):
        for j in range(4):
            assert correlator_zz(ground_n4.wf, i, j) == pytest.approx(
                four_site.CORRELATION[i, j], abs=1e-10
            )


def test_decomposition_identities():
    report = four_site.oracle_decomposition_check()
    assert report["dev_1"] < 1e-12
    assert report["dev_2"] < 1e-12
    assert np.allclose(report["S_1"], four_site.COMPONENT_1, atol=1e-12)


def test_psi_split_reassembles_ground_state():
    psi1, psi2 = four_site.psi_split()
    assert abs(psi1 @ psi2) < 1e-15
    assert np.max(np.abs(psi1 + psi2 - four_site.oracle_ground_state())) < 1e-14


def test_json_dump_roundtrip():
    import json

    payload = four_site.as_json_dict()
    restored = json.loads(json.dumps(payload))
    assert restored["singular_values"] == [2 / 3, 1 / 6, 1 / 6, 0.0]
