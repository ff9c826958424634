"""Shared fixtures; the expensive MPS runs are session-scoped."""

import os
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported: the N = 64, 40-sweep
# MPS trajectory, and so the criterion-5 values the gate prints, depend on
# the thread count. A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# pytest puts src on sys.path (pyproject.toml); the tests that start fresh
# interpreters find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import numpy as np  # noqa: E402
import pytest

from spinsvd import basis as basis_mod
from spinsvd import corr, exact, mps

# Pauli/spin matrices for the kron-product oracle Hamiltonian
_SZ = np.diag([-0.5, 0.5])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SM = _SP.T
_I2 = np.eye(2)


def kron_hamiltonian(n_sites, j_coupling=1.0):
    """Full 2^N x 2^N ring Hamiltonian built from explicit kron products.

    Independent oracle: shares nothing with the sector-basis implementation.
    Site i acts on the i-th kron factor counted from the right, matching
    the bit i = site i convention.
    """

    def site_op(op, i):
        mats = [_I2] * n_sites
        mats[n_sites - 1 - i] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    dim = 2**n_sites
    h = np.zeros((dim, dim))
    for i in range(n_sites):
        j = (i + 1) % n_sites
        h += site_op(_SZ, i) @ site_op(_SZ, j)
        h += 0.5 * (site_op(_SP, i) @ site_op(_SM, j) + site_op(_SM, i) @ site_op(_SP, j))
    return j_coupling * h


def ring_env(state, site):
    """Block of the sites site+1 ... site-1 round the ring, combined one site
    at a time: the cache-free environment the sweep's cached blocks must match."""
    env = None
    for a in np.roll(state.tensors, -site - 1, axis=0)[:-1]:
        env = mps._combine(env, mps._site_block(a))
    return env


def bethe_energy(n_sites):
    """Ground-state energy of the even J = 1 ring by Bethe ansatz.

    Independent oracle: shares nothing with basis or mps. The rapidities
    solve N arctan(2 l_j) = pi I_j + sum_k arctan(l_j - l_k), with
    I_j = -(M-1)/2 ... (M-1)/2 and M = N/2, and E = N/4 - sum_j 2/(4 l_j^2 + 1).
    A fixed-point iteration from the free rapidities, then Newton with
    backtracking down to the rounding floor of the equations.
    """
    phases = np.pi * (np.arange(n_sites // 2) - (n_sites // 2 - 1) / 2)

    def residual(lam):
        return n_sites * np.arctan(2 * lam) - phases - np.arctan(lam[:, None] - lam).sum(1)

    lam = 0.5 * np.tan(phases / n_sites)
    for _ in range(100):
        lam = 0.5 * np.tan((phases + np.arctan(lam[:, None] - lam).sum(1)) / n_sites)
    f = residual(lam)
    for _ in range(50):
        if np.abs(f).max() <= 1e-13 * n_sites:
            return n_sites / 4 - float(np.sum(2 / (4 * lam**2 + 1)))
        pair = 1 / (1 + (lam[:, None] - lam) ** 2)
        step = np.linalg.solve(pair - np.diag(pair.sum(1) - 2 * n_sites / (1 + 4 * lam**2)), -f)
        scale = 1.0
        while scale > 1e-6 and np.linalg.norm(residual(lam + scale * step)) > np.linalg.norm(f):
            scale /= 2
        lam = lam + scale * step
        f = residual(lam)
    raise RuntimeError(f"Bethe equations unsolved at N = {n_sites} (residual {np.abs(f).max():.1e})")


def correlator_zz(wf, i, j):
    """<wf| Sz_i Sz_j |wf>, one entry at a time; diagonal in the configuration basis."""
    n = wf.basis.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for n_sites={n}")
    z = wf.basis.z_values()
    return float(np.sum(wf.amps**2 * z[:, i] * z[:, j]))


def embed_in_full_space(wf):
    """Sector wavefunction -> full 2^N amplitude vector."""
    psi = np.zeros(2**wf.basis.n_sites)
    for cfg, amp in zip(wf.basis.configs, wf.amps):
        psi[int(cfg)] = amp
    return psi


@pytest.fixture(scope="session")
def ground_n4():
    return exact.lanczos_ground_state(basis_mod.enumerate_sector(4, 0))


@pytest.fixture(scope="session")
def ground_n8():
    return exact.lanczos_ground_state(basis_mod.enumerate_sector(8, 0))


@pytest.fixture(scope="session")
def ground_n12():
    return exact.lanczos_ground_state(basis_mod.enumerate_sector(12, 0))


@pytest.fixture(scope="session")
def spectrum_n8():
    return exact.full_spectrum(8)


@pytest.fixture(scope="session")
def mps_runs_n12(ground_n12):
    """Three seeded N=12 chi=10 40-sweep runs (criterion 4)."""
    runs = []
    for seed in (0, 1, 2):
        state, reports = mps.sweep_optimize(
            mps.random_init(12, 10, seed=seed), n_sweeps=40
        )
        runs.append((seed, state, reports))
    return runs


@pytest.fixture(scope="session")
def mps_run_n64():
    """The N=64 chi=10 40-sweep replication run (criterion 5) and its seconds."""
    t0 = time.perf_counter()
    state, reports = mps.sweep_optimize(mps.random_init(64, 10, seed=0), n_sweeps=40)
    return state, reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def mps_ed_n24():
    """The N=24 chi=10 40-sweep MPS (seed 0) and the momentum-block ED ground state."""
    state, reports = mps.sweep_optimize(mps.random_init(24, 10, seed=0), n_sweeps=40)
    return state, reports, exact.momentum_ground_state(24)


@pytest.fixture(scope="session")
def corr_n64(mps_run_n64):
    state = mps_run_n64[0]
    return corr.build_from_mps(state)


# -- acceptance reporting ----------------------------------------------------
# test_acceptance.check() appends its lines here; echoed after the test
# summary so the per-criterion PASS/FAIL record survives output capture.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
