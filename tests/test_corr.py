"""Correlation-matrix assembly: ground state, MPS, and thermal ensembles."""

import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsvd import corr, four_site
from spinsvd.basis import Wavefunction, enumerate_sector
from spinsvd.exact import full_spectrum
from spinsvd.svd_analysis import eigendecompose

cached_spectrum = cache(full_spectrum)


def test_exact_n4_matrix(ground_n4):
    cm = corr.build_from_wavefunction(ground_n4.wf)
    assert np.max(np.abs(cm.entries - four_site.CORRELATION)) < 1e-12
    cm.validate()


def test_diagonal_quarter(ground_n8):
    cm = corr.build_from_wavefunction(ground_n8.wf)
    assert np.max(np.abs(np.diag(cm.entries) - 0.25)) < 1e-12


def test_symmetry_exact(ground_n12):
    cm = corr.build_from_wavefunction(ground_n12.wf)
    assert np.array_equal(cm.entries, cm.entries.T)


def test_n12_ground_invariants(ground_n12):
    cm = corr.build_from_wavefunction(ground_n12.wf)
    cm.validate()
    assert cm.circulant_deviation() < 1e-12
    assert cm.row_sum_max() < 1e-12
    assert cm.min_eigenvalue() >= -1e-10


def test_nonzero_sector_warns():
    b = enumerate_sector(4, 1)
    rng = np.random.default_rng(0)
    wf = Wavefunction(b, rng.standard_normal(b.dim)).normalized()
    with pytest.warns(UserWarning):
        cm = corr.build_from_wavefunction(wf)
    assert cm.provenance != "ed-ground"


def test_trace_identity(ground_n4, ground_n8, ground_n12):
    for sol in (ground_n4, ground_n8, ground_n12):
        cm = corr.build_from_wavefunction(sol.wf)
        spec = eigendecompose(cm)
        assert np.sum(spec.values) == pytest.approx(cm.n_sites / 4, abs=1e-10)


def test_thermal_infinite_temperature(spectrum_n8):
    cm = corr.build_thermal(spectrum_n8, 0.0)
    assert np.array_equal(cm.entries, 0.25 * np.eye(8))


def test_thermal_ground_limit(ground_n8, spectrum_n8):
    cold = corr.build_thermal(spectrum_n8, 100.0)
    ground = corr.build_from_wavefunction(ground_n8.wf)
    assert np.max(np.abs(cold.entries - ground.entries)) < 1e-6


def test_thermal_top_eigenvalue_monotone(spectrum_n8):
    lam1 = [
        eigendecompose(corr.build_thermal(spectrum_n8, b)).squared[0]
        for b in (100.0, 10.0, 3.0, 1.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(lam1, lam1[1:]))


def test_thermal_psd(spectrum_n8):
    for beta in (0.0, 0.5, 2.0, 20.0):
        assert corr.build_thermal(spectrum_n8, beta).min_eigenvalue() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), beta=st.floats(0.0, 50.0))
def test_thermal_psd_with_quarter_diagonal(n, beta):
    s = corr.build_thermal(cached_spectrum(n), beta).entries
    assert np.linalg.eigvalsh(s)[0] >= -1e-12
    assert np.max(np.abs(np.diag(s) - 0.25)) <= 1e-12


def test_validate_rejects_non_circulant_thermal(spectrum_n8):
    cm = corr.build_thermal(spectrum_n8, 2.0)
    cm.validate()
    s = cm.entries.copy()
    s[0, 1] = s[1, 0] = s[0, 1] + 1e-9  # symmetric, PSD, quarter diagonal; not circulant
    with pytest.raises(ValueError, match="not circulant"):
        corr.CorrelationMatrix(8, s, cm.provenance).validate()


def rolled_row_deviation(s):
    """Largest |S_ij - S_0,(j-i) mod N| by rolling each row onto row 0: the oracle."""
    dev = 0.0
    for i in range(len(s)):
        dev = max(dev, float(np.max(np.abs(np.roll(s[i], -i) - s[0]))))
    return dev


def test_circulant_deviation_matches_rolled_rows(spectrum_n8):
    rng = np.random.default_rng(0)
    for n in (4, 7, 12):
        a = rng.standard_normal((n, n))
        s = a + a.T  # symmetric, not circulant
        assert corr.CorrelationMatrix(n, s, "mps").circulant_deviation() == rolled_row_deviation(s) > 0
    for beta in (0.0, 1.0, 10.0):
        cm = corr.build_thermal(spectrum_n8, beta)
        assert cm.circulant_deviation() == rolled_row_deviation(cm.entries) == 0.0


def test_thermal_beta_continuity(spectrum_n8):
    delta = 1e-4
    e_max = float(np.max(np.abs(spectrum_n8.energies)))
    for beta in (0.5, 2.0, 10.0):
        a = corr.build_thermal(spectrum_n8, beta).entries
        b = corr.build_thermal(spectrum_n8, beta + delta).entries
        assert np.linalg.norm(a - b) <= 1e-2 * delta * 8 * e_max


def test_thermal_huge_beta_is_the_beta_1e3_matrix():
    spectrum = full_spectrum(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from -beta (E - E0)
        huge = corr.build_thermal(spectrum, 1e308).entries
    assert np.array_equal(huge, corr.build_thermal(spectrum, 1e3).entries)


def test_thermal_negative_beta():
    with pytest.raises(ValueError):
        corr.build_thermal(full_spectrum(4), -1.0)


def test_mps_build(ground_n4):
    from spinsvd import mps

    state, _ = mps.sweep_optimize(mps.random_init(4, 4, seed=1), n_sweeps=15)
    cm = corr.build_from_mps(state)
    assert cm.provenance == "mps"
    assert np.array_equal(cm.entries, cm.entries.T)
    assert np.max(np.abs(cm.entries - four_site.CORRELATION)) < 1e-6
