"""Spectrum extraction, components, domain measures, fits, kernel, Haar."""

import numpy as np
import pytest

from spinsvd import corr, exact, four_site
from spinsvd import svd_analysis as sa


@pytest.fixture(scope="module")
def spec_n4():
    return sa.eigendecompose(four_site.reference_correlation_matrix())


@pytest.fixture(scope="module")
def corr_n12(ground_n12):
    return corr.build_from_wavefunction(ground_n12.wf)


def test_n4_singular_values(spec_n4):
    assert np.max(np.abs(spec_n4.values - four_site.SINGULAR_VALUES)) < 1e-10


def test_orthonormal_vectors(spec_n4):
    gram = spec_n4.vectors.T @ spec_n4.vectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_reconstruction(corr_n12):
    spec = sa.eigendecompose(corr_n12)
    rebuilt = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
    assert np.linalg.norm(rebuilt - corr_n12.entries) < 1e-10


def test_sign_convention(spec_n4):
    # the pivot is the first entry within 1e-12 relative of the largest magnitude
    for k in range(4):
        v = spec_n4.vectors[:, k]
        assert v[np.argmax(np.abs(v) >= (1 - 1e-12) * np.abs(v).max())] > 0
    assert np.array_equal(np.sign(spec_n4.vectors[:, 0]), [1, -1, 1, -1])


def test_sign_convention_without_ties():
    # with one largest-magnitude entry per column the pivot is that entry
    r = np.random.default_rng(4).standard_normal((9, 9))
    spec = sa.eigendecompose(r + r.T)
    for v in spec.vectors.T:
        assert v[np.argmax(np.abs(v))] > 0


def test_sign_pivot_tolerates_rounding_ties():
    # every entry of the k = pi vector (rank 1) of the N = 16 ED matrix ties
    # in magnitude up to rounding; a symmetric 1e-16 perturbation keeps its sign
    sol = exact.momentum_ground_state(16)
    s = corr.build_from_wavefunction(sol.wf).entries
    top = sa.eigendecompose(s).vectors[:, 0]
    assert np.max(np.abs(top - 0.25 * (-1.0) ** np.arange(16))) < 1e-12
    for seed in range(8):
        r = np.random.default_rng(seed).standard_normal(s.shape)
        v = sa.eigendecompose(s + 1e-16 * (r + r.T) / 2).vectors[:, 0]
        assert np.max(np.abs(v - top)) < 1e-10


def test_nonsymmetric_rejected():
    with pytest.raises(ValueError):
        sa.eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_circulant_fourier_oracle(corr_n12):
    # eigenvalues of a circulant matrix are the DFT of its first row
    spec = sa.eigendecompose(corr_n12)
    fourier = np.sort(np.real(np.fft.fft(corr_n12.entries[0])))[::-1]
    assert np.max(np.abs(spec.values - fourier)) < 1e-10


def test_component_identities(spec_n4):
    c1 = sa.component(spec_n4, 1)
    assert np.max(np.abs(c1.matrix - four_site.COMPONENT_1)) < 1e-10
    pair_sum = sa.component(spec_n4, 2).matrix + sa.component(spec_n4, 3).matrix
    assert np.max(np.abs(pair_sum - (four_site.COMPONENT_2 + four_site.COMPONENT_3))) < 1e-10


def test_component_rank_one(spec_n4):
    m = sa.component(spec_n4, 1).matrix
    scale = np.max(np.abs(m))
    for i in range(3):
        for j in range(3):
            minor = m[i, j] * m[i + 1, j + 1] - m[i, j + 1] * m[i + 1, j]
            assert abs(minor) < 1e-12 * scale**2


def test_component_completeness(corr_n12):
    spec = sa.eigendecompose(corr_n12)
    total = sum(sa.component(spec, n).matrix for n in range(1, 13))
    assert np.linalg.norm(total - corr_n12.entries) < 1e-10


def test_component_range(spec_n4):
    with pytest.raises(IndexError):
        sa.component(spec_n4, 0)
    with pytest.raises(IndexError):
        sa.component(spec_n4, 5)


def test_degeneracy_pairs_n4(spec_n4):
    pairs, singles = sa.degeneracy_pairs(spec_n4, rel_tol=1e-10)
    assert pairs == [(2, 3)]
    assert singles == [1, 4]


def test_degeneracy_pairs_n12(corr_n12):
    spec = sa.eigendecompose(corr_n12)
    pairs, singles = sa.degeneracy_pairs(spec, rel_tol=1e-10)
    assert len(singles) == 2
    assert len(pairs) == 5
    # largest is the k=pi staggered mode, smallest the k=0 zero mode
    assert sa.dominant_wavenumber(spec.vectors[:, 0]) == pytest.approx(np.pi)
    assert spec.values[-1] == pytest.approx(0.0, abs=1e-10)
    uniform = np.ones(12) / np.sqrt(12)
    assert abs(abs(spec.vectors[:, -1] @ uniform) - 1) < 1e-8


def test_dominant_wavenumber_cases():
    assert sa.dominant_wavenumber([1, -1, 1, -1]) == pytest.approx(np.pi)
    assert sa.dominant_wavenumber([1, 0, -1, 0]) == pytest.approx(np.pi / 2)
    assert sa.dominant_wavenumber([1, 1, 1, 1]) == 0.0
    with pytest.raises(ValueError):
        sa.dominant_wavenumber([0, 0, 0, 0])


def test_measure_domain_size_neel():
    v = np.array([(-1.0) ** i for i in range(64)])
    d = sa.measure_domain_size(v)
    assert d.wall_count == 0
    assert d.domain_size == 64


def test_measure_domain_size_two_domains():
    # staggered order with a phase flip halfway: two walls, size N/2
    v = np.array([(-1.0) ** i for i in range(64)])
    v[32:] *= -1
    d = sa.measure_domain_size(v)
    assert d.wall_count == 2
    assert d.domain_size == 32


def test_measure_domain_size_threshold():
    with pytest.raises(ValueError):
        sa.measure_domain_size(np.zeros(8))


def test_fit_scaling_self_model():
    n = np.arange(1, 65, dtype=float)
    lam = n**-1 * np.exp(-n / 64)
    spec = sa.SvdSpectrum(np.sqrt(lam), np.eye(64))
    fit = sa.fit_scaling(spec)
    assert fit.power == pytest.approx(-1.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert fit.amplitude == pytest.approx(1.0, abs=1e-10)


def test_fit_scaling_constant_spectrum():
    spec = sa.SvdSpectrum(np.full(64, 0.5), np.eye(64))
    fit = sa.fit_scaling(spec, use_exp_cutoff=False)
    assert fit.power == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_excludes_nonpositive():
    vals = np.zeros(16)
    vals[:4] = [1.0, 0.5, 0.4, 0.3]
    spec = sa.SvdSpectrum(vals, np.eye(16))
    with pytest.warns(UserWarning):
        fit = sa.fit_scaling(spec, fit_set=[1, 2, 3, 9])
    assert fit.fit_set == [1, 2, 3]


def test_fit_scaling_too_few_points():
    spec = sa.SvdSpectrum(np.array([1.0, 0.5, 0.0, 0.0]), np.eye(4))
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        sa.fit_scaling(spec, fit_set=[1, 2, 3])


def test_kernel_reconstruct_asymptotic_slope():
    # The 1/r form emerges when r << N; with the window deep inside the
    # chain the log-log slope approaches -1 from below.
    rec = sa.kernel_reconstruct(4096, list(range(32, 129, 8)))
    assert rec.slope == pytest.approx(-1.0, abs=0.05)
    assert rec.gamma_integral == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_kernel_reconstruct_finite_size_steepening():
    # The discrete sum's zeta(1/2) term, a relative correction of order
    # sqrt((1+r)/2N), steepens the slope; it must stay between -1.3 and -1
    # and move toward -1 as the window shrinks relative to N.
    near = sa.kernel_reconstruct(256, list(range(32, 129, 8))).slope
    far = sa.kernel_reconstruct(1024, list(range(32, 129, 8))).slope
    assert -1.3 < near < -1.0
    assert near < far < -1.0


def test_kernel_symmetry_in_separation_only():
    rec = sa.kernel_reconstruct(256, [40, 40])
    assert rec.values[0] == rec.values[1]


def test_kernel_rejects_small_systems():
    with pytest.raises(ValueError):
        sa.kernel_reconstruct(32, [4, 8])


def test_haar_orthogonal():
    for n, levels in [(8, 3), (64, 6), (64, 2)]:
        w = sa.haar_matrix(n, levels)
        assert np.max(np.abs(w @ w.T - np.eye(n))) < 1e-12


def test_haar_identity_image():
    w = sa.haar_matrix(8)
    assert np.max(np.abs(w @ np.eye(8) @ w.T - np.eye(8))) < 1e-12


def test_haar_invertible_and_norm_preserving(ground_n8):
    cm = corr.build_from_wavefunction(ground_n8.wf)
    t = sa.haar_transform(cm)
    assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(cm.entries), abs=1e-12)
    w = sa.haar_matrix(8)
    back = w.T @ t @ w
    assert np.max(np.abs(back - cm.entries)) < 1e-12


def test_haar_invalid_levels():
    with pytest.raises(ValueError):
        sa.haar_matrix(8, 4)
    with pytest.raises(ValueError):
        sa.haar_matrix(0)  # no depth fits the empty matrix
