"""SVD of the correlation matrix: spectrum, components, domains, scaling.

For the symmetric PSD correlation matrix the SVD coincides with the
eigendecomposition, so the singular values are the eigenvalues sqrt(lambda_n)
and the squared spectrum is lambda_n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class SvdSpectrum:
    values: np.ndarray  # sqrt(lambda_n), descending
    vectors: np.ndarray  # orthonormal columns

    @property
    def squared(self):
        return self.values**2

    @property
    def n(self):
        return len(self.values)


@dataclass(eq=False)
class SvdComponent:
    n: int  # 1-based rank index
    matrix: np.ndarray  # rank-1


@dataclass
class DomainMeasurement:
    n: int
    wavenumber: float
    domain_size: float
    wall_count: int


@dataclass
class ScalingFit:
    amplitude: float
    power: float
    uses_exp_cutoff: bool
    r_squared: float
    fit_set: list


@dataclass
class KernelReconstruction:
    separations: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    gamma_integral: float
    gamma_reference: float = np.sqrt(np.pi)


def eigendecompose(corr):
    """Descending eigenpairs of the correlation matrix.

    Sign convention: in each eigenvector the first entry within 1e-12
    relative of the largest magnitude is made positive, so that entries tied
    up to rounding (all of them in the k = pi vector of a circulant) pick the
    same pivot and exports are reproducible.
    """
    s = corr.entries if hasattr(corr, "entries") else np.asarray(corr)
    if not np.allclose(s, s.T, atol=0, rtol=0):
        raise ValueError("eigendecompose requires an exactly symmetric matrix")
    vals, vecs = np.linalg.eigh(s)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        mag = np.abs(vecs[:, k])
        pivot = int(np.argmax(mag >= (1 - 1e-12) * mag.max()))
        if vecs[pivot, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return SvdSpectrum(vals, vecs)


def component(spec, n):
    """Rank-1 component U_n sqrt(lambda_n) U_n^T (n is 1-based)."""
    if not 1 <= n <= spec.n:
        raise IndexError(f"component index {n} outside 1..{spec.n}")
    u = spec.vectors[:, n - 1]
    return SvdComponent(n, spec.values[n - 1] * np.outer(u, u))


def degeneracy_pairs(spec, rel_tol=1e-10):
    """Greedy adjacent pairing of the squared spectrum.

    Ranks n and n+1 (1-based) pair when |lambda_n - lambda_{n+1}| is within
    rel_tol * lambda_n; everything unpaired is reported as a singleton.
    """
    lam = spec.squared
    pairs, singletons = [], []
    n = 1
    while n <= len(lam):
        if n < len(lam) and abs(lam[n - 1] - lam[n]) <= rel_tol * abs(lam[n - 1]):
            pairs.append((n, n + 1))
            n += 2
        else:
            singletons.append(n)
            n += 1
    return pairs, singletons


def dominant_wavenumber(vector):
    """Discrete Fourier mode k = 2 pi m / N with the largest power, k in [0, pi]."""
    v = np.asarray(vector, dtype=float)
    if np.all(v == 0):
        raise ValueError("zero vector has no dominant wavenumber")
    power = np.abs(np.fft.rfft(v))
    m = int(np.argmax(power))
    return 2 * np.pi * m / len(v)


def measure_domain_size(vector, n=0, threshold=0.1):
    """Domain size from cyclic sign changes of the staggered vector.

    Entries below threshold * max|v| are dropped (smeared walls), the rest
    are staggered by (-1)^i, and the number of cyclic sign changes counts
    the domain walls; domain_size = N / max(walls, 1).
    """
    v = np.asarray(vector, dtype=float)
    n_sites = len(v)
    cut = threshold * np.max(np.abs(v))
    idx = np.nonzero(np.abs(v) >= cut)[0]
    if len(idx) == 0:
        raise ValueError("all entries below the domain threshold")
    stag = np.where(idx % 2 == 0, 1.0, -1.0) * np.sign(v[idx])
    walls = int(np.sum(stag != np.roll(stag, -1)))
    size = n_sites / max(walls, 1)
    return DomainMeasurement(n, dominant_wavenumber(v), size, walls)


def default_fit_set(n_sites):
    """Ranks used for the envelope fit: 1 and the even n below N/2."""
    return [1] + [n for n in range(2, n_sites // 2, 2)]


def fit_scaling(spec, fit_set=None, use_exp_cutoff=True):
    """Least squares of log lambda_n = log a + p log n [- n/N] over fit_set."""
    n_sites = spec.n
    if fit_set is None:
        fit_set = default_fit_set(n_sites)
    lam = spec.squared
    usable = []
    for n in fit_set:
        if lam[n - 1] > 0:
            usable.append(n)
        else:
            warnings.warn(f"lambda_{n} <= 0 excluded from scaling fit", stacklevel=2)
    if len(usable) < 3:
        raise ValueError(f"scaling fit needs >= 3 positive points, got {len(usable)}")
    ns = np.array(usable, dtype=float)
    y = np.log(lam[np.array(usable) - 1])
    if use_exp_cutoff:
        y = y + ns / n_sites
    x = np.log(ns)
    design = np.column_stack([np.ones_like(x), x])
    (loga, p), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (loga + p * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-20 else 1.0 - ss_res / ss_tot if ss_tot > 0 else -np.inf
    with np.errstate(over="ignore"):
        amplitude = float(np.exp(loga))
    if amplitude == np.inf:
        raise ValueError(f"scaling fit amplitude exp({loga:.6g}) overflows")
    return ScalingFit(amplitude, float(p), use_exp_cutoff, r2, usable)


def kernel_reconstruct(n_sites, separations):
    """Correlator rebuilt from the domain-kernel ansatz, plus its exponent.

    Sums sqrt(e^{-n/N}/n) * sqrt(e^{-r/L_n}/r) with L_n = N/n over all ranks
    for each separation r, fits the log-log slope, and checks the quadrature
    of int_0^inf e^{-x} x^{-1/2} dx against sqrt(pi). With x = t^2 the
    integrand is 2 e^{-t^2}, summed by the trapezoid rule on t in [0, 8]
    (801 points; the tail beyond 8 is below e^{-64}).
    """
    if n_sites < 64:
        raise ValueError(f"kernel reconstruction needs n_sites >= 64, got {n_sites}")
    rs = np.array([r for r in separations if r > 0], dtype=float)
    if len(rs) < 2:
        raise ValueError("need at least two positive separations")
    ns = np.arange(1, n_sites + 1, dtype=float)
    weights = np.sqrt(np.exp(-ns / n_sites) / ns)  # sqrt(lambda_n) envelope
    vals = np.empty(len(rs))
    for i, r in enumerate(rs):
        kern = np.sqrt(np.exp(-r * ns / n_sites) / r)  # e^{-r/L_n}, L_n = N/n
        vals[i] = float(np.sum(weights * kern))
    design = np.column_stack([np.ones(len(rs)), np.log(rs)])
    (intercept, slope), *_ = np.linalg.lstsq(design, np.log(vals), rcond=None)
    t = np.linspace(0.0, 8.0, 801)
    f = 2 * np.exp(-t * t)
    integral = (t[1] - t[0]) * (f.sum() - 0.5 * (f[0] + f[-1]))
    return KernelReconstruction(rs, vals, float(slope), float(intercept), float(integral))


def haar_matrix(n, levels=None):
    """Orthonormal Haar analysis matrix of size n (n divisible by 2^levels).

    Stage l maps the first m = n / 2^l coordinates to m/2 pairwise sums and
    m/2 pairwise differences, each scaled by 1/sqrt(2); the rest pass
    through. The default depth is the number of factors 2 in n.
    """
    if levels is None:
        levels = (n & -n).bit_length() - 1
    if levels < 1 or n % (1 << levels) != 0:
        raise ValueError(f"invalid Haar depth {levels} for size {n}")
    r = 1 / np.sqrt(2)
    w = np.eye(n)
    for level in range(levels):
        pairs = np.eye(n >> (level + 1))
        stage = np.eye(n)
        stage[: 2 * len(pairs), : 2 * len(pairs)] = np.vstack(
            [np.kron(pairs, [r, r]), np.kron(pairs, [r, -r])]
        )
        w = stage @ w
    return w


def haar_transform(corr, levels=None):
    """Two-dimensional orthonormal Haar transform W S W^T."""
    s = corr.entries if hasattr(corr, "entries") else np.asarray(corr)
    w = haar_matrix(s.shape[0], levels)
    return w @ s @ w.T
