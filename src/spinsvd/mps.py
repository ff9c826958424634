"""Periodic-boundary matrix product state optimized site by site.

The state is |psi> = sum_s tr(A_1^{s_1} ... A_N^{s_N}) |s_1...s_N> with
site-dependent chi x chi real matrices. Each local update solves the
generalized eigenproblem H_eff |A> = E N_eff |A> on the 2*chi^2 vector of
one site's tensor, with all other tensors fixed.

Transfer matrices sum O[s',s] A^{s'} (x) A^s, and their products, are kept
as two blocks in the basis of symmetric and antisymmetric (bra, ket) index
pairs, chi(chi+1)/2 and chi(chi-1)/2 of them (the operators I, Sz, Sx are
symmetric and Sa = (S+ - S-)/2 antisymmetric), so a product costs about a
quarter of a dense one. A site's environment returns to the dense layout
once, in the gather that regroups it onto the site vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConditioningError
from .lanczos import lowest_ritz_pair

_SZ = np.diag([-0.5, 0.5])
_SX = np.array([[0.0, 0.5], [0.5, 0.0]])  # (S+ + S-)/2
_SA = np.array([[0.0, -0.5], [0.5, 0.0]])  # (S+ - S-)/2, with S+ = |1><0|
_I2 = np.eye(2)
_OPS = np.stack([_I2, _SZ, _SX, _SA])

# N_eff regularization: relative identity shift of the Gram matrix, whose
# conditioning the sweep's gauge shift keeps in check.
_NEFF_EPS = 1e-10
# Local eigensolver (Lanczos over the whole local space): a Ritz pair is
# accepted once its residual is at most _RITZ_TOL times the largest Ritz
# value's magnitude. _START_MIX is the weight of the fixed vector added to
# the start.
_RITZ_TOL = 1e-10
_START_MIX = 1e-3


@dataclass
class SiteUpdate:
    energy: float  # global Rayleigh quotient after the update
    steps: int  # Lanczos steps of the local solve


@dataclass
class SweepReport:
    sweep_index: int
    energy: float
    energy_change: float
    local_iterations: int  # Lanczos steps of the local solves


@dataclass(eq=False)
class MpsState:
    n_sites: int
    chi: int
    tensors: np.ndarray  # shape (n_sites, 2, chi, chi)

    def copy(self):
        return MpsState(self.n_sites, self.chi, self.tensors.copy())


class _Pair:
    """Matrix on the doubled bond space as its blocks in the pair basis of
    _gather: ss, aa if it commutes with the swap of the bra and ket index (as
    the transfer matrix of a symmetric O does), sa, as if it anticommutes."""

    __slots__ = ("s", "a", "odd")  # the blocks with symmetric and antisymmetric rows

    def __init__(self, s, a, odd=False):
        self.s, self.a, self.odd = s, a, odd

    def __matmul__(self, other):
        s, a = (other.a, other.s) if self.odd else (other.s, other.a)
        return _Pair(self.s @ s, self.a @ a, self.odd != other.odd)

    def __add__(self, other):
        return _Pair(self.s + other.s, self.a + other.a, self.odd)

    def __sub__(self, other):
        return _Pair(self.s - other.s, self.a - other.a, self.odd)


@cache
def _gather(chi, odd, site=False):
    """Tables between the dense doubled bond space and the two blocks of one
    parity. Pair basis: (e_bd + e_db)/sqrt2 (b < d) and e_bb in the row-major
    order of b <= d, then (e_bd - e_db)/sqrt2 (b < d).

    i, j, wi, wj, shapes: the blocks of E, concatenated, are wi t[i] + wj t[j]
    of its raw entries t[a, b, c, d] = E[(a, c), (b, d)]; entry (k, l) is E's
    row at vector k's pair b <= d against vector l, over k's coefficient there
    (the swap symmetry makes the swapped row give the same). With site,
    i, wi, j, wj: E regrouped from (b'b, a'a) onto the site vector (a'b', ab)
    is wi f[i] + wj f[j] of f, its blocks concatenated and one zero.
    """
    b, d = np.divmod(np.arange(chi * chi), chi)
    lo, hi = np.minimum(b, d), np.maximum(b, d)
    pos = lo * (2 * chi + 1 - lo) // 2 + hi - lo, lo * (2 * chi - 1 - lo) // 2 + hi - lo - 1
    coef = np.where(b == d, 1.0, np.sqrt(0.5)), np.sign(d - b) * np.sqrt(0.5)
    size, tables, shapes = [np.count_nonzero(b + x <= d) for x in (0, 1)], [], []
    for x, y in ((0, 1), (1, 0)) if odd else ((0, 0), (1, 1)):  # row and column sector
        shapes.append((size[x], size[y]))
        if site:
            w, at = np.outer(coef[x], coef[y]), np.add.outer(pos[x] * size[y], pos[y])
            tables.append((np.where(w != 0, at + (x and size[0] * size[odd]), -1), w))
            continue
        r, c = np.flatnonzero(b + x <= d), np.flatnonzero(b + y <= d)
        swap, scale = d[c] * chi + b[c], 1.0 / coef[x][r, None]
        w = coef[y][swap] * (b[c] < d[c])  # a diagonal pair counts once
        row = b[r, None] * chi**3 + d[r, None] * chi  # E[(p, q), (p', q')] = t[row + p' chi^2 + q']
        i, j = row + b[c] * chi**2 + d[c], row + d[c] * chi**2 + b[c]
        tables.append((i, j, scale * coef[y][c], scale * w))
    if site:  # regrouped from (b'b, a'a) onto the site vector (a'b', ab)
        return [t.reshape([chi] * 4).transpose(2, 0, 3, 1).reshape(b.size, -1) for t in sum(tables, ())]
    return *(np.concatenate([t[n].ravel() for t in tables]) for n in range(4)), shapes


@dataclass
class _Block:
    """Ring segment: plain transfer product p, sum h of its bonds (J = 1; None
    for one site), and products with Sz, Sx, Sa at its first (left) or last
    (right) site, all as _Pairs."""

    p: _Pair
    h: _Pair | None
    left: list | None
    right: list


def _transfers(a, ops=_OPS):
    """[sum_{s',s} O[s',s] kron(A^{s'}, A^s) for O in ops] as _Pairs.

    Two matrix products: B[(o, s), ab] = sum_s' O[s', s] A^{s'}_ab, then
    sum_s B[(o, s), ab] A^s_cd, whose (o, a, b, c, d) entries (E_O[(a, c),
    (b, d)]) are gathered into the blocks, odd for the antisymmetric Sa.
    """
    k, chi = len(ops), a.shape[1]
    flat = a.reshape(2, -1)
    oa = np.swapaxes(ops, 1, 2).reshape(2 * k, 2) @ flat
    t = (oa.reshape(k, 2, -1).swapaxes(1, 2).reshape(-1, 2) @ flat).reshape(k, -1)
    out = []
    for raw, odd in zip(t, (ops[:, 0, 1] != ops[:, 1, 0]).tolist()):
        i, j, wi, wj, (s, a) = _gather(chi, odd)
        v = wi * raw[i] + wj * raw[j]
        out.append(_Pair(v[: s[0] * s[1]].reshape(s), v[s[0] * s[1] :].reshape(a), odd))
    return out


def _site_block(a):
    """Block of one site: its transfers, and h = None, as it holds no bond."""
    t = _transfers(a)
    return _Block(t[0], None, t[1:], t[1:])


def _combine(a, b):
    """Block of segment a followed by segment b; None is the empty segment.

    A one-site segment has no bond sum (h is None), so its product term is
    skipped.
    """
    if a is None or b is None:
        return b if a is None else a
    (az, ax, aa), (bz, bx, ba) = a.right, b.left
    h = az @ bz + ax @ bx - aa @ ba  # the bond that joins a and b
    if b.h is not None:
        h = a.p @ b.h + h
    if a.h is not None:
        h = a.h @ b.p + h
    return _Block(a.p @ b.p, h, [f @ b.p for f in a.left], [a.p @ f for f in b.right])


def _sweep_envs(state):
    """Yield (k, environment of site k) for k = 0 ... N-1.

    The right block R_k (sites k+1 ... N-1) is stored as two _Pairs built at
    the start: X_k = E_{k+1} ... E_{N-2}, the plain product that stops before
    site N-1, and h_k, the bond sum of R_k. Site N-1 is updated last, so on
    use the products X_k @ [E, Fz, Fx, Fa] of site N-1 give R_k's p and right
    ends; its left ends are rebuilt from R_{k+1}.p. The left block (sites
    0 ... k-1) grows from each tensor as it is when the generator resumes, so
    an update at site k is seen by later sites.
    """
    n, chi = state.n_sites, state.chi
    plain, bonds = [None] * (n - 1), [None] * (n - 1)
    after = _Pair(np.eye(chi * (chi + 1) // 2), np.eye(chi * (chi - 1) // 2))  # sites k+3 ... N-1
    plain[n - 2], bonds[n - 2] = after, after - after  # R_{N-2}, site N-1 alone, holds no bond
    last = t_next = _transfers(state.tensors[n - 1])
    for k in range(n - 3, -1, -1):
        t = _transfers(state.tensors[k + 1])
        bond = t[1] @ t_next[1] + t[2] @ t_next[2] - t[3] @ t_next[3]
        plain[k] = t[0] @ plain[k + 1]
        bonds[k] = t[0] @ bonds[k + 1] + bond @ after
        after = t_next[0] @ after
        t_next = t
    ahead, left = [plain[0] @ f for f in last], None
    for k in range(n - 1):
        if k > 0:
            left = _combine(left, _site_block(state.tensors[k - 1]))
        r, ahead = ahead, ([plain[k + 1] @ f for f in last] if k + 2 < n else None)
        ends = _transfers(state.tensors[k + 1], _OPS[1:])
        r = _Block(r[0], bonds[k], ends if ahead is None else [f @ ahead[0] for f in ends], r[1:])
        yield k, _combine(r, left)
    yield n - 1, _combine(left, _site_block(state.tensors[n - 2]))


def _site_matrices(env, chi, j_coupling):
    """Effective H and Gram block N_env (N_eff = I_2 (x) N_env) of a site.

    env runs from the right neighbour round to the left one, so its left
    ends close the bond to the right and its right ends the bond to the left.
    H_eff = sum_O O (x) G_O over O = I, Sz, Sx, Sa, so its four chi^2 x chi^2
    blocks (s, t) are sums of the G_O with O[s, t] != 0.
    """
    d2 = chi * chi

    def site_op(g):  # ring environment (b'b, a'a) -> dense matrix on the site vector (a'b', ab)
        i, wi, j, wj = _gather(chi, g.odd, site=True)
        f = np.concatenate((g.s.ravel(), g.a.ravel(), [0.0]))
        return wi * f[i] + wj * f[j]

    (lz, lx, la), (rz, rx, ra) = env.left, env.right
    bonds = 0.0 if env.h is None else site_op(env.h)  # N = 2: a one-site env holds no bond
    z = 0.5 * site_op(lz + rz)
    heff = np.empty((2 * d2, 2 * d2))
    heff[:d2, :d2], heff[d2:, d2:] = bonds - z, bonds + z
    # block (1, 0), S+ = |1><0|, meets S- = Sx - Sa in the environment
    heff[d2:, :d2] = 0.5 * (site_op(lx + rx) - site_op(la + ra))
    heff[:d2, d2:] = heff[d2:, :d2].T
    heff *= j_coupling
    return heff, site_op(env.p)


def _gram(x, nenv):
    """x . (I_2 (x) nenv) . x for a site vector x."""
    return float(np.vdot(x.reshape(2, -1) @ nenv, x.reshape(2, -1)))


def random_init(n_sites, chi, seed=0):
    """Random MPS of unit norm, drawn once from the seed; identical tensors for
    identical seeds."""
    if chi < 1:
        raise ValueError("chi must be >= 1")
    tensors = np.random.default_rng(seed).standard_normal((n_sites, 2, chi, chi)) / np.sqrt(chi)
    trace, exponent = _ring_trace(MpsState(n_sites, chi, tensors))
    return MpsState(n_sites, chi, tensors * (trace ** (-0.5 / n_sites) * 2.0 ** (-exponent / (2 * n_sites))))


def _ring_trace(state):
    """(t, e) with <psi|psi> = t 2^e: the trace of the ring product of plain
    transfer matrices, whose running product is divided by 2^k whenever its
    largest entry reaches 2^k with |k| > 256, so that long rings neither
    over- nor underflow. ConditioningError unless t is positive and finite."""
    product, exponent = None, 0
    for a in state.tensors:
        plain = _transfers(a, _OPS[:1])[0]
        product = plain if product is None else product @ plain
        shift = int(np.frexp(max(np.abs(product.s).max(), np.abs(product.a).max(initial=0.0)))[1])
        if abs(shift) > 256:
            product = _Pair(np.ldexp(product.s, -shift), np.ldexp(product.a, -shift))
            exponent += shift
    trace = float(np.trace(product.s) + np.trace(product.a))
    if not (np.isfinite(trace) and trace > 0):
        raise ConditioningError(f"MPS norm is not positive and finite (trace {trace:.3e} * 2^{exponent})")
    return trace, exponent


def _unit_scaled(state):
    """Copy of state scaled exactly to <psi|psi> in [1/2, 2]: tensor k times
    2^((M + k) // N), powers that sum to M = -round(log2 <psi|psi> / 2)."""
    trace, exponent = _ring_trace(state)
    n, shift = state.n_sites, -round((np.log2(trace) + exponent) / 2)
    return MpsState(n, state.chi, np.ldexp(state.tensors, (shift + np.arange(n))[:, None, None, None] // n))


def energy(state, j_coupling=1.0):
    """Rayleigh quotient <psi|H|psi>/<psi|psi> at any scale, on the environment of site 0."""
    state = _unit_scaled(state)
    _, env = next(_sweep_envs(state))
    heff, nenv = _site_matrices(env, state.chi, j_coupling)
    x = state.tensors[0].reshape(-1)
    return float(x @ heff @ x) / _gram(x, nenv)


@cache
def _fixed_start(n):
    """_START_MIX times a fixed pseudo-random unit vector of length n, drawn
    once per length (n <= 2 chi^2 in a sweep) and read-only."""
    fixed = np.random.default_rng(0).standard_normal(n)
    start = _START_MIX * fixed / np.linalg.norm(fixed)
    start.flags.writeable = False
    return start


def _lowest_eigenpair(a, y0):
    """Lowest eigenpair (theta, y) of the symmetric matrix a and the number of
    matrix-vector products, by `lanczos.lowest_ritz_pair`.

    The start is y0 plus _START_MIX of a fixed pseudo-random unit vector (the
    fixed vector alone when y0 = 0), so that an eigenvector orthogonal to y0
    is still in reach. The step budget is the dimension, so the run always
    ends converged: at _RITZ_TOL or on the whole space.
    """
    size = np.abs(a).max()
    a = a / size if size > 0 else a  # unit scale: no under- or overflow in the norms
    n = a.shape[0]
    norm0 = np.linalg.norm(y0)
    start = _fixed_start(n) + (y0 / norm0 if norm0 > 0 else 0.0)
    thetas, y, steps, _ = lowest_ritz_pair(a.dot, start, _RITZ_TOL, n)
    return float(thetas[0] * size), y, steps


def _solve_site(heff, nenv, x_old):
    """Lowest generalized eigenpair in the whitened Gram metric.

    N_eff = I_2 (x) nenv, and the Cholesky factor of the shifted nenv = C C^T
    gives W = I_2 (x) C^-T, every direction kept (LinAlgError if not positive
    definite). The whitened matrix is assembled from the chi^2 blocks C^-1
    H_ss' C^-T of H_00, H_11 and H_10 (H_01 = H_10^T), and Lanczos starts
    from x_old's coordinates C^T x_old. Returns the site vector and steps.
    """
    dim = nenv.shape[0]
    shift = _NEFF_EPS * np.trace(nenv) / dim
    c = np.linalg.cholesky(nenv + shift * np.eye(dim))
    w = np.linalg.inv(c).T
    h00, h11 = w.T @ heff[:dim, :dim] @ w, w.T @ heff[dim:, dim:] @ w
    ht = np.empty((2 * dim, 2 * dim))
    ht[:dim, :dim], ht[dim:, dim:] = 0.5 * (h00 + h00.T), 0.5 * (h11 + h11.T)
    ht[dim:, :dim] = w.T @ heff[dim:, :dim] @ w
    ht[:dim, dim:] = ht[dim:, :dim].T  # heff is symmetric, so H_01 = H_10^T
    y0 = x_old.reshape(2, dim) @ c
    _, y, steps = _lowest_eigenpair(ht, y0.reshape(-1))
    return (y.reshape(2, dim) @ w.T).reshape(-1), steps


def optimize_site(state, site, j_coupling=1.0, env=None):
    """Replace one site tensor by the locally optimal one; returns a SiteUpdate.

    Mutates state in place. The update's energy is the new global Rayleigh
    quotient (equal to the generalized eigenvalue of the local problem).
    Below the last site, the new tensor's QR over (s a, b) leaves Q there and
    R A^s at site + 1: the same state, in the left-canonical gauge that keeps
    the next Gram matrix well conditioned. env is the site's ring environment
    block; when not given, the sweep's environment generator is run up to it.
    """
    if not 0 <= site < state.n_sites:
        raise IndexError(f"site {site} out of range for n_sites={state.n_sites}")
    if env is None:
        env = next(e for k, e in _sweep_envs(state) if k == site)
    heff, nenv = _site_matrices(env, state.chi, j_coupling)
    x, steps = _solve_site(heff, nenv, state.tensors[site].reshape(-1))
    n2 = _gram(x, nenv)
    if not np.isfinite(n2) or n2 <= 0:
        raise ConditioningError(f"updated site has non-positive norm {n2:.3e}")
    a = (x / np.sqrt(n2)).reshape(2 * state.chi, state.chi)
    if site + 1 < state.n_sites:
        a, r = np.linalg.qr(a)
        state.tensors[site + 1] = r @ state.tensors[site + 1]
    state.tensors[site] = a.reshape(2, state.chi, state.chi)
    return SiteUpdate(float(x @ heff @ x) / n2, steps)


def sweep_optimize(state, j_coupling=1.0, n_sweeps=40):
    """Sequential site-by-site optimization, n_sweeps full forward passes.

    Returns the optimized unit-scaled copy and one SweepReport per sweep, which
    sums the Lanczos steps of that sweep's SiteUpdates.
    """
    if n_sweeps < 1:
        raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
    state = _unit_scaled(state)
    reports = []
    for sweep in range(n_sweeps):
        updates = [optimize_site(state, site, j_coupling, env) for site, env in _sweep_envs(state)]
        e_sweep = updates[-1].energy
        change = e_sweep - reports[-1].energy if reports else np.nan
        reports.append(SweepReport(sweep, e_sweep, change, sum(u.steps for u in updates)))
    return state, reports


def correlation_matrix(state):
    """All <Sz_i Sz_j> entries at any scale, using prefix products and closing factors.

    Entry (i < j) is tr(X Y)/<psi|psi>, X = E_0..Ez_i..E_{j-1} and Y = Ez_j
    E_{j+1}..E_{N-1}; Y^T is precomputed per j and tr(X Y) = sum(X * Y^T),
    summed over the two sectors, as every factor is even.
    """
    state = _unit_scaled(state)
    n, transfers = state.n_sites, [_transfers(a, _OPS[:2]) for a in state.tensors]
    traces, n2 = np.zeros((n, n)), 0.0
    for sector in ("s", "a"):
        e, ez = ([getattr(t[o], sector) for t in transfers] for o in (0, 1))
        closing, suffix = [None] * n, np.eye(len(e[0]))
        for m in range(n - 1, -1, -1):
            closing[m] = np.ascontiguousarray((ez[m] @ suffix).T)
            suffix = e[m] @ suffix
        n2 += float(np.trace(suffix))
        prefix = np.eye(len(e[0]))
        left, spare = np.empty_like(prefix), np.empty_like(prefix)  # X for j and j + 1
        for i in range(n - 1):
            np.matmul(prefix, ez[i], out=left)
            for j in range(i + 1, n):
                traces[i, j] += float(np.vdot(left, closing[j]))
                if j + 1 < n:
                    np.matmul(left, e[j], out=spare)
                    left, spare = spare, left
            prefix = prefix @ e[i]
    if not (np.isfinite(n2) and np.isfinite(traces).all()):
        raise ConditioningError("transfer products overflow (site scales far apart)")
    out = (traces + traces.T) / n2
    np.fill_diagonal(out, 0.25)
    return out
