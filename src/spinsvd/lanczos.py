"""Lowest Ritz pair of a symmetric operator by Lanczos iteration.

The one Lanczos loop of the package: the exact ground state (`exact`) and
the local problem of each MPS site update (`mps`) both run it.
"""

import math

import numpy as np

_CHECK_EVERY = 8  # Lanczos steps between tridiagonal eigensolves


def lowest_ritz_pair(matvec, start, tol, max_steps):
    """(thetas, y, steps, converged) of Lanczos on a symmetric operator.

    matvec maps a vector of len(start) to its image. The run starts from
    the normalized start, keeps every Krylov vector (min(max_steps, n) rows,
    no restart) and re-orthogonalizes each new one against all of them,
    twice. The tridiagonal matrix is diagonalized every _CHECK_EVERY steps,
    when the Krylov space closes (beta <= tol |A q|) and at the last step.
    The run is converged once the lowest pair's residual estimate
    beta |s_last,0| is at most tol times the largest |Ritz value|, or once
    the Krylov vectors span the whole space. thetas are all Ritz values,
    ascending, and y the lowest Ritz vector (unit norm up to rounding).
    """
    n = len(start)
    m = min(max_steps, n)
    q = np.empty((m, n))
    q[0] = start / math.sqrt(start @ start)
    alphas, betas = [], []
    for j in range(m):
        kept = q[: j + 1]
        w = matvec(q[j])
        alphas.append(float(q[j] @ w))
        scale = math.sqrt(w @ w)
        w -= kept.T @ (kept @ w)
        w -= kept.T @ (kept @ w)
        beta = math.sqrt(w @ w)
        if beta <= tol * scale or (j + 1) % _CHECK_EVERY == 0 or j + 1 == m:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            thetas, s = np.linalg.eigh(tri)
            converged = j + 1 == n or beta * abs(s[-1, 0]) <= tol * np.abs(thetas).max()
            if converged or j + 1 == m:
                return thetas, s[:, 0] @ kept, j + 1, converged
        q[j + 1] = w / beta
        betas.append(beta)
