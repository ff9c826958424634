"""Standalone timings of single spinsvd calls at the reference shapes.

Usage: python3 probe.py OUT_JSON SEED

Times, in one fresh process and through public calls only:
  basis.enumerate_sector_s  enumerate_sector(20, 0), median of 3
  basis.tables_s            first apply_hamiltonian at N = 20 (builds the
                            bond tables) minus the warm median
  basis.matvec_s            warm apply_hamiltonian at N = 20, median of 5
  mps.random_init_s         random_init(64, 10, seed), median of 3
  mps.energy_s              energy() of that state, median of 5
  mps.local_solve_s         optimize_site(copy, 0) median minus energy_s
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def timed(fn, repeats):
    """(median seconds, last result) over repeats calls."""
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


def main(out_path, seed):
    import numpy as np

    from spinsvd import basis, mps

    out = {}
    out["basis.enumerate_sector_s"], b = timed(lambda: basis.enumerate_sector(20, 0), 3)
    wf = basis.Wavefunction(b, np.full(b.dim, b.dim**-0.5))
    cold, _ = timed(lambda: basis.apply_hamiltonian(wf), 1)
    out["basis.matvec_s"], _ = timed(lambda: basis.apply_hamiltonian(wf), 5)
    out["basis.tables_s"] = cold - out["basis.matvec_s"]

    out["mps.random_init_s"], state = timed(lambda: mps.random_init(64, 10, seed), 3)
    out["mps.energy_s"], _ = timed(lambda: mps.energy(state), 5)
    site_s, _ = timed(lambda: mps.optimize_site(state.copy(), 0), 5)
    out["mps.local_solve_s"] = site_s - out["mps.energy_s"]

    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
