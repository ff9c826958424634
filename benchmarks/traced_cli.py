"""Run one spinsvd CLI command with spans around the package's public calls.

Usage: python3 traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...

The process imports spinsvd, wraps the public functions listed in
``_install`` at the module attributes the CLI calls them through, runs
``spinsvd.cli.main(CLI_ARGS)`` and exits with its return code. Each span
holds its name, start, end, parent span id and the run id; spans are kept
in memory and written to SPANS_JSON when the command ends. Counts ride on
the spans as extra keys (Lanczos iterations, sweeps, guard rejections).
The CLI's outputs are unchanged, so the harness byte-compares them with
untraced runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

SPANS = []
_open = []
RUN_ID = None


def _begin(name):
    rec = {
        "id": len(SPANS),
        "name": name,
        "start": time.perf_counter(),
        "end": None,
        "parent": _open[-1] if _open else None,
        "run": RUN_ID,
    }
    SPANS.append(rec)
    _open.append(rec["id"])
    return rec


def _end(rec):
    rec["end"] = time.perf_counter()
    _open.pop()


def _wrap(module, attr, name, before=None, after=None):
    """Replace module.attr by a spanned call; before/after add counts."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        ctx = before(args, kwargs) if before else None
        rec = _begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _end(rec)
        if after:
            rec.update(after(ctx, args, kwargs, result))
        return result

    setattr(module, attr, spanned)


def _install(cli, exact, mps, corr, svd_analysis):
    # cli and exact bind basis functions by name, so wrap them where called
    plain = [
        (cli, "save_state", "cli.save_state"),
        (cli, "load_state", "cli.load_state"),
        (cli, "write_matrix_csv", "cli.write_matrix_csv"),
        (cli, "read_matrix_csv", "cli.read_matrix_csv"),
        (cli, "enumerate_sector", "basis.enumerate_sector"),
        (exact, "enumerate_sector", "basis.enumerate_sector"),
        (exact, "dense_hamiltonian", "basis.dense_hamiltonian"),
        (exact, "apply_hamiltonian_to_array", "basis.matvec"),
        (exact, "full_spectrum", "exact.full_spectrum"),
        (mps, "random_init", "mps.random_init"),
        (corr, "build_from_mps", "corr.build_from_mps"),
        (corr, "build_from_wavefunction", "corr.build_from_wavefunction"),
        (corr, "build_thermal", "corr.build_thermal"),
        (svd_analysis, "eigendecompose", "svd_analysis.eigendecompose"),
        (svd_analysis, "component", "svd_analysis.component"),
        (svd_analysis, "fit_scaling", "svd_analysis.fit_scaling"),
        (svd_analysis, "measure_domain_size", "svd_analysis.measure_domain_size"),
        (svd_analysis, "haar_transform", "svd_analysis.haar_transform"),
    ]
    for module, attr, name in plain:
        _wrap(module, attr, name)

    def lanczos_before(args, kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()

    def lanczos_after(ctx, args, kwargs, sol):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"iterations": sol.iterations, "peak_alloc_bytes": peak}

    _wrap(exact, "lanczos_ground_state", "exact.lanczos", lanczos_before, lanczos_after)

    def sweep_after(ctx, args, kwargs, result):
        return {"sweeps": len(result[1])}

    _wrap(mps, "sweep_optimize", "mps.sweep_optimize", after=sweep_after)

    # the monotonic guard leaves the site tensor untouched when it rejects
    def site_before(args, kwargs):
        state, site = args[0], args[1]
        return state.tensors[site].copy()

    def site_after(old, args, kwargs, result):
        state, site = args[0], args[1]
        return {"rejected": bool((state.tensors[site] == old).all())}

    _wrap(mps, "optimize_site", "mps.optimize_site", site_before, site_after)


def main(argv):
    global RUN_ID
    spans_path, RUN_ID = argv[0], argv[1]
    cli_args = argv[3:] if argv[2] == "--" else argv[2:]
    code = 1
    try:
        rec = _begin("cli.import")
        from spinsvd import cli, corr, exact, mps, svd_analysis

        _end(rec)
        _install(cli, exact, mps, corr, svd_analysis)
        rec = _begin("cli.main")
        try:
            code = cli.main(cli_args)
        finally:
            _end(rec)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(SPANS, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
