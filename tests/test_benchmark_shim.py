"""The benchmark's span shim still finds every name it wraps.

benchmarks/traced_cli.py replaces package functions by module attribute
(`cli.enumerate_sector`, `exact.lanczos_ground_state`, ...). A refactor
that moves one of them makes the shim raise before the command runs; these
tests run it on small commands so that such a move fails here too. The
harness's smoke run covers the rest of what the benchmark calls: its set-up
code and benchmarks/probe.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spinsvd

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
SHIM = BENCH / "traced_cli.py"
SRC = str(Path(spinsvd.__file__).resolve().parents[1])


def traced_span_names(tmp_path, label, argv):
    """Run one CLI command through the shim; the set of span names it records."""
    spans = tmp_path / f"{label}.spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(SHIM), str(spans), label, "--", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {span["name"] for span in json.loads(spans.read_text())}


def test_traced_ed_solve_and_corr(tmp_path):
    solve = ["solve", "--method", "ed", "--n", "8", "--out", str(tmp_path / "solve")]
    assert traced_span_names(tmp_path, "solve", solve) == {
        "cli.import",
        "cli.main",
        "basis.enumerate_sector",
        "exact.lanczos",
        "basis.matvec",
        "cli.save_state",
    }
    corr = ["corr", "--state", str(tmp_path / "solve" / "state.json"), "--out", str(tmp_path / "corr")]
    assert traced_span_names(tmp_path, "corr", corr) == {
        "cli.import",
        "cli.main",
        "cli.load_state",
        "corr.build_from_wavefunction",
        "svd_analysis.eigendecompose",
        "cli.write_matrix_csv",
    }


def test_traced_mps_solve(tmp_path):
    argv = ["solve", "--method", "mps", "--n", "8", "--chi", "3", "--sweeps", "1"]
    assert traced_span_names(tmp_path, "solve", argv + ["--out", str(tmp_path / "solve")]) == {
        "cli.import",
        "cli.main",
        "mps.random_init",
        "mps.sweep_optimize",
        "mps.optimize_site",
        "cli.save_state",
    }


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], capture_output=True, text=True)
    assert proc.returncode == 0 and "smoke test passed" in proc.stdout, proc.stdout + proc.stderr
