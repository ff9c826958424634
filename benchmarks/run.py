#!/usr/bin/env python3
"""Benchmark of the three spinsvd CLI pipelines, end to end and per layer.

Run from the repository root:

  python3 benchmarks/run.py --workload mps-ring64 --seed 1 --seconds 40 --trace 0
  python3 benchmarks/run.py --workload ed-ring20 --seed 1 --seconds 40 --trace 1
  python3 benchmarks/run.py --smoke

Every CLI command runs as a fresh child process (`python -m spinsvd.cli`,
package taken from ./src) with BLAS threads pinned in the child's
environment only. One client runs the workload's commands one after the
other (a closed loop) and repeats the whole pipeline until --seconds is
used up. Outputs are checked after each command; a command that exits
nonzero or fails a check counts as a failed operation.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: it runs the pipeline both plainly and through
traced_cli.py (spans around the public calls of each module) and adds the
standalone timings of probe.py. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# set in the children's environment only: MPS energies move at ~1e-8 with the thread count
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
DEADLINE_S = 165.0  # children still running then are killed; a run ends within 180 s
SETUP_REPEATS = 5
TRACE_SHARE = 0.5  # share of --seconds given to plain passes in a traced run
REFERENCE_SWEEPS = 40

# Ground-state energy of the 20-site ring (Lanczos, spinsvd.exact); the
# ed-ring20 solve must reproduce it to 1e-10.
ED20_ENERGY = -8.90438652987644
ED8_ENERGY = -3.65109340893718
# E0/N of the periodic ring rises with N toward 1/4 - ln 2, so the N = 20
# value is a safe variational floor for any MPS energy per site at N > 20.
MPS_FLOOR_PER_SITE = -0.44522
CHECK_TOL = 1e-10

WORKLOADS = {
    "mps-ring64": {"kind": "mps", "n": 64, "chi": 10, "sweeps": 1, "floor": MPS_FLOOR_PER_SITE,
                   "analyze": ["--components", "1,2,4,8,16", "--fit", "--domains", "--haar"]},
    "ed-ring20": {"kind": "ed", "n": 20, "energy": ED20_ENERGY, "analyze": []},
    "thermal-ring12": {"kind": "thermal", "n": 12, "betas": (100, 10, 3, 1),
                       "energy_beta": 10, "analyze": []},
}
# the smoke test: tiny sizes through the same harness
SMOKE = {
    "mps-ring8": {"kind": "mps", "n": 8, "chi": 4, "sweeps": 1,
                  "floor": ED8_ENERGY / 8, "analyze": ["--components", "1,2,4", "--domains", "--haar"]},
    "ed-ring8": {"kind": "ed", "n": 8, "energy": ED8_ENERGY, "analyze": []},
    "thermal-ring6": {"kind": "thermal", "n": 6, "betas": (10, 1), "energy_beta": 10, "analyze": []},
}
INVALID_SOLVE = ["solve", "--method", "ed", "--n", "7"]

# fresh-process set-up: import spinsvd and build the solver inputs
SETUP_CODE = {
    "ed": "import numpy, spinsvd as s\n"
          "b = s.enumerate_sector({n}, 0)\n"
          "s.apply_hamiltonian(s.Wavefunction(b, numpy.ones(b.dim)))\n",
    "mps": "import spinsvd as s\ns.random_init({n}, {chi}, {seed})\n",
    "thermal": "import spinsvd as s\n"
               "for k in range({n} + 1):\n    s.enumerate_sector({n}, k - {n} // 2)\n",
}
ENV_CODE = """\
import json, sys, numpy, scipy, spinsvd
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
    blas = "unknown"
print(json.dumps({"spinsvd_path": spinsvd.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    """One run of the workload's commands, in order."""

    steps: dict = field(default_factory=dict)  # label -> (command, Child)
    energy_per_site: float | None = None
    state_bytes: int = 0
    csv_bytes: int = 0
    spans: list = field(default_factory=list)  # one span list per traced child

    @property
    def wall(self):
        return sum(child.wall for _, child in self.steps.values())


def median(xs):
    return statistics.median(xs) if xs else 0.0


def step_median(passes, attr, command=None):
    """Sum over the pipeline's steps of each step's median across passes.

    On a shared host the CPU speed changes in episodes of seconds; a median
    per step takes more, shorter samples than a median of whole passes.
    """
    labels = [label for label, (cmd, _) in passes[0].steps.items() if command in (None, cmd)]
    return sum(median([getattr(p.steps[label][1], attr) for p in passes if label in p.steps]) for label in labels)


def child_env():
    env = dict(os.environ, **THREAD_PIN)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def pipeline_steps(cfg, seed, d):
    """[(command, label, cli args)] for one pass of a workload into dir d."""
    n = str(cfg["n"])
    if cfg["kind"] == "thermal":
        steps = [("corr", f"corr_b{b}", ["corr", "--beta", str(b), "--n", n, "--out", d / f"corr_b{b}"])
                 for b in cfg["betas"]]
        matrix = d / f"corr_b{cfg['energy_beta']}" / "matrix.csv"
    else:
        solve = ["solve", "--method", cfg["kind"], "--n", n, "--seed", str(seed), "--out", d / "solve"]
        if cfg["kind"] == "mps":
            solve += ["--chi", str(cfg["chi"]), "--sweeps", str(cfg["sweeps"])]
        steps = [("solve", "solve", solve),
                 ("corr", "corr", ["corr", "--state", d / "solve" / "state.json", "--out", d / "corr"])]
        matrix = d / "corr" / "matrix.csv"
    steps.append(("analyze", "analyze", ["analyze", "--matrix", matrix, *cfg["analyze"], "--out", d / "analyze"]))
    return [(cmd, label, [str(a) for a in args]) for cmd, label, args in steps]


def check_step(cfg, command, out_dir):
    """None if the command's outputs pass, else the reason they do not."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if command == "solve":
            e = manifest["energy"]
            if cfg["kind"] == "ed" and abs(e - cfg["energy"]) > CHECK_TOL:
                return f"ED energy {e!r} differs from reference {cfg['energy']!r}"
            if cfg["kind"] == "mps" and e / cfg["n"] < cfg["floor"]:
                return f"MPS energy per site {e / cfg['n']!r} below the floor {cfg['floor']}"
            return None
        tc = manifest["trace_check"]
        if abs(tc["sum_sqrt_lambda"] - cfg["n"] / 4) > CHECK_TOL:
            return f"trace check: sum sqrt(lambda) = {tc['sum_sqrt_lambda']!r}, N/4 = {cfg['n'] / 4}"
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable outputs: {exc!r}"
    return None


def csv_digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def thermal_energy_per_site(matrix_csv):
    """3 x mean nearest-neighbour <Sz_i Sz_i+1>: exact for an SU(2)-symmetric state."""
    rows = [[float(v) for v in line.split(",")] for line in matrix_csv.read_text().split()]
    n = len(rows)
    return 3.0 * sum(rows[i][(i + 1) % n] for i in range(n)) / n


class Runner:
    """Starts the children, counts operations and keeps the reference outputs."""

    def __init__(self, rundir, deadline):
        self.rundir = rundir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = {}  # (workload, label) -> CSV digests of the first pass
        self.passes_started = 0

    def run_child(self, argv, log_path):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Child(-1, 0.0, 0.0, 0.0)
        t0 = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def python(self, code, name):
        """Run python -c code; (Child, stdout text)."""
        log = self.rundir / f"{name}.log"
        child = self.run_child([sys.executable, "-c", code], log)
        return child, log.read_text()

    def operation(self, key, argv, log, check):
        """Run one counted operation; check() gives None or why its outputs fail."""
        self.attempted += 1
        child = self.run_child(argv, log)
        reason = f"exit code {child.code}" if child.code != 0 else check()
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{key}: {reason}")
        return child

    def run_pass(self, name, cfg, seed, traced):
        k = self.passes_started
        self.passes_started += 1
        d = self.rundir / f"{name}-p{k}"
        d.mkdir()
        result = Pass()
        for command, label, args in pipeline_steps(cfg, seed, d):
            out_dir = Path(args[args.index("--out") + 1])
            spans_path = d / f"{label}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                        f"{name}/seed{seed}/pass{k}", "--", *args]
            else:
                argv = [sys.executable, "-m", "spinsvd.cli", *args]

            def check():
                reason = check_step(cfg, command, out_dir)
                if reason is None:
                    digests = csv_digests(out_dir)
                    ref = self.reference.setdefault((name, label), digests)
                    if digests != ref:
                        reason = "CSV bytes differ from the first pass of this run"
                return reason

            child = self.operation(f"{name} pass {k} {label}", argv, d / f"{label}.log", check)
            result.steps[label] = (command, child)
            if traced and spans_path.exists():
                result.spans.append(json.loads(spans_path.read_text()))
        self._record_outputs(cfg, d, result)
        return result

    def _record_outputs(self, cfg, d, result):
        try:
            if cfg["kind"] == "thermal":
                result.energy_per_site = thermal_energy_per_site(
                    d / f"corr_b{cfg['energy_beta']}" / "matrix.csv")
            else:
                result.energy_per_site = json.loads((d / "solve" / "manifest.json").read_text())["energy"] / cfg["n"]
                result.state_bytes = (d / "solve" / "state.json").stat().st_size
        except (OSError, KeyError, ValueError, IndexError):
            pass  # already counted as a failed operation
        result.csv_bytes = sum(p.stat().st_size for p in d.rglob("*.csv"))

    def loop(self, name, cfg, seed, seconds, traced, min_passes):
        """Repeat the pipeline while the next pass still fits in seconds."""
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(self.run_pass(name, cfg, seed, traced))
            typical = statistics.median(p.wall for p in passes)
            now = time.monotonic()
            if now + typical > self.deadline:
                break
            if len(passes) >= min_passes and now - t0 + typical > seconds:
                break
        return passes


def environment(runner):
    """Versions and BLAS set-up as the children see them; None if spinsvd is not ./src."""
    child, out = runner.python(ENV_CODE, "env")
    if child.code != 0:
        return None
    env = json.loads(out.strip().splitlines()[-1])
    if Path(env["spinsvd_path"]).resolve().parent != (SRC / "spinsvd").resolve():
        return None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "spinsvd").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    env.update(commit=commit, source_sha256=digest.hexdigest()[:16], nproc=os.cpu_count(), thread_pin=THREAD_PIN)
    return env


def spans_named(p, name):
    return [s for child in p.spans for s in child if s["name"] == name]


def span_total(p, name):
    return sum(s["end"] - s["start"] for s in spans_named(p, name))


def end_to_end(setup, passes, runner):
    energy = [p.energy_per_site for p in passes if p.energy_per_site is not None]
    return {
        "pipeline_s": step_median(passes, "wall"),
        "setup_s": median([c.wall for c in setup]),
        "cpu_s": step_median(passes, "cpu"),
        "peak_rss_mb": max(child.rss_mb for p in passes for _, child in p.steps.values()),
        "neg_energy_per_site": -median(energy),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def lanczos_split(p):
    """(lanczos seconds, matvec calls inside it, self time outside the matvecs)."""
    total, calls, self_time = 0.0, 0, 0.0
    for child in p.spans:
        by_id = {s["id"]: s for s in child}
        for s in child:
            if s["name"] == "exact.lanczos":
                total += s["end"] - s["start"]
                self_time += s["end"] - s["start"]
            elif s["name"] == "basis.matvec" and s["parent"] is not None \
                    and by_id[s["parent"]]["name"] == "exact.lanczos":
                calls += 1
                self_time -= s["end"] - s["start"]
    return total, calls, self_time


def per_layer(plain, traced, probe):
    m = {"cli.import_s": median([s["end"] - s["start"] for p in traced for s in spans_named(p, "cli.import")])}
    for command in ("solve", "corr", "analyze"):
        m[f"cli.{command}_s"] = step_median(plain, "wall", command)
    for name in ("save_state", "load_state", "write_matrix_csv", "read_matrix_csv"):
        m[f"cli.{name}_s"] = median([span_total(p, f"cli.{name}") for p in traced])
    m["cli.state_bytes"] = plain[0].state_bytes
    m["cli.csv_bytes"] = plain[0].csv_bytes

    for key in ("basis.enumerate_sector_s", "basis.tables_s", "basis.matvec_s"):
        m[key] = probe[key]

    split = [lanczos_split(p) for p in traced]
    m["exact.lanczos_s"] = median([s[0] for s in split])
    m["exact.lanczos_iterations"] = median([sum(s["iterations"] for s in spans_named(p, "exact.lanczos"))
                                            for p in traced])
    m["exact.matvec_calls"] = median([s[1] for s in split])
    m["exact.reorth_s"] = median([s[2] for s in split])
    m["exact.lanczos_peak_alloc_mb"] = median(
        [sum(s["peak_alloc_bytes"] for s in spans_named(p, "exact.lanczos")) / 2**20 for p in traced])
    m["exact.full_spectrum_s"] = median([span_total(p, "exact.full_spectrum") for p in traced])

    def sweep_s(p):
        sweeps = sum(s["sweeps"] for s in spans_named(p, "mps.sweep_optimize"))
        return span_total(p, "mps.sweep_optimize") / sweeps if sweeps else 0.0

    sites = [spans_named(p, "mps.optimize_site") for p in traced]
    rejects = [sum(s["rejected"] for s in ss) for ss in sites]
    m["mps.random_init_s"] = probe["mps.random_init_s"]
    m["mps.sweep_s"] = median([sweep_s(p) for p in traced])
    m["mps.optimize_site_s"] = median([median([s["end"] - s["start"] for s in ss]) for ss in sites])
    m["mps.optimize_site_calls"] = median([len(ss) for ss in sites])
    m["mps.guard_rejects"] = median(rejects)
    m["mps.guard_accept_ratio"] = median([1.0 - r / len(ss) for r, ss in zip(rejects, sites) if ss])
    m["mps.energy_s"] = probe["mps.energy_s"]
    m["mps.local_solve_s"] = probe["mps.local_solve_s"]
    m["mps.reference_run_s"] = REFERENCE_SWEEPS * m["mps.sweep_s"]

    for name in ("build_from_mps", "build_from_wavefunction", "build_thermal"):
        m[f"corr.{name}_s"] = median([span_total(p, f"corr.{name}") for p in traced])
    for name in ("eigendecompose", "component", "fit_scaling", "measure_domain_size", "haar_transform"):
        m[f"svd_analysis.{name}_s"] = median([span_total(p, f"svd_analysis.{name}") for p in traced])

    m["trace.overhead_s"] = step_median(traced, "wall") - step_median(plain, "wall")
    return m


def report(declared, values):
    """The metrics object of the result line, in the order and units BENCHMARK.json declares."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]} for d in declared}


def describe(passes, label):
    """One line: pass count and every step's wall time in each pass."""
    samples = {lab: [round(p.steps[lab][1].wall, 4) for p in passes] for lab in passes[0].steps}
    return f"{label}: {len(passes)} passes, step wall times (s) {json.dumps(samples)}"


def probe(runner, seed):
    """The standalone layer timings of probe.py, from a fresh process."""
    out = runner.rundir / "probe.json"
    child = runner.run_child([sys.executable, str(HERE / "probe.py"), str(out), str(seed)], runner.rundir / "probe.log")
    if child.code != 0:
        raise RuntimeError(f"probe.py exited with code {child.code}")
    return json.loads(out.read_text())


def measure(args, runner, spec):
    name = args.workload
    cfg = WORKLOADS[name]
    load_before = os.getloadavg()
    if args.trace:
        plain = runner.loop(name, cfg, args.seed, args.seconds * TRACE_SHARE, traced=False, min_passes=1)
        traced = runner.loop(name, cfg, args.seed, args.seconds * (1 - TRACE_SHARE), traced=True, min_passes=1)
        values = per_layer(plain, traced, probe(runner, args.seed))
        declared = spec["per_layer"]
        print(describe(plain, "untraced pipeline"))
        print(describe(traced, "traced pipeline"))
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s per pipeline")
    else:
        t0 = time.monotonic()
        setup_code = SETUP_CODE[cfg["kind"]].format(seed=args.seed, **cfg)
        setup = [runner.python(setup_code, f"setup{i}")[0] for i in range(SETUP_REPEATS)]
        if any(c.code != 0 for c in setup):
            raise RuntimeError("a set-up process failed")
        plain = runner.loop(name, cfg, args.seed, args.seconds - (time.monotonic() - t0), traced=False, min_passes=2)
        values = end_to_end(setup, plain, runner)
        declared = spec["end_to_end"]
        print(describe(plain, "pipeline_s = sum over steps of the median step time"))
        print(f"setup: {SETUP_REPEATS} fresh processes, " + ", ".join(f"{c.wall:.4f} s" for c in setup))
        print(f"energy_per_site {-values['neg_energy_per_site']:.12f} J")
        print(f"fail_frac {1.0 - values['ok_frac']:.4f} 1")
    for d in declared:
        print(f"{d['name']} {values[d['name']]:.6g} {d['unit']}")
    return values, declared, load_before


def smoke(runner, seed, spec):
    """Tiny sizes through the same harness, plus one invalid command."""
    probe_values = probe(runner, seed)
    for name, cfg in SMOKE.items():
        plain = runner.loop(name, cfg, seed, 0, traced=False, min_passes=2)
        traced = runner.loop(name, cfg, seed, 0, traced=True, min_passes=1)
        layers = report(spec["per_layer"], per_layer(plain, traced, probe_values))
        print(describe(plain, f"{name} untraced") + "; " + describe(traced, "traced")
              + f"; {len(layers)} per-layer metrics")
        if cfg["kind"] == "mps" and layers["mps.optimize_site_calls"]["value"] != cfg["n"] * cfg["sweeps"]:
            runner.failures.append(f"{name}: traced run recorded the wrong number of optimize_site calls")
    clean = not runner.failures
    before = runner.failed
    invalid = [sys.executable, "-m", "spinsvd.cli", *INVALID_SOLVE, "--out", str(runner.rundir / "invalid")]
    runner.operation("invalid solve --n 7", invalid, runner.rundir / "invalid.log", lambda: None)
    counted = runner.failed == before + 1
    print(f"fail_frac {runner.failed / runner.attempted:.4f} 1 ({runner.failed} of {runner.attempted} operations)")
    for line in runner.failures:
        print(f"failure: {line}")
    ok = clean and counted
    print(f"smoke test {'passed' if ok else 'FAILED'}: valid operations all passed: {clean}; "
          f"the invalid command counted as failed: {counted}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and one invalid command")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "spinsvd" / "cli.py").is_file():
        print(f"error: no spinsvd sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    RUNS.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    runner = Runner(rundir, time.monotonic() + DEADLINE_S)
    try:
        env = environment(runner)
        if env is None:
            print(f"error: cannot import spinsvd from {SRC}", file=sys.stderr)
            return 2
        if args.smoke:
            return 0 if smoke(runner, args.seed, spec) else 1
        values, declared, load_before = measure(args, runner, spec)
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   loadavg_before=load_before, loadavg_after=os.getloadavg())
        print("env " + json.dumps(env, sort_keys=True))
        for line in runner.failures:
            print(f"failure: {line}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": report(declared, values),
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
