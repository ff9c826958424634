"""Command-line surface: solve, corr, analyze, oracle4.

All numeric file outputs are deterministic: CSVs carry 17 significant
digits, manifests are JSON with sorted keys, heatmaps are binary PGM.
Exit codes: 0 success, 1 usage/input error (a request too large for memory
included), 2 numerical failure; each failure prints one `error:` line and no
traceback. Each command returns its files, its manifest fields and a label;
`main` alone creates --out and writes them, once every result exists, so a
rejected or failed command leaves no directory behind.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# The solver and analysis modules are imported by the commands that use
# them, so that each command loads only what it runs; calls go through their
# module attributes.
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateGroundStateError,
    InvalidSizeError,
)

# ED states hold a momentum block (representatives, k, amplitudes), MPS
# states the site tensors
STATE_FORMAT = "spinsvd-state-v2"
ED_CLI_CAP = 24


def __getattr__(name):
    # PEP 562: benchmarks/traced_cli.py wraps cli.enumerate_sector by name, so it
    # stays a cli attribute; only its first use imports spinsvd.basis
    if name != "enumerate_sector":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .basis import enumerate_sector

    return enumerate_sector


def _fmt(x):
    return f"{float(x):.17g}"


def write_matrix_csv(path, matrix):
    """One line of 17-significant-digit values per row, as `_fmt` writes them."""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")


def read_matrix_csv(path):
    rows = []
    with open(path) as fh:
        for number, line in enumerate(map(str.strip, fh), 1):
            try:
                if line:
                    rows.append([float(v) for v in line.split(",")])
                    if len(rows[-1]) != len(rows[0]):
                        raise ValueError(f"{len(rows[-1])} entries, the first row has {len(rows[0])}")
            except ValueError as exc:
                raise ValueError(f"matrix in {path}, line {number}: {exc}") from None
    m = np.array(rows)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix in {path} is not square: shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"matrix in {path} has non-finite entries")
    return m


def write_pgm(path, matrix):
    """Binary P5 graymap of |S| scaled to its maximum."""
    mag = np.abs(matrix)
    peak = mag.max()
    img = np.zeros(mag.shape, dtype=np.uint8) if peak == 0 else np.round(
        255 * mag / peak
    ).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def _json_text(payload):
    """Indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_manifest(path, payload):
    payload = {**payload, "timestamp": datetime.now(timezone.utc).isoformat()}
    Path(path).write_text(_json_text(payload))


def _write_text(path, text):
    Path(path).write_text(text)


def save_state(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


class _StateFile(dict):
    """The fields of a state file; reading one it lacks is an error naming the file."""

    def __missing__(self, key):
        raise ValueError(f"state file {self.path} lacks {key!r}")

    def integer(self, name, low):
        """self[name], checked to be a JSON integer (not a boolean) >= low."""
        value = self[name]
        if type(value) is not int or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        return value

    def numbers(self, name):
        """self[name] as a float array, checked to hold only finite JSON numbers."""
        if not _json_numbers(self[name]):
            raise ValueError(f"state has non-numeric {name}")
        values = np.array(self[name], dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"state has non-finite {name}")
        return values


def _json_numbers(value):
    """Whether value is a JSON number or nested lists of them: no strings or booleans."""
    if type(value) is not list:
        return type(value) in (int, float)
    if value and type(value[0]) is list:
        return all(map(_json_numbers, value))
    return set(map(type, value)) <= {int, float}


def load_state(path):
    """(fields, state) of a STATE_FORMAT file, every field the state needs checked.

    The state is the solver object that `corr` reads: an `MpsState`, or for
    ED the `Wavefunction` on its momentum block. That block is cut from the
    S_z = 0 sector's orbits, and the file's representatives must equal its
    configurations.
    """
    payload = json.loads(Path(path).read_text())
    if type(payload) is not dict or payload.get("format") != STATE_FORMAT:
        raise ValueError(f"unrecognized state format in {path}")
    fields = _StateFile(payload)
    fields.path = path
    if fields["method"] not in ("ed", "mps"):
        raise ValueError(f"state file {path} has method {fields['method']!r}, not 'ed' or 'mps'")
    n = fields.integer("n_sites", 1)
    if fields["method"] == "mps":
        from . import mps

        chi = fields.integer("chi", 1)
        tensors = fields.numbers("tensors")
        if tensors.shape != (n, 2, chi * chi):
            raise ValueError(f"tensors have shape {tensors.shape}, expected {(n, 2, chi * chi)}")
        state = mps.MpsState(n, chi, tensors.reshape(n, 2, chi, chi))
    else:
        from .basis import Wavefunction, enumerate_sector, translation_orbits

        if n > ED_CLI_CAP:
            raise InvalidSizeError(f"ed supports n <= {ED_CLI_CAP}, got {n}")
        k_over_pi = fields.integer("k_over_pi", 0)
        if k_over_pi > 1:
            raise ValueError(f"k_over_pi must be 0 or 1, got {k_over_pi}")
        basis = translation_orbits(enumerate_sector(n, 0)).block(k_over_pi * n // 2)
        reps = np.array(fields["representatives"])
        if reps.dtype != np.int64 or not np.array_equal(reps, basis.configs):
            raise ValueError(f"representatives are not the {basis.dim} orbits of the k_over_pi = {k_over_pi} block")
        amps = fields.numbers("amplitudes")
        if amps.shape != (basis.dim,):
            raise ValueError(f"{amps.size} amplitudes for {basis.dim} basis states")
        norm2 = float(amps @ amps)
        if abs(norm2 - 1.0) > 1e-10:
            raise ValueError(f"amplitudes have squared norm {norm2:.12g}, not 1")
        state = Wavefunction(basis, amps)
    j = fields["j"]
    if type(j) not in (int, float) or j == 0 or not -math.inf < j < math.inf:
        raise ValueError(f"j must be a finite nonzero number, got {j!r}")
    return fields, state


def _trace_check(spec):
    """The manifest's check of the correlation-matrix trace: sum sqrt(lambda) = N / 4."""
    return {"sum_sqrt_lambda": float(np.sum(spec.values)), "n_over_4": spec.n / 4}


def _cmd_solve(args):
    if args.n % 2 != 0 or args.n < 4:
        raise InvalidSizeError(f"--n must be even and >= 4, got {args.n}")

    state = {"format": STATE_FORMAT, "method": args.method, "n_sites": args.n, "j": args.j}
    if args.method == "ed":
        if args.n > ED_CLI_CAP:
            raise InvalidSizeError(f"ed supports n <= {ED_CLI_CAP}, got {args.n}")
        from . import exact

        sol = exact.momentum_ground_state(args.n, args.j, seed=args.seed)
        block = sol.wf.basis
        state.update(
            k_over_pi=block.k_over_pi,
            energy=sol.energy,
            residual_norm=sol.residual_norm,
            representatives=block.configs.tolist(),
            amplitudes=sol.wf.amps.tolist(),
        )
        extra = {
            "chi": None,
            "sweeps": None,
            "residual_norm": sol.residual_norm,
            "k_over_pi": block.k_over_pi,
            "block_dim": block.dim,
            "lanczos_iterations": sol.iterations,
            "ritz_gap": sol.gap,
        }
    else:
        from . import mps

        init = mps.random_init(args.n, args.chi, args.seed)
        opt, reports = mps.sweep_optimize(init, args.j, n_sweeps=args.sweeps)
        state.update(
            chi=args.chi,
            seed=args.seed,
            sweep_count=args.sweeps,
            energy=reports[-1].energy,
            tensors=opt.tensors.reshape(args.n, 2, -1).tolist(),
        )
        extra = {
            "chi": args.chi,
            "sweeps": args.sweeps,
            "final_energy_change": reports[-1].energy_change,
            "local_iterations": reports[-1].local_iterations,
        }

    manifest = {"method": args.method, "n_sites": args.n, "j": args.j, "seed": args.seed}
    manifest.update(extra, energy=state["energy"])
    return {"state.json": (save_state, state)}, manifest, f"energy {_fmt(state['energy'])}"


def _cmd_corr(args):
    from . import corr as corr_mod
    from . import svd_analysis

    if args.beta is not None:
        if args.n is None:
            raise ValueError("thermal mode needs --n")
        from . import exact

        j = args.j or 1.0  # --j is never 0
        cm = corr_mod.build_thermal(exact.full_spectrum(args.n, j), args.beta)
        meta = {"beta": args.beta, "n_sites": args.n, "method": "thermal", "j": j}
    else:
        if args.n is not None or args.j is not None:
            raise ValueError("--n and --j set the thermal ring: give them with --beta")
        if args.state is None:
            raise ValueError("need --state FILE or --beta with --n")
        fields, state = load_state(args.state)
        ed = fields["method"] == "ed"
        cm = (corr_mod.build_from_wavefunction if ed else corr_mod.build_from_mps)(state)
        meta = {"beta": None, **{key: fields[key] for key in ("n_sites", "method", "j")}}

    spec = svd_analysis.eigendecompose(cm)
    files = {"matrix.csv": (write_matrix_csv, cm.entries), "matrix.pgm": (write_pgm, cm.entries)}
    meta.update(provenance=cm.provenance, trace_check=_trace_check(spec))
    meta.update(row_sum_max=cm.row_sum_max(), circulant_deviation=cm.circulant_deviation())
    return files, meta, f"correlation matrix ({cm.provenance})"


def _cmd_analyze(args):
    from . import corr as corr_mod
    from . import svd_analysis

    matrix = read_matrix_csv(args.matrix)
    bad = [n for n in args.components or [] if not 1 <= n <= matrix.shape[0]]
    if bad:
        raise ValueError(f"--components must lie in 1..{matrix.shape[0]}, got {bad}")
    matrix = corr_mod._mirror(matrix)  # exact symmetry for eigh
    spec = svd_analysis.eigendecompose(matrix)
    with np.errstate(over="ignore"):
        squares = spec.values * spec.values
    if not np.isfinite(squares).all():
        raise ValueError(f"matrix in {args.matrix} is out of range: its squared spectrum overflows")
    rows = [f"{k},{_fmt(v)},{_fmt(v2)}\n" for k, (v, v2) in enumerate(zip(spec.values, squares), 1)]
    files = {"spectrum.csv": (_write_text, "n,sqrt_lambda,lambda\n" + "".join(rows))}
    for n in args.components or []:
        files[f"component_{n}.csv"] = (write_matrix_csv, svd_analysis.component(spec, n).matrix)
    if args.fit:
        files["fit.json"] = (_write_text, _json_text(asdict(svd_analysis.fit_scaling(spec))))
    if args.domains:
        found = [
            svd_analysis.measure_domain_size(v, n=n, threshold=args.domain_threshold)
            for n, v in enumerate(spec.vectors.T, 1)
        ]
        rows = [f"{d.n},{_fmt(d.wavenumber)},{_fmt(d.domain_size)},{d.wall_count}\n" for d in found]
        files["domains.csv"] = (_write_text, "n,k,L,wall_count\n" + "".join(rows))
    if args.haar:
        files["haar.csv"] = (write_matrix_csv, svd_analysis.haar_transform(matrix))
    fields = {"n_sites": spec.n, "matrix": str(args.matrix), "trace_check": _trace_check(spec)}
    return files, fields, "spectrum"


def _cmd_oracle4(args):
    from . import four_site

    text = _json_text(four_site.as_json_dict())
    if args.out:
        return {"oracle4.json": (_write_text, text)}, None, "reference values"
    print(text, end="")


def _parse_components(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _int_at_least(low):
    """An argparse type: an integer >= low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _finite_float(text, allowed, requirement):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and allowed(value)):
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
    return value


def _beta(text):
    return _finite_float(text, lambda v: v >= 0, "a finite number >= 0")


def _coupling(text):
    # every energy is |J| times a J = 1 value; the bounds keep it inside the float range
    return _finite_float(
        text, lambda v: 1e-300 <= abs(v) <= 1e300, "a number with 1e-300 <= |J| <= 1e300"
    )


def _domain_threshold(text):
    return _finite_float(text, lambda v: 0 <= v <= 1, "a number in [0, 1]")


class _Parser(argparse.ArgumentParser):
    """Usage errors print one error: line and exit 1; exit 2 is kept for numerics.
    Subparsers share the class, so each reads -1e-3 as a number, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="spinsvd",
        description="Heisenberg-ring ground/thermal states and correlation-matrix SVD analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a ground state (ED or MPS)")
    p_solve.add_argument("--method", choices=["ed", "mps"], required=True)
    p_solve.add_argument("--n", type=int, required=True, help="even chain length >= 4")
    p_solve.add_argument("--chi", type=_int_at_least(1), default=10)
    p_solve.add_argument("--sweeps", type=_int_at_least(1), default=40)
    p_solve.add_argument("--seed", type=_int_at_least(0), default=0)
    p_solve.add_argument("--j", type=_coupling, default=1.0)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_corr = sub.add_parser("corr", help="build the correlation matrix")
    mode = p_corr.add_mutually_exclusive_group()
    mode.add_argument("--state", help="checkpoint from solve")
    mode.add_argument("--beta", type=_beta, help="thermal mode (needs --n)")
    p_corr.add_argument("--n", type=int, help="chain length for thermal mode")
    p_corr.add_argument("--j", type=_coupling, help="coupling for thermal mode (default 1)")
    p_corr.add_argument("--out", required=True)
    p_corr.set_defaults(func=_cmd_corr)

    p_an = sub.add_parser("analyze", help="SVD spectrum, components, fits, domains")
    p_an.add_argument("--matrix", required=True, help="square symmetric CSV")
    p_an.add_argument("--components", type=_parse_components, default=None)
    p_an.add_argument("--fit", action="store_true")
    p_an.add_argument("--domains", action="store_true")
    p_an.add_argument("--haar", action="store_true")
    p_an.add_argument("--domain-threshold", type=_domain_threshold, default=0.1)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=_cmd_analyze)

    p_o4 = sub.add_parser("oracle4", help="dump 4-site reference values as JSON")
    p_o4.add_argument("--out", default=None)
    p_o4.set_defaults(func=_cmd_oracle4)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command returns ({file name: (writer, data)}, manifest fields or None, label);
        # what its UserWarnings say is in the manifest or fit.json, so they go unprinted
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = args.func(args)
        if result is not None:
            files, fields, label = result
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, (write, data) in files.items():
                write(out / name, data)
            if fields is not None:
                manifest = {"command": args.command, **fields, "artifacts": [*files]}
                write_manifest(out / "manifest.json", manifest)
            print(f"{label} -> {out / next(iter(files))}")
        return 0
    except (
        ConvergenceError,
        ConditioningError,
        DegenerateGroundStateError,
        np.linalg.LinAlgError,  # a ValueError subclass, so caught first
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InvalidSizeError,
        ValueError,
        OSError,
        KeyError,
        OverflowError,  # a JSON integer beyond the float range
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
