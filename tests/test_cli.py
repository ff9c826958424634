"""End-to-end CLI coverage: solve/corr/analyze/oracle4, errors, determinism."""

import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spinsvd
from spinsvd import cli, four_site, mps
from spinsvd.corr import CorrelationMatrix, build_from_wavefunction
from spinsvd.errors import ConditioningError, DegenerateGroundStateError


def run(argv):
    return cli.main(argv)


def test_solve_ed_n4(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--method", "ed", "--n", "4", "--out", str(out)]) == 0
    state = json.loads((out / "state.json").read_text())
    assert state["format"] == cli.STATE_FORMAT
    assert state["method"] == "ed"
    assert state["energy"] == pytest.approx(-2.0, abs=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["energy"] == pytest.approx(-2.0, abs=1e-10)


def test_solve_ed_manifest_records_the_block(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--method", "ed", "--n", "6", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["k_over_pi"] == 1  # the 6-site ground state has k = pi
    assert manifest["block_dim"] == 4
    assert manifest["lanczos_iterations"] >= 2
    assert manifest["residual_norm"] <= 1e-10
    # the block's two lowest levels: -1/2 - (1 + sqrt 13)/2 and -1/2
    assert manifest["ritz_gap"] == pytest.approx((1 + 13**0.5) / 2, abs=1e-9)
    state = json.loads((out / "state.json").read_text())
    assert state["k_over_pi"] == 1 and len(state["representatives"]) == 4
    assert "sz_total" not in state


def test_corr_reads_an_ed_state_that_still_carries_sz_total(tmp_path):
    # files written before the field was dropped give the same matrix
    payload = _ed_state(tmp_path)
    for name, extra in (("new", {}), ("old", {"sz_total": 0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**payload, **extra}))
        assert run(["corr", "--state", str(path), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "old" / "matrix.csv").read_bytes() == (tmp_path / "new" / "matrix.csv").read_bytes()


def assert_rejected(argv, out, capsys, may_succeed=False):
    """Exit 1, one error line on stderr, and no --out directory left behind;
    with may_succeed, exit 0 passes too."""
    try:
        code = run(argv + ["--out", str(out)])
    except SystemExit as exc:  # rejected while parsing the arguments
        code = exc.code
    if may_succeed and code == 0:
        capsys.readouterr()
        return None
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()
    return err


def test_solve_rejects_odd_n(tmp_path, capsys):
    assert_rejected(["solve", "--method", "ed", "--n", "5"], tmp_path / "run", capsys)


def test_solve_rejects_oversized_ed(tmp_path, capsys):
    assert_rejected(["solve", "--method", "ed", "--n", "26"], tmp_path / "run", capsys)


def test_solve_rejects_mps_too_large_for_memory(tmp_path, capsys):
    # random_init asks for 90.9 PiB at once, refused before anything is written
    argv = ["solve", "--method", "mps", "--n", "64", "--chi", "10000000"]
    assert "Unable to allocate" in assert_rejected(argv, tmp_path / "run", capsys)


def test_solve_ed_n24(tmp_path):
    solve_out, corr_out = tmp_path / "solve", tmp_path / "corr"
    assert run(["solve", "--method", "ed", "--n", "24", "--out", str(solve_out)]) == 0
    energy = json.loads((solve_out / "manifest.json").read_text())["energy"]
    # E0/N rises with N from its N = 20 value toward 1/4 - ln 2
    assert -8.90438652987644 / 20 < energy / 24 < 0.25 - np.log(2)
    assert run(["corr", "--state", str(solve_out / "state.json"), "--out", str(corr_out)]) == 0
    CorrelationMatrix(24, cli.read_matrix_csv(corr_out / "matrix.csv"), "ed-ground").validate()
    trace_check = json.loads((corr_out / "manifest.json").read_text())["trace_check"]
    assert abs(trace_check["sum_sqrt_lambda"] - 6.0) <= 1e-10


def test_solve_mps_long_ring(tmp_path):
    # the norm of 3000 random sites is far outside the float range before it is normalized
    out = tmp_path / "solve"
    argv = ["solve", "--method", "mps", "--n", "3000", "--chi", "2", "--sweeps", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    energy = json.loads((out / "manifest.json").read_text())["energy"]
    assert -8.90438652987644 / 20 < energy / 3000 < 0  # above the N = 20 ground state per site


@pytest.mark.parametrize("flag", ["--sweeps", "--chi"])
def test_solve_rejects_nonpositive_counts(tmp_path, capsys, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--method", "mps", "--n", "4", flag, "0", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["corr", "--beta", "inf", "--n", "6"], "--beta"),
        (["corr", "--beta", "nan", "--n", "6"], "--beta"),
        (["corr", "--beta", "-1", "--n", "6"], "--beta"),
        (["corr", "--beta", "1", "--n", "6", "--j", "0"], "--j"),
        (["solve", "--method", "ed", "--n", "6", "--j", "0"], "--j"),
        (["solve", "--method", "mps", "--n", "6", "--chi", "2", "--sweeps", "1", "--j", "nan"], "--j"),
        (["solve", "--method", "ed", "--n", "6", "--j", "1e301"], "--j"),
        (["solve", "--method", "mps", "--n", "6", "--chi", "2", "--j=-1e301"], "--j"),
        (["corr", "--beta", "1", "--n", "6", "--j", "1e-301"], "--j"),
    ],
    ids=[
        "beta-inf",
        "beta-nan",
        "beta-negative",
        "corr-j-zero",
        "ed-j-zero",
        "mps-j-nan",
        "ed-j-huge",
        "mps-j-huge",
        "corr-j-tiny",
    ],
)
def test_rejects_non_finite_or_zero_parameters(tmp_path, capsys, argv, flag):
    err = assert_rejected(argv, tmp_path / "run", capsys)
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "ed", "--n", "8", "--j", "-1e-3"],
        ["corr", "--beta", "1", "--n", "6", "--j", "-2e0"],
    ],
    ids=["solve", "corr"],
)
def test_negative_exponent_value_reads_as_a_number(tmp_path, argv):
    # "--j -1e-3" gives the same files as "--j=-1e-3", timestamp aside
    joined = [*argv[:-2], f"--j={argv[-1]}"]
    for name, args in (("split", argv), ("joined", joined)):
        assert run([*args, "--out", str(tmp_path / name)]) == 0
    files = sorted(p.name for p in (tmp_path / "split").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "joined").iterdir())
    for name in files:
        got = [(tmp_path / d / name).read_bytes() for d in ("split", "joined")]
        if name == "manifest.json":
            got = [{**json.loads(b), "timestamp": None} for b in got]
        assert got[0] == got[1], name


def test_corr_thermal_rejects_invalid_size(tmp_path, capsys):
    err = assert_rejected(["corr", "--beta", "1", "--n", "-4"], tmp_path / "th", capsys)
    assert err == "error: n_sites must be even and >= 4, got -4\n"


@pytest.mark.parametrize(
    "exc", [ConditioningError, DegenerateGroundStateError, np.linalg.LinAlgError]
)
def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("Gram matrix below cutoff")

    monkeypatch.setattr(mps, "sweep_optimize", fail)
    argv = ["solve", "--method", "mps", "--n", "4", "--chi", "2", "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: Gram matrix below cutoff\n"


def test_corr_from_ed_state_matches_four_site(tmp_path):
    solve_out = tmp_path / "solve"
    corr_out = tmp_path / "corr"
    run(["solve", "--method", "ed", "--n", "4", "--out", str(solve_out)])
    assert (
        run(["corr", "--state", str(solve_out / "state.json"), "--out", str(corr_out)])
        == 0
    )
    m = cli.read_matrix_csv(corr_out / "matrix.csv")
    assert np.max(np.abs(m - four_site.reference_correlation_matrix().entries)) < 1e-10
    assert (corr_out / "matrix.pgm").read_bytes().startswith(b"P5\n4 4\n255\n")
    manifest = json.loads((corr_out / "manifest.json").read_text())
    assert manifest["trace_check"]["sum_sqrt_lambda"] == pytest.approx(1.0, abs=1e-10)


def _ed_state(tmp_path, n=6):
    out = tmp_path / "solve"
    assert run(["solve", "--method", "ed", "--n", str(n), "--out", str(out)]) == 0
    return json.loads((out / "state.json").read_text())


def _write_state(tmp_path, payload):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "field,edit,message",
    [
        ("representatives", lambda reps: reps[::-1], "strictly increasing"),
        ("representatives", lambda reps: [reps[0], *reps[:-1]], "strictly increasing"),
        ("representatives", lambda reps: [*reps[:-1], reps[-1] | 1 << 5], "S_z = 0 sector"),
        ("representatives", lambda reps: [*reps[:-1], 0b101010], "translation orbit"),
        ("representatives", lambda reps: reps[:-1], "4 amplitudes for 3"),
        ("amplitudes", lambda amps: [float("nan"), *amps[1:]], "non-finite"),
        ("amplitudes", lambda amps: [float("inf"), *amps[1:]], "non-finite"),
        ("amplitudes", lambda amps: amps + [0.0], "5 amplitudes for 4"),
        ("n_sites", lambda n: str(n), "n_sites must be an integer"),
        ("n_sites", lambda n: 26, "n <= 24"),
        ("k_over_pi", lambda k: True, "k_over_pi must be an integer"),
        ("k_over_pi", float, "k_over_pi must be an integer"),
        ("k_over_pi", lambda k: 2, "k_over_pi must be 0 or 1"),
        ("amplitudes", lambda amps: [{}, *amps[1:]], "non-numeric amplitudes"),
        ("amplitudes", lambda amps: [str(amps[0]), *amps[1:]], "non-numeric amplitudes"),
        ("amplitudes", lambda amps: [*amps[:-1], True], "non-numeric amplitudes"),
        ("amplitudes", lambda amps: [*map(str, amps[:-1]), True], "non-numeric amplitudes"),
        ("amplitudes", lambda amps: [2 * a for a in amps], "squared norm 4"),
        ("amplitudes", lambda amps: [*amps[:-1], amps[-1] + 1e-9], "not 1"),
    ],
    ids=[
        "unsorted",
        "duplicate",
        "popcount",
        "not-representative",
        "short-reps",
        "nan-amp",
        "inf-amp",
        "long-amps",
        "n-string",
        "n-over-cap",
        "k-bool",
        "k-float",
        "k-two",
        "object-amp",
        "string-amp",
        "bool-amp",
        "strings-and-bool-amps",
        "unnormalized",
        "norm-off-by-1e-9",
    ],
)
def test_corr_rejects_malformed_v2_state(tmp_path, capsys, field, edit, message):
    payload = _ed_state(tmp_path)  # the 6-site k = pi block, representatives 7, 11, 13, 21
    payload[field] = edit(payload[field])
    capsys.readouterr()
    argv = ["corr", "--state", str(_write_state(tmp_path, payload))]
    assert message in assert_rejected(argv, tmp_path / "corr", capsys)


# the retired whole-sector format: the N = 4 ground state over the S_z = 0
# configurations 3, 5, 6, 9, 10, 12
_V1_STATE = {
    "format": "spinsvd-state-v1",
    "method": "ed",
    "n_sites": 4,
    "j": 1.0,
    "sz_total": 0,
    "amplitudes": [x / 12**0.5 for x in (1, -2, 1, 1, -2, 1)],
}


@pytest.mark.parametrize(
    "payload",
    [[1, 2], "x", None, {"format": "spinsvd-state-v0"}, _V1_STATE],
    ids=["list", "string", "null", "unknown-format", "v1"],
)
def test_corr_rejects_state_without_known_format(tmp_path, capsys, payload):
    path = _write_state(tmp_path, payload)
    err = assert_rejected(["corr", "--state", str(path)], tmp_path / "corr", capsys)
    assert err == f"error: unrecognized state format in {path}\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--j", "5"], "--n and --j set the thermal ring: give them with --beta"),
        (["--n", "6"], "--n and --j set the thermal ring: give them with --beta"),
        (["--beta", "1", "--n", "6"], "spinsvd corr: argument --beta: not allowed with argument --state"),
    ],
    ids=["j", "n", "beta"],
)
def test_corr_rejects_state_with_thermal_flags(tmp_path, capsys, flags, message):
    # a state fixes its own ring and coupling; the thermal flags are not silently dropped
    _ed_state(tmp_path)
    capsys.readouterr()
    argv = ["corr", "--state", str(tmp_path / "solve" / "state.json"), *flags]
    assert assert_rejected(argv, tmp_path / "corr", capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda p: p.update(method=None), "has method None, not 'ed' or 'mps'"),
        (lambda p: p.update(method="xyz"), "has method 'xyz', not 'ed' or 'mps'"),
        (lambda p: p.pop("method"), "lacks 'method'"),
        (lambda p: p.pop("chi"), "lacks 'chi'"),
    ],
    ids=["method-null", "method-xyz", "method-absent", "chi-absent"],
)
def test_corr_rejects_mps_state_without_method_or_field(tmp_path, capsys, edit, message):
    solve = ["solve", "--method", "mps", "--n", "4", "--chi", "2", "--sweeps", "1"]
    assert run(solve + ["--out", str(tmp_path / "solve")]) == 0
    payload = json.loads((tmp_path / "solve" / "state.json").read_text())
    edit(payload)
    path = _write_state(tmp_path, payload)
    capsys.readouterr()
    err = assert_rejected(["corr", "--state", str(path)], tmp_path / "corr", capsys)
    assert err == f"error: state file {path} {message}\n"


def test_corr_thermal_huge_beta_is_silent(tmp_path):
    # -beta (E - E0) overflows to -inf for every excited level: weight 0, no warning
    for beta in ("1e308", "1e3"):
        argv = ["-m", "spinsvd.cli", "corr", "--beta", beta, "--n", "4", "--out", str(tmp_path / beta)]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
    csv = [(tmp_path / beta / "matrix.csv").read_bytes() for beta in ("1e308", "1e3")]
    assert csv[0] == csv[1]


def test_corr_records_the_state_coupling(tmp_path):
    # --j is the thermal coupling; a state's own J goes into the corr manifest
    solve = ["solve", "--method", "ed", "--n", "6", "--j", "2", "--out", str(tmp_path / "solve")]
    assert run(solve) == 0
    corr = ["corr", "--state", str(tmp_path / "solve" / "state.json"), "--out", str(tmp_path / "corr")]
    assert run(corr) == 0
    assert json.loads((tmp_path / "corr" / "manifest.json").read_text())["j"] == 2.0


@pytest.mark.parametrize("j", [None, True, 0, "x", [], [1], {}], ids=repr)
def test_corr_rejects_state_without_valid_coupling(tmp_path, capsys, j):
    payload = {**_ed_state(tmp_path), "j": j}
    capsys.readouterr()
    argv = ["corr", "--state", str(_write_state(tmp_path, payload))]
    err = assert_rejected(argv, tmp_path / "corr", capsys)
    assert err == f"error: j must be a finite nonzero number, got {j!r}\n"


FUZZ_VALUES = [None, True, 0, -1, 2, 1.5, "x", [], [1], {}, 1e308]
_DELETE = object()


@pytest.fixture(scope="module")
def saved_states(tmp_path_factory):
    """Valid MPS (N = 4) and ED (N = 6) state files, as JSON objects."""
    tmp = tmp_path_factory.mktemp("states")
    solve = {
        "mps": ["--method", "mps", "--n", "4", "--chi", "2", "--sweeps", "1"],
        "ed": ["--method", "ed", "--n", "6"],
    }
    states = {}
    for kind, argv in solve.items():
        assert run(["solve", *argv, "--out", str(tmp / kind)]) == 0
        states[kind] = json.loads((tmp / kind / "state.json").read_text())
    return states


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corr_on_mutated_states_keeps_the_exit_contract(saved_states, tmp_path, capsys, data):
    # one or two fields of a valid state deleted or set to an odd JSON value
    payload = dict(saved_states[data.draw(st.sampled_from(sorted(saved_states)))])
    names = data.draw(st.lists(st.sampled_from(sorted(payload)), min_size=1, max_size=2, unique=True))
    for name in names:
        value = data.draw(st.sampled_from([_DELETE, *FUZZ_VALUES]))
        if value is _DELETE:
            del payload[name]
        else:
            payload[name] = value
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = ["corr", "--state", str(_write_state(run_dir, payload))]
    assert_rejected(argv, run_dir / "corr", capsys, may_succeed=True)


def run_quietly(argv):
    """The CLI in a fresh interpreter with every warning an error: (exit code, stderr)."""
    cmd = [sys.executable, "-W", "error", "-m", "spinsvd.cli", *map(str, argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "ed", "--n", "16", "--j", "1e3"],
        ["solve", "--method", "ed", "--n", "12", "--j", "1e-9"],
        ["solve", "--method", "mps", "--n", "16", "--chi", "4", "--sweeps", "1", "--j", "1e300"],
        ["corr", "--beta", "1e308", "--n", "6"],
    ],
    ids=["ed-j-1e3", "ed-j-1e-9", "mps-j-1e300", "beta-1e308"],
)
def test_extreme_valid_inputs_run_silently(tmp_path, argv):
    assert run_quietly(argv + ["--out", tmp_path / "out"]) == (0, "")
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "matrix,flags",
    [
        ("ed8", ["--fit"]),
        ("3x3", ["--haar"]),
        ("1e308", []),
        ("zero8", ["--fit"]),
        ("1.3e154", ["--fit"]),
    ],
    ids=[
        "fit-of-two-points",
        "haar-of-odd-size",
        "overflowing-spectrum",
        "fit-of-zero-matrix",
        "overflowing-fit-amplitude",
    ],
)
def test_analyze_failure_leaves_no_output(tmp_path, ground_n8, matrix, flags):
    # each result is computed before --out is made; the ED N = 8 spectrum has two
    # fit points, and the zero matrix none, whose exclusion warnings stay unprinted
    entries = {
        "ed8": build_from_wavefunction(ground_n8.wf).entries,
        "3x3": four_site.reference_correlation_matrix().entries[:3, :3],
        "1e308": 1e308 * np.eye(4),
        "zero8": np.zeros((8, 8)),
        "1.3e154": 1.3e154 * np.eye(10),  # lambda_n e^(n/N) beyond the float range
    }
    cli.write_matrix_csv(tmp_path / "m.csv", entries[matrix])
    code, err = run_quietly(["analyze", "--matrix", tmp_path / "m.csv", *flags, "--out", tmp_path / "an"])
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "an").exists()


def _mps_payload(big):
    """A valid N = 64, chi = 2 state whose transfer matrices hold entries near 2 big^2."""
    tensors = np.array([[[big, 0.1, 0.3, big]] * 2] * 64)
    payload = {"format": cli.STATE_FORMAT, "method": "mps", "n_sites": 64, "chi": 2, "j": 1.0}
    return {**payload, "tensors": tensors.tolist()}, tensors.reshape(64, 2, 2, 2)


@pytest.mark.parametrize("big", [1e5, 1e100])
def test_corr_rescales_an_unnormalized_mps_state(tmp_path, big):
    # the ring's norm is far beyond the float range, but the state is rescaled
    # exactly on entry and gives the matrix of its tensors over big
    payload, tensors = _mps_payload(big)
    out = tmp_path / "corr"
    assert run_quietly(["corr", "--state", _write_state(tmp_path, payload), "--out", out]) == (0, "")
    want = mps.correlation_matrix(mps.MpsState(64, 2, tensors / big))
    assert np.abs(cli.read_matrix_csv(out / "matrix.csv") - want).max() <= 1e-12


@pytest.mark.parametrize("big", [1e160, 1e200])
def test_corr_of_an_unnormalized_mps_state_exits_2(tmp_path, big):
    # 2 big^2 > 1.8e308: a single transfer matrix overflows, so no rescaling helps
    payload, _ = _mps_payload(big)
    out = tmp_path / "corr"
    code, err = run_quietly(["corr", "--state", _write_state(tmp_path, payload), "--out", out])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    assert "not positive and finite" in err
    assert not out.exists()


_ODD_TOKENS = ["", " ", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1,2"]


@st.composite
def analyze_inputs(draw):
    """(CSV text, analyze flags): a matrix of size 0-10, symmetric or not, with
    at most one fault in its text (a ragged row, a blank line, an odd token or
    a non-square shape)."""
    fault = draw(st.sampled_from([None, None, None, "ragged", "blank", "token", "non-square"]))
    rows = draw(st.integers(0, 10) | st.just(10))  # 10: the first size with three fit points
    cols = draw(st.integers(0, 10).filter(lambda c: c != rows)) if fault == "non-square" else rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 0.0, 1e-320, 1e150, 1e154, 1e308]))
    values = scale * rng.uniform(-1, 1, (rows, cols))
    for _ in range(draw(st.integers(0, 2)) if values.size else 0):
        at = rng.integers(rows), rng.integers(cols)
        values[at] = draw(st.sampled_from([0.0, 1e308, -1e308, 1e-320]))
    if rows == cols and draw(st.booleans()):
        values = np.triu(values) + np.triu(values, 1).T
    lines = [[f"{v:.17g}" for v in row] for row in values]
    if lines and fault in ("ragged", "blank", "token"):
        i = draw(st.integers(0, rows - 1))
        if fault == "ragged":
            lines[i].pop()
        elif fault == "blank":
            lines.insert(i, [])
        else:
            lines[i][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    text = "".join(",".join(line) + "\n" for line in lines)
    flags = []
    if draw(st.booleans()):
        rank = st.integers(1, max(rows, 1)) | st.sampled_from([0, rows + 1])  # in or out of range
        ranks = draw(st.lists(rank, min_size=1, max_size=3))
        flags += ["--components", ",".join(map(str, ranks))]
    flags += [flag for flag in ("--fit", "--domains", "--haar") if draw(st.booleans())]
    if draw(st.booleans()):
        flags += ["--domain-threshold", draw(st.sampled_from(["0", "0.1", "0.5", "1", "0.3", "2", "nan"]))]
    return text, flags


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(analyze_inputs())
def test_analyze_keeps_the_exit_contract(tmp_path, capsys, case):
    text, flags = case
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    (run_dir / "m.csv").write_text(text)
    out = run_dir / "an"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning that escapes main fails the example
        try:
            code = run(["analyze", "--matrix", str(run_dir / "m.csv"), *flags, "--out", str(out)])
        except SystemExit as exc:  # rejected while parsing the arguments
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert err == "" and (out / "manifest.json").exists()
    else:
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()


def test_corr_thermal_beta0(tmp_path):
    out = tmp_path / "th"
    assert run(["corr", "--beta", "0", "--n", "8", "--out", str(out)]) == 0
    m = cli.read_matrix_csv(out / "matrix.csv")
    assert np.array_equal(m, 0.25 * np.eye(8))


def test_corr_thermal_matrix_is_exactly_circulant(tmp_path):
    out = tmp_path / "th"
    assert run(["corr", "--beta", "10", "--n", "12", "--out", str(out)]) == 0
    provenance = json.loads((out / "manifest.json").read_text())["provenance"]
    cm = CorrelationMatrix(12, cli.read_matrix_csv(out / "matrix.csv"), provenance)
    assert cm.provenance == "thermal(beta=10)"
    cm.validate()  # checks circulant_deviation() <= 1e-12 for thermal matrices
    assert cm.circulant_deviation() == 0.0


def assert_imports_no_scipy(code):
    """Run code in a fresh interpreter and check that it loaded no scipy module."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # no scipy module loaded


def assert_cli_imports_no_scipy(argv):
    assert_imports_no_scipy(f"from spinsvd import cli\nassert cli.main({argv!r}) == 0")


def test_corr_thermal_imports_no_scipy(tmp_path):
    assert_cli_imports_no_scipy(["corr", "--beta", "1", "--n", "8", "--out", str(tmp_path / "th")])


def test_solve_ed_imports_no_scipy(tmp_path):
    assert_cli_imports_no_scipy(["solve", "--method", "ed", "--n", "10", "--out", str(tmp_path)])


def test_solve_mps_imports_no_scipy(tmp_path):
    argv = ["solve", "--method", "mps", "--n", "8", "--chi", "3", "--sweeps", "1"]
    assert_cli_imports_no_scipy(argv + ["--out", str(tmp_path)])


def test_sector_lanczos_imports_no_scipy():
    assert_imports_no_scipy(
        "from spinsvd.basis import enumerate_sector\n"
        "from spinsvd.exact import lanczos_ground_state\n"
        "lanczos_ground_state(enumerate_sector(10, 0))"
    )


def test_kernel_reconstruct_imports_no_scipy():
    assert_imports_no_scipy(
        "from spinsvd.svd_analysis import kernel_reconstruct\n"
        "kernel_reconstruct(256, range(32, 129, 8))"
    )


def loaded_submodules(code):
    """The spinsvd submodules that code loads in a fresh interpreter."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('spinsvd.')))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout.splitlines()[-1])


def test_mps_setup_import_footprint():
    # the modules the benchmark's mps set-up (import, random_init) loads on top
    # of those it shares with every caller
    code = (
        "import __future__, dataclasses, functools, numpy, numpy.random, sys\n"
        "before = set(sys.modules)\n"
        "import spinsvd as s\ns.random_init(64, 10, 1)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert eval(proc.stdout) == ["spinsvd", "spinsvd.errors", "spinsvd.lanczos", "spinsvd.mps"]
    # the pair-sector tables are built on first use, not at import
    code = "from spinsvd import mps\nprint(mps._gather.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout == "0\n"


def test_package_import_loads_no_submodule():
    assert loaded_submodules("import spinsvd") == []


def test_first_public_name_loads_only_its_module():
    code = "import spinsvd\nspinsvd.enumerate_sector(6, 0)"
    assert loaded_submodules(code) == ["spinsvd.basis", "spinsvd.errors"]


def test_analyze_loads_no_solver(tmp_path, ground_n12):
    mat_path = tmp_path / "m.csv"
    cli.write_matrix_csv(mat_path, build_from_wavefunction(ground_n12.wf).entries)
    argv = ["analyze", "--matrix", str(mat_path), "--components", "1", "--fit", "--domains", "--haar"]
    code = f"from spinsvd import cli\nassert cli.main({argv + ['--out', str(tmp_path / 'an')]!r}) == 0"
    loaded = loaded_submodules(code)
    assert "spinsvd.svd_analysis" in loaded
    assert not {"spinsvd.mps", "spinsvd.exact", "spinsvd.basis"} & set(loaded)


def test_solve_mps_loads_neither_ed_nor_corr(tmp_path):
    argv = ["solve", "--method", "mps", "--n", "8", "--chi", "3", "--sweeps", "1", "--out", str(tmp_path)]
    loaded = loaded_submodules(f"from spinsvd import cli\nassert cli.main({argv!r}) == 0")
    assert "spinsvd.mps" in loaded
    assert not {"spinsvd.exact", "spinsvd.corr", "spinsvd.basis"} & set(loaded)


def test_mps_corr_loads_no_ed_code(tmp_path):
    solve = ["solve", "--method", "mps", "--n", "8", "--chi", "3", "--sweeps", "1"]
    assert run(solve + ["--out", str(tmp_path / "s")]) == 0
    argv = ["corr", "--state", str(tmp_path / "s" / "state.json"), "--out", str(tmp_path / "c")]
    loaded = loaded_submodules(f"from spinsvd import cli\nassert cli.main({argv!r}) == 0")
    assert {"spinsvd.mps", "spinsvd.corr"} <= set(loaded)
    assert not {"spinsvd.exact", "spinsvd.basis"} & set(loaded)


def test_basis_names_stay_cli_attributes():
    code = "from spinsvd import basis, cli\nassert cli.enumerate_sector is basis.enumerate_sector"
    code += "\nassert (cli.MomentumBasis, cli.Wavefunction) == (basis.MomentumBasis, basis.Wavefunction)"
    assert "spinsvd.basis" in loaded_submodules(code)
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_star_import_binds_the_public_names():
    code = "names = set(dir())\nfrom spinsvd import *\nprint(sorted(set(dir()) - names - {'names'}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    public = [
        "SectorBasis", "Wavefunction", "enumerate_sector", "apply_hamiltonian",
        "GroundSolution", "FullSpectrum", "lanczos_ground_state", "full_spectrum",
        "MpsState", "random_init", "energy", "optimize_site", "sweep_optimize",
        "CorrelationMatrix", "build_from_wavefunction", "build_from_mps", "build_thermal",
        "SvdSpectrum", "ScalingFit", "eigendecompose", "component", "degeneracy_pairs",
        "dominant_wavenumber", "measure_domain_size", "fit_scaling", "kernel_reconstruct",
        "haar_transform",
    ]  # fmt: skip
    assert len(public) == 27 and spinsvd.__all__ == public
    assert eval(proc.stdout) == sorted(public)


def test_corr_thermal_needs_n(tmp_path, capsys):
    assert_rejected(["corr", "--beta", "1.0"], tmp_path / "th", capsys)


def test_corr_without_inputs(tmp_path, capsys):
    assert_rejected(["corr"], tmp_path / "corr", capsys)


def test_analyze_four_site(tmp_path):
    mat_path = tmp_path / "m.csv"
    cli.write_matrix_csv(mat_path, four_site.reference_correlation_matrix().entries)
    out = tmp_path / "an"
    assert (
        run(
            [
                "analyze",
                "--matrix",
                str(mat_path),
                "--components",
                "1,2",
                "--domains",
                "--haar",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,sqrt_lambda,lambda"
    top = float(lines[1].split(",")[1])
    assert top == pytest.approx(2.0 / 3.0, abs=1e-10)
    comp1 = cli.read_matrix_csv(out / "component_1.csv")
    assert np.max(np.abs(comp1 - np.array(four_site.COMPONENT_1))) < 1e-10
    assert (out / "haar.csv").exists()
    assert (out / "domains.csv").exists()


@pytest.mark.parametrize("components", ["99", "0", "1,5"])
def test_analyze_rejects_out_of_range_components(tmp_path, capsys, components):
    mat_path = tmp_path / "m.csv"
    cli.write_matrix_csv(mat_path, four_site.reference_correlation_matrix().entries)
    argv = ["analyze", "--matrix", str(mat_path), "--components", components]
    err = assert_rejected(argv, tmp_path / "an", capsys)
    assert err.startswith("error: --components must lie in 1..4")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_analyze_rejects_non_finite(tmp_path, capsys, bad):
    mat_path = tmp_path / "m.csv"
    mat_path.write_text(f"0.25,{bad}\n{bad},0.25\n")
    err = assert_rejected(["analyze", "--matrix", str(mat_path)], tmp_path / "an", capsys)
    assert "non-finite" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "1.5", "-1", "x"])
def test_analyze_rejects_domain_threshold_outside_unit_interval(tmp_path, capsys, bad):
    mat_path = tmp_path / "m.csv"
    cli.write_matrix_csv(mat_path, four_site.reference_correlation_matrix().entries)
    argv = ["analyze", "--matrix", str(mat_path), "--domains", "--domain-threshold", bad]
    err = assert_rejected(argv, tmp_path / "an", capsys)
    assert "argument --domain-threshold: must be a number in [0, 1]" in err


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_analyze_accepts_domain_threshold_bounds(tmp_path, threshold):
    mat_path = tmp_path / "m.csv"
    cli.write_matrix_csv(mat_path, four_site.reference_correlation_matrix().entries)
    out = tmp_path / "an"
    argv = ["analyze", "--matrix", str(mat_path), "--domains", "--domain-threshold", threshold]
    assert run(argv + ["--out", str(out)]) == 0
    assert len((out / "domains.csv").read_text().splitlines()) > 1  # header and measured rows


def test_analyze_missing_matrix(tmp_path, capsys):
    assert_rejected(["analyze", "--matrix", str(tmp_path / "nope.csv")], tmp_path / "an", capsys)


def test_analyze_rejects_nonsquare(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5,6\n")
    assert_rejected(["analyze", "--matrix", str(bad)], tmp_path / "an", capsys)


@pytest.mark.parametrize(
    "text,message",
    [
        ("0.25,0\n\n0,0.25,1\n", "line 3: 3 entries, the first row has 2"),  # ragged, after a blank line
        ("0.25,\n0,0.25\n", "line 1: could not convert string to float: ''"),  # empty field
        ("0.25,0\n0,x\n", "line 2: could not convert string to float: 'x'"),
    ],
)
def test_analyze_names_the_file_and_line_of_a_bad_row(tmp_path, capsys, text, message):
    mat_path = tmp_path / "m.csv"
    mat_path.write_text(text)
    err = assert_rejected(["analyze", "--matrix", str(mat_path)], tmp_path / "an", capsys)
    assert err == f"error: matrix in {mat_path}, {message}\n"


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 6).map(lambda n: (n, n)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_matrix_csv_round_trip_is_exact(tmp_path_factory, square):
    matrix = np.triu(square) + np.triu(square, 1).T
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    cli.write_matrix_csv(path, matrix)
    assert cli.read_matrix_csv(path).tobytes() == matrix.tobytes()


def test_matrix_csv_bytes_match_per_value_format(tmp_path):
    def per_value(matrix):  # the writer's former per-value formatting, the oracle
        return "".join(",".join(f"{float(x):.17g}" for x in row) + "\n" for row in matrix)

    values = [-0.0, 5e-324, 1e-300, 3.0, 0.25, -1 / 3]
    n64 = np.random.default_rng(3).standard_normal((64, 64)) * np.logspace(-300, 300, 64)
    for matrix in (np.array([values]), np.array(values).reshape(2, 3), n64):
        cli.write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == per_value(matrix).encode()


def test_oracle4_stdout(capsys):
    assert run(["oracle4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["singular_values"][0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_oracle4_file(tmp_path):
    assert run(["oracle4", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oracle4.json").read_text())
    assert payload["entropies"]["I_M"] == pytest.approx(0.5 * np.log(3), abs=1e-12)


def test_solve_mps_small(tmp_path):
    out = tmp_path / "mps"
    assert (
        run(
            [
                "solve",
                "--method",
                "mps",
                "--n",
                "4",
                "--chi",
                "4",
                "--sweeps",
                "10",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    state = json.loads((out / "state.json").read_text())
    assert state["energy"] >= -2.0 - 1e-9  # variational bound
    assert state["energy"] == pytest.approx(-2.0, rel=1e-6)


def test_solve_mps_manifest_records_the_last_sweep(tmp_path):
    out = tmp_path / "mps"
    argv = ["solve", "--method", "mps", "--n", "20", "--chi", "6", "--sweeps", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    _, reports = mps.sweep_optimize(mps.random_init(20, 6, 0), n_sweeps=3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "guard_rejects" not in manifest
    assert manifest["local_iterations"] == reports[-1].local_iterations > 0
    state = json.loads((out / "state.json").read_text())
    assert "guard_rejects" not in state and "local_iterations" not in state


def _nan_first_entry(tensors):
    tensors[0][0][0] = float("nan")
    return tensors


def _object_first_entry(tensors):
    tensors[0][0][0] = {}
    return tensors


def _string_first_entry(tensors):
    tensors[0][0][0] = str(tensors[0][0][0])
    return tensors


def _bool_first_entry(tensors):
    tensors[0][0][0] = True
    return tensors


def _huge_int_first_entry(tensors):
    tensors[0][0][0] = 10**400  # a JSON integer beyond the float range
    return tensors


@pytest.mark.parametrize(
    "field,edit,message",
    [
        ("chi", str, "chi must be an integer"),
        ("n_sites", str, "n_sites must be an integer"),
        ("chi", lambda chi: 0, "chi must be an integer >= 1"),
        ("chi", lambda chi: chi + 1, "tensors have shape (4, 2, 4), expected (4, 2, 9)"),
        ("tensors", lambda t: t[:-1], "tensors have shape (3, 2, 4)"),
        ("tensors", _nan_first_entry, "non-finite tensors"),
        ("tensors", _object_first_entry, "non-numeric tensors"),
        ("tensors", _string_first_entry, "non-numeric tensors"),
        ("tensors", _bool_first_entry, "non-numeric tensors"),
        ("tensors", _huge_int_first_entry, "int too large to convert to float"),
    ],
    ids=[
        "chi-string",
        "n-string",
        "chi-zero",
        "chi-mismatch",
        "short-tensors",
        "nan-tensor",
        "object-tensor",
        "string-tensor",
        "bool-tensor",
        "huge-int-tensor",
    ],
)
def test_corr_rejects_malformed_mps_state(tmp_path, capsys, field, edit, message):
    out = tmp_path / "solve"
    argv = ["solve", "--method", "mps", "--n", "4", "--chi", "2", "--sweeps", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    payload = json.loads((out / "state.json").read_text())
    payload[field] = edit(payload[field])
    capsys.readouterr()
    argv = ["corr", "--state", str(_write_state(tmp_path, payload))]
    assert message in assert_rejected(argv, tmp_path / "corr", capsys)


def test_mps_pipeline_deterministic(tmp_path):
    """Same seed, two full solve->corr pipelines, byte-identical CSV."""
    blobs = []
    for tag in ("a", "b"):
        solve_out = tmp_path / f"solve_{tag}"
        corr_out = tmp_path / f"corr_{tag}"
        run(
            [
                "solve",
                "--method",
                "mps",
                "--n",
                "4",
                "--chi",
                "4",
                "--sweeps",
                "10",
                "--seed",
                "3",
                "--out",
                str(solve_out),
            ]
        )
        run(["corr", "--state", str(solve_out / "state.json"), "--out", str(corr_out)])
        blobs.append((corr_out / "matrix.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_ed_pipeline_deterministic(tmp_path):
    """Same seed, two ED solve->corr pipelines, byte-identical CSV."""
    blobs = []
    for tag in ("a", "b"):
        solve_out, corr_out = tmp_path / f"solve_{tag}", tmp_path / f"corr_{tag}"
        run(["solve", "--method", "ed", "--n", "12", "--seed", "3", "--out", str(solve_out)])
        run(["corr", "--state", str(solve_out / "state.json"), "--out", str(corr_out)])
        blobs.append((corr_out / "matrix.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "spinsvd.cli",
            "solve",
            "--method",
            "ed",
            "--n",
            "4",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "energy" in proc.stdout
