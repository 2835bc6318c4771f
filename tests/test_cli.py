import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from moogvcf import cli, experiments, integrators, lyapunov, model, spectral
from moogvcf.cli import main
from moogvcf.lyapunov import MatrixFamily


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_eig_r0(capsys):
    code, out, _ = run(capsys, "eig", "--omega0", "1", "--r", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["source", "index", "re", "im"]
    closed = [row for row in rows if row[0] == "closed"]
    assert len(closed) == 4
    for row in closed:
        assert float(row[2]) == -1.0
        assert float(row[3]) == 0.0
    numeric = [row for row in rows if row[0] == "numeric"]
    for row in numeric:
        assert float(row[2]) == pytest.approx(-1.0, abs=1e-10)
    assert rows[-1][0] == "max_real_part"
    assert float(rows[-1][2]) == -1.0


def test_eig_r1_matches_quartic(capsys):
    code, out, _ = run(capsys, "eig", "--omega0", "1", "--r", "1")
    assert code == 0
    _, rows = parse_csv(out)
    got = {(round(float(r[2]), 9), round(float(r[3]), 9))
           for r in rows if r[0] == "numeric"}
    assert got == {(0.0, 1.0), (0.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)}


def test_eig_rejects_out_of_range_r(capsys):
    code, _, err = run(capsys, "eig", "--omega0", "1", "--r", "1.5")
    assert code == 2
    assert "r" in err


@pytest.mark.parametrize("r", ["0", "0.5", "1"])
def test_eig_rejects_omega0_beyond_float_range(capsys, r):
    # omega0^4 (1 + 4r) does not fit a float: exit 2 under --omega0, not an
    # OverflowError traceback from the numeric spectrum
    code, out, err = run(capsys, "eig", "--omega0", "1e78", "--r", r)
    assert (code, out) == (2, "")
    assert err.startswith("error: --omega0 ")


@pytest.mark.parametrize("r", ["0", "0.5", "1"])
def test_eig_largest_omega0_prints_finite_spectrum(capsys, r):
    cap = cli._MAX_EIG_OMEGA0
    code, out, _ = run(capsys, "eig", "--omega0", repr(cap), "--r", r)
    assert code == 0
    _, rows = parse_csv(out)
    spectra = {source: [complex(float(re), float(im)) for s, _, re, im in rows if s == source]
               for source in ("closed", "numeric")}
    assert all(math.isfinite(abs(z)) for zs in spectra.values() for z in zs)
    assert max(map(abs, np.subtract(spectra["closed"], spectra["numeric"]))) <= 1e-9 * cap
    above = run(capsys, "eig", "--omega0", repr(math.nextafter(cap, math.inf)), "--r", r)
    assert above[0] == 2


@pytest.mark.parametrize("args, field, work", [
    (("eig", "--omega0", "1e308", "--r", "0.5"), "--omega0", ("spectral", "eigvals_closed_form")),
    (("gradcheck", "--points", str(cli._MAX_GRID_POINTS + 1)), "--points",
     ("experiments", "run_gradcheck")),
    (("gradcheck", "--points", "0"), "--points", ("experiments", "run_gradcheck")),
    (("simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0", "--dt", "0.1",
      "--steps", "99999999999999999999999"), "--steps", ("integrators", "simulate")),
    (("simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0", "--dt", "0.1",
      "--steps", str(integrators.MAX_STEPS + 1)), "--steps", ("integrators", "simulate")),
])
def test_oversized_arguments_rejected_up_front(capsys, monkeypatch, args, field, work):
    # each is rejected under its own field before the work it sizes starts,
    # and with no numpy overflow warning
    monkeypatch.setattr(getattr(cli, work[0]), work[1], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} ")


def test_size_caps_admit_their_limit(capsys, monkeypatch):
    # a size at its cap reaches the work it sizes
    sizes = []
    monkeypatch.setattr(experiments, "run_gradcheck", lambda seed, n: sizes.append(n) or 0.0)
    assert run(capsys, "gradcheck", "--points", str(cli._MAX_GRID_POINTS))[0] == 0

    def simulate(x0, p, cfg, n_steps):
        sizes.append(n_steps)
        raise cli.IntegrationError("stopped before the first step")

    monkeypatch.setattr(cli.integrators, "simulate", simulate)
    assert run(capsys, "simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0",
               "--dt", "0.1", "--steps", str(integrators.MAX_STEPS))[0] == 3
    assert sizes == [cli._MAX_GRID_POINTS, integrators.MAX_STEPS]


def test_eig_json_round_trip(capsys):
    code, out, _ = run(capsys, "eig", "--omega0", "2.5", "--r", "0.3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert len(data["closed"]) == len(data["numeric"]) == 4
    assert data["max_real_part"] <= 0.0


def test_certify_threshold_row(capsys):
    code, out, _ = run(capsys, "certify", "--families", "As", "--r-grid", "0:1:0.01")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "r", "min_eig", "max_eig", "verdict"]
    thresholds = [row for row in rows if row[4] == "Threshold"]
    assert len(thresholds) == 1
    assert float(thresholds[0][1]) == pytest.approx(5.0 / 12.0, abs=1e-6)


def test_certify_certifies_each_grid_point_once(capsys, monkeypatch):
    # count the matrices handed to eigvalsh, one per matrix of a stack
    solved = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.extend(m.tobytes() for m in np.asarray(a).reshape(-1, 4, 4))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    code, out, _ = run(capsys, "certify", "--families", "As", "--r-grid", "0:1:0.01")
    assert code == 0
    # 101 grid points plus the Threshold row, each solved once; the others
    # are the bisection's midpoints, and no matrix is solved twice
    rs = [float(row[1]) for row in parse_csv(out)[1]]
    assert len(rs) == 102
    wanted = lyapunov._family_matrices(MatrixFamily.AS, [model.make_params(1.0, r) for r in rs])
    assert all(solved.count(m.tobytes()) == 1 for m in wanted)
    assert len(set(solved)) == len(solved) < 102 + 64


def test_certify_runs_the_definiteness_sweep(capsys, monkeypatch):
    # one certification loop: the CLI hands its grid and --tol to
    # run_definiteness_sweep, the loop behind `moogvcf sweep` too
    calls = []
    real = experiments.run_definiteness_sweep

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_definiteness_sweep", recording)
    code, out, _ = run(capsys, "certify", "--families", "As,Bs", "--r-grid", "0:1:0.25",
                       "--omega0", "3", "--tol", "0.01")
    assert code == 0
    assert calls == [(([MatrixFamily.AS, MatrixFamily.BS], (3.0,), [0.0, 0.25, 0.5, 0.75, 1.0]),
                      {"tol": 0.01})]
    _, rows = parse_csv(out)
    assert len(rows) == 2 * 5 + 2  # grid rows, then one Threshold row per family


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_certify_rejects_bad_tol(capsys, monkeypatch, tol):
    # a negative --tol rated an indefinite point NegativeDefinite, and nan
    # rated every point Indefinite, both with exit 0
    monkeypatch.setattr(lyapunov, "certify_grid", None)
    code, out, err = run(capsys, "certify", "--families", "As", "--r-grid", "0:1:0.5",
                         f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_certify_all_families_full_grid(capsys):
    code, out, _ = run(capsys, "certify", "--families", "As,Bs,QsWorstCase",
                       "--r-grid", "0:1:0.01")
    assert code == 0
    _, rows = parse_csv(out)
    verdicts = {(row[0], float(row[1])): row[4] for row in rows}
    assert verdicts[("QsWorstCase", 0.0)] == "NegativeDefinite"
    thresholds = {row[0]: float(row[1]) for row in rows if row[4] == "Threshold"}
    assert thresholds == pytest.approx({"As": 5.0 / 12.0, "Bs": 1.0, "QsWorstCase": 1.0},
                                       abs=1e-6)


def test_certify_bs_expected_regions(capsys):
    code, out, _ = run(capsys, "certify", "--families", "Bs",
                       "--r-grid", "0:1:0.05", "--expect")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        if row[4] == "Threshold":
            continue
        if float(row[1]) < 1.0:
            assert row[4] == "NegativeDefinite"
        else:
            assert row[4] == "NegativeSemidefinite"


def test_certify_rejects_descending_grid(capsys):
    code, _, err = run(capsys, "certify", "--families", "As", "--r-grid", "1:0:0.1")
    assert code == 2
    assert "ascending" in err


def test_certify_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "certify", "--families", "Zs", "--r-grid", "0:1:0.5")
    assert code == 2
    assert "family" in err


def test_certify_rejects_duplicate_family(capsys):
    code, out, err = run(capsys, "certify", "--families", "As,As", "--r-grid", "0:1:0.5")
    assert code == 2
    assert out == ""
    assert "--families" in err


def test_simulate_zero_state(capsys):
    code, out, _ = run(capsys, "simulate", "--omega0", "1", "--r", "0.5",
                       "--x0", "0,0,0,0", "--dt", "0.1", "--steps", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x1", "x2", "x3", "x4", "v", "vdot", "dv"]
    for row in rows:
        assert all(float(v) == 0.0 for v in row[1:])


def test_simulate_discrete_gradient_contract(capsys):
    code, out, _ = run(capsys, "simulate", "--omega0", "100", "--r", "0.9",
                       "--x0", "1,1,-1,0.5", "--dt", "0.1", "--steps", "1000",
                       "--method", "dg")
    assert code == 0
    _, rows = parse_csv(out)
    assert max(float(row[7]) for row in rows) <= 1e-10


def test_simulate_rk4_energy_decay(capsys):
    code, out, _ = run(capsys, "simulate", "--omega0", "1", "--r", "0.5",
                       "--x0", "1,0,0,0", "--dt", "0.0001", "--steps", "2000",
                       "--method", "rk4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "vdot"
    vs = [float(row[5]) for row in rows]
    assert max(b - a for a, b in zip(vs, vs[1:])) <= 1e-9


def test_simulate_bad_x0(capsys):
    code, _, err = run(capsys, "simulate", "--omega0", "1", "--r", "0.5",
                       "--x0", "1,2,3", "--dt", "0.1", "--steps", "5")
    assert code == 2
    assert "x0" in err


@pytest.mark.parametrize("flag,value,field", [
    ("--x0", "nan,0,0,0", "x0"),
    ("--x0", "1,inf,0,0", "x0"),
    ("--x0", "1,2,3,abc", "x0"),
    ("--dt", "inf", "dt"),
    ("--r", "5e-324", "r="),
])
def test_simulate_rejects_non_finite_input_up_front(capsys, flag, value, field):
    args = {"--omega0": "1", "--r": "0.5", "--x0": "1,0,0,0", "--dt": "0.1", "--steps": "5"}
    args[flag] = value
    argv = ["simulate"] + [tok for pair in args.items() for tok in pair]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert field in err
    assert out == ""


@pytest.mark.parametrize("grid,message", [
    ("-inf:1:0.1", "finite"),
    ("nan:1:0.1", "finite"),
    ("0:inf:0.1", "finite"),
    ("0:1:nan", "finite"),
    ("0:1:1e-9", "more than"),
    ("-1e308:1e308:1", "more than"),
    ("0:1", "lo:hi:step"),
    ("0:x:0.1", "lo:hi:step"),
])
def test_certify_rejects_bad_grid(capsys, monkeypatch, grid, message):
    # a rejected grid must never reach certification
    monkeypatch.setattr(lyapunov, "certify_grid", None)
    code, _, err = run(capsys, "certify", "--families", "As", f"--r-grid={grid}")
    assert code == 2
    assert "--r-grid" in err and message in err


@pytest.mark.parametrize("method", ["dg", "rk4"])
@pytest.mark.parametrize("x0", ["0,0,0,1e308", "0,0,5e307,0"])
def test_simulate_rejects_x0_of_infinite_energy(capsys, method, x0):
    # every entry is finite, but at r = 1 w4 = d^3 x4 overflows in the first
    # x0, and V's stage-3 term 4 lncosh(w3/2) in the second
    code, out, err = run(capsys, "simulate", "--omega0", "1", "--r", "1", "--x0", x0,
                         "--dt", "0.1", "--steps", "1", "--method", method, "--format", "json")
    assert code == 2
    assert "x0" in err and "energy" in err
    assert out == ""


def test_simulate_integrator_failure_exit_code(capsys, monkeypatch, python_kernels):
    # a NaN injected into either Python kernel: tanh returns NaN from its 20th
    # call on
    real_tanh = math.tanh
    for method in ("dg", "rk4"):
        calls = []

        def tanh(u):
            calls.append(u)
            return math.nan if len(calls) >= 20 else real_tanh(u)

        monkeypatch.setattr(math, "tanh", tanh)
        code, out, err = run(capsys, "simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0",
                             "--dt", "0.1", "--steps", "5", "--method", method)
        assert code == 3
        assert out == ""
        assert "state not finite" in err


@pytest.mark.parametrize("dt", ["1e8", "1e300"])
def test_simulate_dg_step_above_the_limit_exit_code(capsys, kernels, dt):
    # omega0*dt = 1e308 or inf, whose discrete-gradient steps would not be
    # finite: rejected under dt before the kernel runs, on either kernel
    code, out, err = run(capsys, "simulate", "--omega0", "1e300", "--r", "0.5", "--x0",
                         "1,-2,0.5,3", "--dt", dt, "--steps", "3")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: dt = {float(dt)!r} at omega0 = 1e+300 makes |omega0 * dt| ")


def test_sweep_rejects_dg_step_above_the_limit(tmp_path, capsys, monkeypatch):
    # dt times the largest omega0 above integrators.MAX_DG_OMEGA0_DT: the
    # spec is rejected under dt before any certification; RK4 has no limit
    monkeypatch.setattr(lyapunov, "certify_grid", None)
    spec = tmp_path / "spec.json"
    fields = {"r": [0.5], "omega0": [1.0, 1e300], "families": ["As"], "seed": 1,
              "samples_per_point": 1, "dt": 1e7, "n_steps": 3}
    spec.write_text(json.dumps(fields))
    code, out, err = run(capsys, "sweep", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("error: dt: dt = 10000000.0 at omega0 = 1e+300 makes |omega0 * dt| ")
    assert experiments.SweepSpec.from_dict({**fields, "method": "rk4"}).dt == 1e7


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_rejects_overflowing_time_column(capsys, fmt):
    # the last time dt * n_steps = 2e308 overflows: rejected under dt before
    # the kernel runs, with no inf row nor an Infinity token written
    code, out, err = run(capsys, "simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0",
                         "--dt", "1e308", "--steps", "2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "dt * n_steps must be finite" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_rk4_overflow_exit_code(capsys, fmt):
    # the first step overflows; no inf or nan row, nor a NaN token, is written
    code, out, err = run(capsys, "simulate", "--omega0", "1e300", "--r", "0.5", "--x0", "1,2,3,4",
                         "--dt", "1e10", "--steps", "3", "--method", "rk4", "--format", fmt)
    assert code == 3
    assert out == ""
    assert "step 1" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_rk4_energy_overflow_exit_code(capsys, kernels, fmt):
    # the first state is finite but its V overflows: exit 3 naming the step,
    # not exit 0 with inf in the v column
    code, out, err = run(capsys, "simulate", "--omega0", "1e150", "--r", "0.41666666666666663",
                         "--x0", "1.7976931348623157e308,0,0,0", "--dt", "1e150", "--steps", "1",
                         "--method", "rk4", "--format", fmt)
    assert (code, out) == (3, "")
    assert "step 1: V not finite" in err


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line and closes the pipe while simulate still writes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "moogvcf.cli", "simulate", "--omega0", "1", "--r", "0.5",
         "--x0", "1,0,0,0", "--dt", "0.01", "--steps", "20000", "--method", "rk4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"t,x1,x2,x3,x4,v,vdot\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


def test_sweep_minimal(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "r": [0.5], "omega0": [1], "families": ["As"],
        "seed": 1, "samples_per_point": 1,
    }))
    code, out, _ = run(capsys, "sweep", "--spec", str(spec))
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 1
    assert len(data["decay"]) == 1
    assert data["all_pass"] is True


def test_sweep_rejects_bad_resonance(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "r": [2.0], "omega0": [1], "families": ["As"],
        "seed": 1, "samples_per_point": 1,
    }))
    code, _, err = run(capsys, "sweep", "--spec", str(spec))
    assert code == 2
    assert "r[0]" in err


@pytest.mark.parametrize("field, text, path", [
    ("dt", "1e400", "dt"),
    ("omega0", "[1.0, 1e400]", "omega0[1]"),
    ("r", "[0.0, 5e-324]", "r[1]"),
    ("n_steps", "1000000000000", "n_steps"),
    ("samples_per_point", "1000000000000000", "samples_per_point"),
    ("dt", "1" + "0" * 400, "dt"),
])
def test_sweep_rejects_non_finite_spec_up_front(tmp_path, capsys, monkeypatch, field, text, path):
    # JSON reads 1e400 as inf, and 10^400 written out as an integer no float
    # holds; the spec must be rejected before any certification, with the
    # path of the offending entry, and so must sizes that would run for days
    monkeypatch.setattr(lyapunov, "certify_grid", None)
    fields = {"r": "[0.5]", "omega0": "[1]", "families": '["As"]', "seed": "1",
              "samples_per_point": "1", field: text}
    spec = tmp_path / "spec.json"
    spec.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    code, out, err = run(capsys, "sweep", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")


def test_sweep_rejects_bad_json(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    code, _, err = run(capsys, "sweep", "--spec", str(spec))
    assert code == 2


def test_sweep_missing_file(capsys):
    code, _, err = run(capsys, "sweep", "--spec", "/nonexistent/spec.json")
    assert code == 2


# one valid invocation of each subcommand, without --out
OUT_COMMANDS = {
    "eig": ["--omega0", "1", "--r", "0.5"],
    "certify": ["--families", "As", "--r-grid", "0:1:0.5"],
    "simulate": ["--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0", "--dt", "0.1",
                 "--steps", "3"],
    "sweep": ["--spec", "spec.json"],
    "gradcheck": ["--points", "3"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_that_cannot_be_opened_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, target):
    # each command's numerical work is removed: the --out check runs first
    for module, name in [(spectral, "eigvals_closed_form"), (experiments, "run_definiteness_sweep"),
                         (integrators, "simulate"), (experiments, "run_sweep"),
                         (experiments, "run_gradcheck")]:
        monkeypatch.setattr(module, name, None)
    out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
    code, stdout, err = run(capsys, command, *OUT_COMMANDS[command], "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: --out {str(out)!r}")


def test_out_that_fails_to_open_exits_2(tmp_path, capsys):
    # a name too long for the file system passes the up-front check, and
    # open's error is reported under --out
    out = tmp_path / ("x" * 300)
    code, stdout, err = run(capsys, "eig", *OUT_COMMANDS["eig"], "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --out cannot be opened: ")


# sha256 of `moogvcf sweep --spec specs/fullrange.json`, recorded from the
# discrete-gradient kernel that takes chord steps near the root; the sweep's
# bytes must not move.
FULLRANGE_SWEEP_DIGEST = "6ad16bcc596fdadc2c82b47f1e7e065d5e0500a8529ea68a90564fb368dde879"


def test_sweep_bundled_fullrange_spec(tmp_path):
    # end-to-end run of the spec shipped in specs/
    import pathlib

    spec = pathlib.Path(__file__).parent.parent / "specs" / "fullrange.json"
    out = tmp_path / "fullrange.json"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert len(data["reports"]) == 3 * 50
    assert len(data["decay"]) == 100
    assert abs(data["thresholds"]["As"] - 5.0 / 12.0) < 1e-6
    assert abs(data["thresholds"]["Bs"] - 1.0) < 1e-6
    assert abs(data["thresholds"]["QsWorstCase"] - 1.0) < 1e-6
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FULLRANGE_SWEEP_DIGEST


def test_sweep_exit_1_on_failed_decay(tmp_path, capsys, monkeypatch):
    # harness meta-test: a sign-flipped energy must fail the sweep
    # (a decay study's V comes from the kernel, through simulate_batch)
    real = experiments.simulate_batch

    def negated(*args):
        states, energy, stages, errors = real(*args)
        return states, -energy, stages, errors

    monkeypatch.setattr(experiments, "simulate_batch", negated)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "r": [0.5], "omega0": [1], "families": ["As"],
        "seed": 1, "samples_per_point": 2,
    }))
    code, out, _ = run(capsys, "sweep", "--spec", str(spec))
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_sweep_output_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "r": [0.25, 0.75], "omega0": [1], "families": ["As", "QsWorstCase"],
        "seed": 99, "samples_per_point": 2, "dt": 0.1, "n_steps": 40,
    }))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["sweep", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["sweep", "--spec", str(spec), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_golden_bytes(tmp_path, renderer):
    args = ["simulate", "--omega0", "1", "--r", "0.8", "--x0", "1,-1,0.5,2",
            "--dt", "0.05", "--steps", "100", "--method", "dg"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", ["dg", "rk4"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_evaluates_rate_once(capsys, monkeypatch, method, fmt):
    # the vdot column is the trajectory's one rate_column pass, of every row
    rows = []
    real = lyapunov.rate_column

    def counted(zs, p):
        rates = real(zs, p)
        rows.append(len(rates))
        return rates

    monkeypatch.setattr(lyapunov, "rate_column", counted)
    code, _, _ = run(capsys, "simulate", "--omega0", "1", "--r", "0.5", "--x0", "1,-2,0.5,3",
                     "--dt", "0.05", "--steps", "20", "--method", method, "--format", fmt)
    assert code == 0
    assert rows == [21]


# sha256 of the README's two simulate commands: RK4 recorded from the
# array-based integrator that preceded the float-tuple RK4 kernel, DG from the
# kernel that takes chord steps near the root.
README_SIMULATE = {
    "dg": ["--omega0", "100", "--r", "0.9", "--x0", "1,1,-1,0.5", "--dt", "0.1",
           "--steps", "1000", "--method", "dg"],
    "rk4": ["--omega0", "1", "--r", "0.5", "--x0", "1,0,0,0", "--dt", "0.001",
            "--steps", "5000", "--method", "rk4"],
}
README_DIGESTS = {
    ("dg", "csv"): "40e108727d6a120a6c336858c5c7e9012d3223d04b71350746454c4080579fb0",
    ("rk4", "csv"): "5c4d543f1ad87e1a0974d88c89e985f806e47c6ea58d5f6facccb6e1683b6ec2",
    ("dg", "json"): "0c825ee0fc489aa68b43ced121bdae3f5adf2e2d3180decda7100040eaa3d138",
    ("rk4", "json"): "885fc4b1c1d9c4535a9d1bac83174501fdff0113e3740974501f31d88c630fd6",
}


@pytest.mark.parametrize("method, fmt", sorted(README_DIGESTS))
def test_simulate_readme_commands_keep_their_bytes(tmp_path, method, fmt, renderer):
    out = tmp_path / f"{method}.{fmt}"
    argv = ["simulate", *README_SIMULATE[method], "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_DIGESTS[method, fmt]


def test_gradcheck_single_point(capsys):
    code, out, _ = run(capsys, "gradcheck", "--points", "1")
    assert code == 0
    assert float(out.strip().split("\n")[1]) == 0.0


def test_gradcheck_default_scale(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "42", "--points", "500")
    assert code == 0
    assert float(out.strip().split("\n")[1]) < 1e-5


def test_certify_expect_mismatch_exits_1(capsys, monkeypatch):
    # harness meta-test: shift the expected boundary so real verdicts no
    # longer match the expectation table
    from moogvcf.lyapunov import MatrixFamily

    monkeypatch.setitem(lyapunov.FAMILY_BOUNDARY, MatrixFamily.AS, 0.9)
    code, _, _ = run(capsys, "certify", "--families", "As",
                     "--r-grid", "0:1:0.1", "--expect")
    assert code == 1


def test_gradcheck_detects_broken_gradient(capsys, monkeypatch):
    from moogvcf import model
    from moogvcf.model import saturation_vector

    monkeypatch.setattr(model, "saturation_vector", lambda w, p: -saturation_vector(w, p))
    code, out, _ = run(capsys, "gradcheck", "--seed", "42", "--points", "20")
    assert code == 1


def test_emitted_floats_round_trip(capsys):
    code, out, _ = run(capsys, "simulate", "--omega0", "3", "--r", "0.7",
                       "--x0", "1.5,-2,0.25,4", "--dt", "0.07", "--steps", "20")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        for field in row:
            x = float(field)
            assert cli._fmt(x) == field


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
