"""Command-line front end: eigenvalues, certification, simulation, sweeps,
and gradient checks, emitted as CSV or JSON.

Exit codes: 0 success / all checks passed, 1 a requested check failed,
2 usage or specification error (an --out that cannot be opened included),
3 numerical failure (a simulated state or its V that is not finite, or an
eigenvalue root finder that fails), 141 (128 + SIGPIPE) the reader closed stdout.
Floats are rendered as repr(float) renders them, the shortest decimal that
round-trips; simulate's CSV rows are rendered in C, by a port of Ryu that
calls nothing of the interpreter, when native's library loaded, and give
the same bytes.
"""

import argparse
import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import experiments, integrators, lyapunov, model, native, spectral
from .experiments import SweepSpec
from .integrators import IntegrationError, Method, StepConfig
from .lyapunov import MatrixFamily
from .spectral import RootFindingError

SCHEMA_VERSION = 1

# Largest number of points --r-grid may expand to, and of gradcheck --points;
# checked before any work.
_MAX_GRID_POINTS = 10 ** 6
# Largest eig --omega0.  The numeric spectrum's root iteration works on the
# characteristic coefficients, up to omega0^4 (1 + 4r), and on fourth powers
# of its iterates, which overflow a float from about omega0 = 6e74 at some r;
# 2^224 leaves those fourth powers a factor 2^128 of headroom.
_MAX_EIG_OMEGA0 = 2.0 ** 224
# simulate renders and writes CSV rows in blocks of this many.
_BLOCK_ROWS = 1024
# Bytes of the longest repr of a float, -2.2250738585072014e-308, and its separator.
_REPR_BYTES = 25


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows_python(columns: list):
    """The CSV lines of columns, float64 arrays of one length, one block of
    _BLOCK_ROWS rows at a time: the repr of each value, commas between a
    row's values and a newline after each row."""
    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = zip(*(column[i:i + _BLOCK_ROWS].tolist() for column in columns))
        yield "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _csv_rows_native(columns: list):
    """_csv_rows_python, each block gathered into one (rows, columns) table
    and rendered by native.render_rows into one text buffer, both reused from
    block to block."""
    table = np.empty((_BLOCK_ROWS, len(columns)))
    text = bytearray(_REPR_BYTES * table.size)
    chars, view = (ctypes.c_char * len(text)).from_buffer(text), memoryview(text)
    n = len(columns[0])
    for i in range(0, n, _BLOCK_ROWS):
        rows = table[:min(n - i, _BLOCK_ROWS)]
        for j, column in enumerate(columns):
            rows[:, j] = column[i:i + len(rows)]
        used = native.render_rows(ctypes.c_double.from_buffer(rows), len(rows), len(columns),
                                  chars, len(text))
        if used < 0:
            raise RuntimeError(f"{len(text)} bytes cannot hold {rows.size} rendered floats")
        yield str(view[:used], "ascii")


# The CSV renderer simulate runs: native's if it loaded, else the Python one,
# which gives the same bytes.
_csv_rows = _csv_rows_python if native.render_rows is None else _csv_rows_native


def _check_out(path: str) -> None:
    """ValueError naming --out if path is a directory or its directory does
    not exist, so that a command fails before it does any work."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--out {path!r}: no such directory")


def _emit(text, out_path: str | None) -> None:
    """Write text, a string or an iterable of strings, to out_path or stdout;
    ValueError naming --out if out_path cannot be opened."""
    try:
        target = open(out_path, "w", newline="") if out_path else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        raise ValueError(f"--out cannot be opened: {err}") from None
    with target as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _parse_grid(raw: str) -> list[float]:
    try:
        lo, hi, step = (float(t) for t in raw.split(":"))
    except ValueError:
        raise ValueError(f"--r-grid must be lo:hi:step of three reals, got {raw!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf):
        raise ValueError(f"--r-grid needs finite lo, hi and a positive finite step, got {raw!r}")
    if hi < lo:
        raise ValueError(f"--r-grid must be ascending, got lo={lo} > hi={hi}")
    intervals = (hi - lo) / step + 1e-9
    if not intervals < _MAX_GRID_POINTS:
        raise ValueError(f"--r-grid {raw!r} has more than {_MAX_GRID_POINTS} points")
    values = [lo + k * step for k in range(math.floor(intervals) + 1)]
    if values[-1] > hi:
        values[-1] = hi
    return values


def _parse_x0(raw: str):
    try:
        x0 = [float(t) for t in raw.split(",")]
    except ValueError:
        x0 = []
    if len(x0) != 4:
        raise ValueError(f"x0 must be four comma-separated reals, got {raw!r}")
    return x0


def _parse_families(raw: str) -> list[MatrixFamily]:
    families = [lyapunov.family_named(name.strip()) for name in raw.split(",")]
    if len(set(families)) < len(families):
        raise ValueError(f"--families names a family twice: {raw!r}")
    return families


def _cmd_eig(args) -> int:
    p = model.make_params(args.omega0, args.r)
    if p.omega0 > _MAX_EIG_OMEGA0:
        raise ValueError(f"--omega0 {args.omega0!r} is more than {_MAX_EIG_OMEGA0!r}: "
                         "beyond it the numeric spectrum's float arithmetic may overflow")
    closed = spectral.eigvals_closed_form(p)
    numeric = spectral.eigvals_numeric(model.linearized_matrix(p))
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "omega0": p.omega0,
            "r": p.r,
            "closed": [{"re": z.real, "im": z.imag} for z in closed.eigenvalues],
            "numeric": [{"re": z.real, "im": z.imag} for z in numeric.eigenvalues],
            "max_real_part": closed.max_real_part,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = ["source,index,re,im"]
    for label, spec in (("closed", closed), ("numeric", numeric)):
        for k, z in enumerate(spec.eigenvalues):
            lines.append(f"{label},{k},{_fmt(z.real)},{_fmt(z.imag)}")
    lines.append(f"max_real_part,0,{_fmt(closed.max_real_part)},{_fmt(0.0)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_certify(args) -> int:
    lyapunov._check_tol("--tol", args.tol)
    families = _parse_families(args.families)
    grid = _parse_grid(args.r_grid)
    sweep = experiments.run_definiteness_sweep(families, (args.omega0,), grid, tol=args.tol)
    reports, thresholds = sweep.reports, sweep.thresholds

    mismatches = 0
    if args.expect:
        for rep in reports:
            if rep.verdict is not lyapunov.expected_verdict(rep.family, rep.r):
                mismatches += 1

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "omega0": args.omega0,
            "tol": args.tol,
            "reports": [
                {
                    "family": rep.family.value,
                    "r": rep.r,
                    "min_eig": rep.min_eig,
                    "max_eig": rep.max_eig,
                    "verdict": rep.verdict.value,
                }
                for rep in reports
            ],
            "thresholds": thresholds,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 1 if mismatches else 0
    lines = ["family,r,min_eig,max_eig,verdict"]
    for rep in reports:
        lines.append(
            f"{rep.family.value},{_fmt(rep.r)},{_fmt(rep.min_eig)},"
            f"{_fmt(rep.max_eig)},{rep.verdict.value}"
        )
    for family in families:
        r_star = thresholds[family.value]
        if r_star is None:
            continue
        rep = lyapunov.certify(family, model.make_params(args.omega0, r_star), tol=args.tol)
        lines.append(
            f"{family.value},{_fmt(r_star)},{_fmt(rep.min_eig)},"
            f"{_fmt(rep.max_eig)},Threshold"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if mismatches else 0


def _cmd_simulate(args) -> int:
    integrators._check_steps(args.steps, "--steps")
    p = model.make_params(args.omega0, args.r)
    x0 = _parse_x0(args.x0)
    method = Method(args.method)
    cfg = StepConfig(dt=args.dt, method=method)
    traj = integrators.simulate(x0, p, cfg, args.steps)
    # Per-step energy change, for the method that guarantees its sign.
    dg = method is Method.DISCRETE_GRADIENT
    dv = np.concatenate(([0.0], np.diff(traj.V))) if dg else None
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "omega0": p.omega0,
            "r": p.r,
            "method": method.value,
            "dt": cfg.dt,
            "t": traj.times.tolist(),
            "x": traj.states.tolist(),
            "v": traj.V.tolist(),
            "vdot": traj.Vdot.tolist(),
        }
        if dg:
            payload["dv"] = dv.tolist()
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    columns = [traj.times, *traj.states.T, traj.V, traj.Vdot] + ([dv] if dg else [])
    header = "t,x1,x2,x3,x4,v,vdot" + (",dv" if dg else "") + "\n"
    # written as rendered, so neither a row list nor the text spans the run
    _emit(itertools.chain([header], _csv_rows(columns)), args.out)
    return 0


def _summary_dict(s: experiments.TrajectorySummary) -> dict:
    return {
        "omega0": s.omega0,
        "r": s.r,
        "method": s.method,
        "dt": s.dt,
        "state_index": s.state_index,
        "x0": list(s.x0),
        "max_v_increase": None if math.isnan(s.max_v_increase) else s.max_v_increase,
        "final_norm": None if math.isnan(s.final_norm) else s.final_norm,
        "passed": s.passed,
        "error": s.error,
    }


def _cmd_sweep(args) -> int:
    try:
        with open(args.spec) as fh:
            data = json.load(fh)
    except OSError as err:
        print(f"error: cannot read spec: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: spec is not valid JSON: {err}", file=sys.stderr)
        return 2
    spec = SweepSpec.from_dict(data)
    result = experiments.run_sweep(spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "reports": [
            {
                "family": rep.family.value,
                "omega0": rep.omega0,
                "r": rep.r,
                "min_eig": rep.min_eig,
                "max_eig": rep.max_eig,
                "verdict": rep.verdict.value,
                "tol": rep.tol,
            }
            for rep in result.reports
        ],
        "thresholds": result.thresholds,
        "decay": [_summary_dict(s) for s in result.summaries],
        "all_pass": result.all_pass,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if result.all_pass else 1


def _cmd_gradcheck(args) -> int:
    if not 1 <= args.points <= _MAX_GRID_POINTS:
        raise ValueError(f"--points must be from 1 to {_MAX_GRID_POINTS}, got {args.points}")
    worst = experiments.run_gradcheck(args.seed, args.points)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "seed": args.seed,
            "points": args.points,
            "max_relative_error": worst,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(f"max_relative_error\n{_fmt(worst)}\n", args.out)
    return 0 if worst < 1e-5 else 1


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each func binds its _cmd_* here."""
    parser = argparse.ArgumentParser(
        prog="moogvcf",
        description="Ladder-filter stability toolkit: eigenvalues, Lyapunov "
        "certification, and dissipation-preserving simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eig = sub.add_parser("eig", help="closed-form and numeric eigenvalues of the linearization")
    eig.add_argument("--omega0", type=float, required=True)
    eig.add_argument("--r", type=float, required=True)
    _add_format(eig)
    eig.set_defaults(func=_cmd_eig)

    cert = sub.add_parser("certify", help="definiteness verdicts over a resonance grid")
    cert.add_argument("--families", required=True,
                      help="comma-separated subset of As,Bs,QsWorstCase")
    cert.add_argument("--r-grid", required=True, help="grid as lo:hi:step")
    cert.add_argument("--omega0", type=float, default=1.0)
    cert.add_argument("--tol", type=float, default=1e-10)
    cert.add_argument("--expect", action="store_true",
                      help="exit 1 unless every verdict matches its expected region")
    _add_format(cert)
    cert.set_defaults(func=_cmd_certify)

    sim = sub.add_parser("simulate", help="integrate a trajectory and record V along it")
    sim.add_argument("--omega0", type=float, required=True)
    sim.add_argument("--r", type=float, required=True)
    sim.add_argument("--x0", required=True, help="four comma-separated reals")
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--method", choices=[m.value for m in Method], default="dg")
    _add_format(sim)
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a sweep specification file")
    sweep.add_argument("--spec", required=True, help="path to a JSON SweepSpec")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    grad = sub.add_parser("gradcheck", help="finite-difference check of the energy gradient")
    grad.add_argument("--seed", type=int, default=42)
    grad.add_argument("--points", type=int, default=500)
    _add_format(grad)
    grad.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.out:
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as err:  # SpecValidationError and ParameterRangeError too
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (IntegrationError, RootFindingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Python's signal docs' recipe: the exit-time flush of what is still
        # buffered goes to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
