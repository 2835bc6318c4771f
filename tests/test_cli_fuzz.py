"""Grammar fuzz of the CLI: argv for each subcommand, and spec JSON for
`sweep`, drawn from extreme numbers and run in-process through cli.main.

Every run must end without a traceback, in one of four outcomes:
- exit 0, with every printed number finite (simulate's vdot may be -inf:
  Vdot = omega0 * quad rounds to -inf above about omega0 = 1e307, while the
  states and V stay finite);
- exit 1, only from `certify --expect`, or from a sweep whose failing
  summaries are all RK4;
- exit 2, with an error that names an argument or a spec path first;
- exit 3, only for an RK4 state that overflows, or for eig's root finder.

Step, point and grid counts stay small, so that no run is large.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moogvcf import cli

FIVE_TWELFTHS = 5.0 / 12.0
# 28 numbers: signed zeros, subnormals (the smallest, 1e-310 and the largest),
# 1e+-150, 1e+-300, the largest float, infinities, nan, 5/12 (the As family's
# boundary) with its neighbours, each of either sign, and 1
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.225073858507201e-308,
          -2.225073858507201e-308, 1e150, -1e150, 1e-150, -1e-150,
          1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
          math.inf, -math.inf, math.nan]
VALUES += [s * v for s in (1.0, -1.0) for v in (math.nextafter(FIVE_TWELFTHS, 0.0),
                                                FIVE_TWELFTHS,
                                                math.nextafter(FIVE_TWELFTHS, 1.0))]
VALUES.append(1.0)
assert len(VALUES) == 28

numbers = st.sampled_from(VALUES)


def mostly(admitted):
    """A number of VALUES, half the time one that admitted(v) holds for, so
    that runs get past the first check as often as they stop at it."""
    return numbers | st.sampled_from([v for v in VALUES if admitted(v)])


positive = mostly(lambda v: 0.0 < v < math.inf)
unit = mostly(lambda v: 0.0 <= v <= 1.0)
finite = mostly(math.isfinite)
families = st.lists(st.sampled_from(["As", "Bs", "QsWorstCase"]), min_size=1, max_size=3)
fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run(argv):
    """cli.main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def flag(name, value):
    """--name=value: a value that starts with '-' stays the option's argument."""
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def assert_names_field(err, fields):
    """err is one error line that names one of fields first."""
    match = re.match(r"error: (--[\w-]+|\w+(\[\d+\])?)", err)
    assert match and match.group(1) in fields, err
    assert err.count("\n") == 1, err


def json_numbers(value, key=None):
    """(key, number) for each number in a parsed JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from json_numbers(v, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, value


def assert_finite_output(out, fmt, minus_inf_ok=()):
    """Every number out prints is finite, except -inf in the keys or
    columns minus_inf_ok."""
    if fmt == "json":
        pairs = list(json_numbers(json.loads(out)))
    else:
        header, *rows = [line.split(",") for line in out.splitlines()]
        pairs = [(k, float(v)) for row in rows for k, v in zip(header, row)
                 if re.fullmatch(r"[-+.\deinfa]+", v)]
    for key, v in pairs:
        assert math.isfinite(v) or (key in minus_inf_ok and v == -math.inf), (key, v)


@fuzz
@given(omega0=positive, r=unit, fmt=st.sampled_from(["csv", "json"]))
def test_eig_fuzz(omega0, r, fmt):
    code, out, err = run(["eig", flag("omega0", omega0), flag("r", r), f"--format={fmt}"])
    if code == 0:
        assert_finite_output(out, fmt)
    elif code == 2:
        assert_names_field(err, {"--omega0", "omega0", "r"})
    else:
        assert code == 3 and "roots did not converge" in err, (code, err)


@fuzz
@given(omega0=positive, r=unit, x0=st.lists(finite, min_size=4, max_size=4), dt=positive,
       steps=st.integers(1, 5), method=st.sampled_from(["dg", "rk4"]),
       fmt=st.sampled_from(["csv", "json"]))
def test_simulate_fuzz(omega0, r, x0, dt, steps, method, fmt):
    code, out, err = run(["simulate", flag("omega0", omega0), flag("r", r),
                          "--x0=" + ",".join(map(repr, x0)), flag("dt", dt),
                          flag("steps", steps), f"--method={method}", f"--format={fmt}"])
    if code == 0:
        assert_finite_output(out, fmt, minus_inf_ok={"vdot"})
    elif code == 2:
        assert out == ""
        assert_names_field(err, {"omega0", "r", "x0", "dt", "--steps"})
    else:
        assert (code, method) == (3, "rk4") and re.search(r"(state|V) not finite", err), err
        assert out == ""


@fuzz
@given(names=families, lo=unit, hi=unit, step=positive, omega0=positive, tol=positive,
       expect=st.booleans(), fmt=st.sampled_from(["csv", "json"]))
def test_certify_fuzz(names, lo, hi, step, omega0, tol, expect, fmt):
    argv = ["certify", "--families=" + ",".join(names), f"--r-grid={lo!r}:{hi!r}:{step!r}",
            flag("omega0", omega0), flag("tol", tol), f"--format={fmt}"]
    code, out, err = run(argv + ["--expect"] * expect)
    if code == 0:
        # a Threshold row's bracket values can be null in JSON; none is a number
        assert_finite_output(out, fmt)
    elif code == 1:
        assert expect, out
    else:
        assert code == 2, (code, err)
        assert_names_field(err, {"--families", "--r-grid", "--tol", "omega0", "r"})


@fuzz
@given(r=st.lists(unit, min_size=1, max_size=2), omega0=st.lists(positive, min_size=1,
                                                                    max_size=2),
       names=families, seed=st.sampled_from([0, 1, 2 ** 64 - 1, -1, 2 ** 64]),
       samples=st.integers(0, 2), method=st.sampled_from(["dg", "rk4"]), dt=positive,
       n_steps=st.integers(0, 5))
def test_sweep_fuzz(r, omega0, names, seed, samples, method, dt, n_steps):
    spec = {"r": r, "omega0": omega0, "families": names, "seed": seed,
            "samples_per_point": samples, "method": method, "dt": dt, "n_steps": n_steps}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))  # NaN and Infinity, as JSON readers take them
        code, out, err = run(["sweep", f"--spec={path}"])
    if code in (0, 1):
        payload = json.loads(out)
        if code == 0:
            assert_finite_output(out, "json")
        failed = {s["method"] for s in payload["decay"] if not s["passed"]}
        assert (code == 1) == bool(failed) and failed <= {"rk4"}, (code, failed)
    else:
        assert code == 2, (code, err)
        paths = {"r", "omega0", "families", "seed", "samples_per_point", "method", "dt",
                 "n_steps"}
        paths |= {f"{key}[{i}]" for key in ("r", "omega0", "families") for i in range(3)}
        assert_names_field(err, paths)


@fuzz
@given(seed=st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([0, 2 ** 64 - 1, 2 ** 64]),
       points=st.integers(-1, 5), fmt=st.sampled_from(["csv", "json"]))
def test_gradcheck_fuzz(seed, points, fmt):
    code, out, err = run(["gradcheck", flag("seed", seed), flag("points", points),
                          f"--format={fmt}"])
    if code == 0:
        assert_finite_output(out, fmt)
    else:
        assert code == 2, (code, err)
        assert_names_field(err, {"--points"})
