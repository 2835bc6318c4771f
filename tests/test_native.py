"""The C kernels against the Python ones, and the loader that builds them."""

import math
import os
import stat
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moogvcf import integrators, lyapunov, model, native
from moogvcf.integrators import IntegrationError, Method, StepConfig, simulate
from moogvcf.model import make_params

SRC = Path(native.__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(native.lib is None, reason="the C kernels did not load")


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(run, u, p, dt, n):
    """A kernel's n steps from the state u: the bytes of the state and
    stage-value rows it wrote and what it returned, or the exception it raised
    with the step an IntegrationError names."""
    states, stages = np.empty((n + 1, 4)), np.empty((n + 1, 5))
    states[0], stages[0] = u, model.stage_tanh(u, model.stage_table(p))
    try:
        out = run(states, stages, p, dt)
    except (IntegrationError, ZeroDivisionError) as err:
        return type(err), getattr(err, "step", None)
    return states.tobytes(), stages.tobytes(), out


# The extreme-input ranges: r at its ends and in between, |w_i| from 1e-14 to
# 1e6 with either sign, signed zeros, and non-finite entries.
resonances = st.sampled_from([0.0, 1e-300, 1e-12, 0.3, 0.99, 1.0]) | st.floats(1e-300, 1.0)
amplitudes = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-14.0, 6.0)).map(
        lambda se: se[0] * 10.0 ** se[1]),
)
states = st.lists(amplitudes, min_size=4, max_size=4) | st.lists(
    amplitudes | st.sampled_from([math.nan, math.inf, -math.inf]), min_size=4, max_size=4)


@needs_native
@given(
    r=resonances,
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e),
    sign=st.sampled_from([1.0, 1.0, 1.0, -1.0]),
    w=states,
    n=st.sampled_from([1, 5, 20]),
    max_iter=st.sampled_from([0, 1, 3, 50]),
    tol=st.sampled_from([integrators._NEWTON_TOL, 0.0, -1.0]),
    cutoffs=st.sampled_from([(1e-12, 1e-7), (0.0, 0.0), (1e-3, 1e-2)]),
    search=st.sampled_from([integrators._LINE_SEARCH, (), (1.0,), (0.5, 0.25, 1.0)]),
)
# a backward step whose Newton pivot 1 - dt*omega0*e1 is 0 at v = w
@example(r=0.5, omega0=1.0, dt_omega=1.0, sign=-1.0, w=[0.0, 0.0, 0.0, 0.0], n=1, max_iter=50,
         tol=0.0, cutoffs=(1e-12, 1e-7), search=integrators._LINE_SEARCH)
@settings(max_examples=1500, deadline=None)
def test_dg_run_native_bit_identical_to_python(r, omega0, dt_omega, sign, w, n, max_iter, tol,
                                               cutoffs, search):
    # states, stage values, (stabilized, trials), or the exception and the
    # step it names, with the solver constants patched as the tests patch them
    p, dt = make_params(omega0, r), sign * dt_omega / omega0
    with mock.patch.multiple(integrators, _NEWTON_MAX_ITER=max_iter, _NEWTON_TOL=tol,
                             _COINCIDENCE_CUTOFF=cutoffs[0], _DERIVATIVE_CUTOFF=cutoffs[1],
                             _LINE_SEARCH=search):
        want = _outcome(integrators._dg_run_python, w, p, dt, n)
        got = _outcome(integrators._dg_run_native, w, p, dt, n)
    assert got == want


@needs_native
@given(
    r=resonances,
    omega0=st.sampled_from([1.0, 100.0, 1e300]),
    dt_omega=st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e),
    x=states,
    n=st.sampled_from([1, 5, 20]),
)
@settings(max_examples=500, deadline=None)
def test_rk4_run_native_bit_identical_to_python(r, omega0, dt_omega, x, n):
    p, dt = make_params(omega0, r), dt_omega / omega0
    assert _outcome(integrators._rk4_run_native, x, p, dt, n) == _outcome(
        integrators._rk4_run_python, x, p, dt, n)


def _read_only(rows):
    rows.setflags(write=False)
    return rows


_bad_rows = {
    "float32": (np.zeros((3, 4), np.float32), np.zeros((3, 5))),
    "Fortran-ordered": (np.asfortranarray(np.zeros((3, 4))), np.zeros((3, 5))),
    "1-D": (np.zeros(4), np.zeros((1, 5))),
    "mismatched rows": (np.zeros((3, 4)), np.zeros((2, 5))),
    "no rows": (np.zeros((0, 4)), np.zeros((0, 5))),
    "swapped widths": (np.zeros((3, 5)), np.zeros((3, 4))),
    "read-only": (np.zeros((3, 4)), _read_only(np.zeros((3, 5)))),
    "a list": ([[0.0] * 4] * 3, np.zeros((3, 5))),
}


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native", "_rk4_run_python",
                                    "_rk4_run_native"])
@pytest.mark.parametrize("case", list(_bad_rows))
def test_kernels_check_their_arrays_before_the_library(kernel, case):
    # each kernel takes writable, C-ordered float64 arrays of the same rows,
    # 4 and 5 wide; anything else is a ValueError that never reaches the library
    states, stages = _bad_rows[case]
    with mock.patch.object(native, "lib", mock.Mock()) as lib:
        with pytest.raises(ValueError):
            getattr(integrators, kernel)(states, stages, make_params(1.0, 0.5), 0.1)
    assert lib.mock_calls == []


energy_entries = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)).map(
        lambda se: se[0] * 10.0 ** se[1]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@needs_native
@given(r=resonances, ws=st.lists(energy_entries, max_size=40).map(lambda v: v[:len(v) // 4 * 4]))
@settings(max_examples=1000, deadline=None)
def test_energy_column_native_bit_identical_to_python(r, ws):
    p = make_params(1.0, r)
    assert _bits(lyapunov._energy_column_native(ws, p)) == _bits(
        lyapunov._energy_column_python(ws, p))


@needs_native
def test_energy_column_native_takes_what_python_takes():
    # a tuple, integers, a list of rows, the rows back to back, and C-ordered,
    # Fortran-ordered and strided arrays give the same bits; a partial state
    # is a ValueError
    p = make_params(1.0, 0.5)
    rows = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 4.0, -1.0, 2.5], [-3.0, 0.25, 7.0, -0.5]])
    for ws in ((1.0, -2.0, 0.5, 3.0), [1, -2, 0, 3], rows.tolist(), rows.ravel(), rows,
               np.asfortranarray(rows), rows[::2], rows.astype(np.float32)):
        got, want = lyapunov._energy_column_native(ws, p), lyapunov._energy_column_python(ws, p)
        assert type(got) is type(want) is np.ndarray and got.tobytes() == want.tobytes()
    for partial in ([0.0] * 5, (1.0, 2.0, 3.0), np.zeros((2, 3))):
        for energy_column in (lyapunov._energy_column_native, lyapunov._energy_column_python):
            with pytest.raises(ValueError):
                energy_column(partial, p)


def test_kernel_names_the_selection_and_is_read_only():
    assert native.KERNEL == ("python" if native.lib is None else "native")
    assert (integrators._dg_run is integrators._dg_run_native) == (native.KERNEL == "native")
    with pytest.raises(AttributeError):
        native.KERNEL = "python"


def _import_in_child(cache, **env):
    """Import moogvcf.native in a fresh interpreter with XDG_CACHE_HOME = cache
    and DEBUG logging on stdout; its output lines, KERNEL last."""
    code = ("import logging, sys; logging.basicConfig(level=logging.DEBUG, stream=sys.stdout); "
            "import moogvcf.native as n; print(n.KERNEL)")
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache), **env}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return out.stdout.strip().split("\n")


def test_group_writable_cache_directory_falls_back(tmp_path):
    # a library planted in a directory others may write would run as the
    # user: the loader neither loads nor builds one there
    planted = tmp_path / "moogvcf"
    planted.mkdir()
    planted.chmod(0o775)
    lines = _import_in_child(tmp_path)
    assert lines[-1] == "python"
    assert any("group- or world-writable" in line for line in lines)
    assert list(planted.iterdir()) == []


def test_failed_compile_falls_back(tmp_path):
    lines = _import_in_child(tmp_path, CC="false")
    assert lines[-1] == "python"
    assert any("the Python kernels run" in line and "status" in line for line in lines)
    assert [path.name for path in (tmp_path / "moogvcf").iterdir()] == []  # no temporary left


@needs_native
def test_cache_miss_compiles_once_into_a_private_directory(tmp_path):
    first, second = _import_in_child(tmp_path), _import_in_child(tmp_path)
    assert first[-1] == second[-1] == "native"
    assert any(" in " in line and "compiled" in line for line in first)
    assert not any("compiled" in line for line in second)
    cache = tmp_path / "moogvcf"
    assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
    (library,) = cache.iterdir()
    assert any(str(library) in line for line in second)


@needs_native
def test_cache_miss_deletes_stale_libraries(tmp_path):
    # a library of another key (an older source or another compiler) is
    # deleted once the new one is in place; other names are left alone
    cache = tmp_path / "moogvcf"
    cache.mkdir(mode=0o700)
    stale, kept = cache / f"_kernels-{'0' * 32}.so", [cache / "notes.txt", cache / ".build-x.so"]
    for path in (stale, *kept):
        path.write_bytes(b"")
    lines = _import_in_child(tmp_path)
    assert lines[-1] == "native"
    assert not stale.exists() and all(path.exists() for path in kept)
    assert len(list(cache.glob("_kernels-*.so"))) == 1


@needs_native
@pytest.mark.parametrize("method", list(Method))
def test_simulate_peak_memory_is_near_its_output(method):
    # the kernels write into the arrays the Trajectory keeps, so the peak of
    # a long simulate, V and the x = D^-1 w division included, stays within
    # 1.5x the bytes of the arrays it returns
    p, x0, cfg = make_params(1.0, 0.9), [1.0, -2.0, 0.5, 3.0], StepConfig(0.05, method)
    simulate(x0, p, cfg, 10)  # the per-parameter constants, as a second run finds them
    tracemalloc.start()
    try:
        traj = simulate(x0, p, cfg, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (traj.times, traj.states, traj.V, traj.stages))
    assert peak < 1.5 * returned


def test_check_private_refuses_writable_files(tmp_path):
    path = tmp_path / "lib.so"
    path.write_bytes(b"")
    path.chmod(0o644)
    native.check_private(path)
    for mode in (0o664, 0o646):
        path.chmod(mode)
        with pytest.raises(OSError, match="writable"):
            native.check_private(path)


def _running(pid: int) -> bool:
    """Whether pid is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_compile_timeout_leaves_no_process_behind(tmp_path):
    # a "compiler" that starts a pass of its own and hangs: on the timeout
    # both are killed and waited on, and no temporary file is left
    pidfile = tmp_path / "pass.pid"
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\nsleep 60 &\necho $! > {pidfile}\nwait\n")
    compiler.chmod(0o755)
    target = tmp_path / "out" / "lib.so"
    target.parent.mkdir()
    start = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        native.compile_library([str(compiler)], target, timeout=1.0)
    assert time.monotonic() - start < 30.0
    pid = int(pidfile.read_text())
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)
    assert list(target.parent.iterdir()) == []
