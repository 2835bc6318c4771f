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

from moogvcf import experiments, integrators, lyapunov, model, native
from moogvcf.integrators import IntegrationError, Method, StepConfig, simulate
from moogvcf.model import make_params
from moogvcf.rng import substream

SRC = Path(native.__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(native.lib is None, reason="the C kernels did not load")


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(run, us, p, dt, n):
    """A kernel's n steps from each state of us, in one call: for each
    trajectory the bytes of the state and stage-value rows it wrote, or the
    step that its IntegrationError names, and what the call returned; or the
    exception the call raised."""
    states, stages, table = np.empty((len(us), n + 1, 4)), np.empty((len(us), n + 1, 5)), (
        model.stage_table(p))
    for u, rows, stage_rows in zip(us, states, stages):
        rows[0], stage_rows[0] = u, model.stage_tanh(u, table)
    try:
        out = run(states, stages, p, dt)
    except ZeroDivisionError as err:
        return type(err)
    return [(rows.tobytes(), stage_rows.tobytes()) if err is None else (IntegrationError, err.step)
            for rows, stage_rows, err in zip(states, stages, integrators._failures(states))], out


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


# Batches of one to four states, with omega0*dt beyond the DG limit too: at
# r = 0 and omega0*dt = 9e307 the example's first three RK4 states overflow
# at step 2, at step 1 and never, and its non-finite start fails at step 1, so
# members become non-finite at different steps.
batches = st.lists(states, min_size=1, max_size=4)
dt_omegas = st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e) | st.floats(5e307, 1.7e308)
DIFFERENT_STEPS = [[1.0, -2.0, 0.5, 3.0], [3.0, -1.0, 2.0, -4.0], [0.0, 0.0, 0.0, 1.0],
                   [math.nan, 0.0, 0.0, 0.0]]


@needs_native
@given(
    r=resonances,
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=dt_omegas,
    sign=st.sampled_from([1.0, 1.0, 1.0, -1.0]),
    us=batches,
    n=st.sampled_from([1, 5, 20]),
    max_iter=st.sampled_from([0, 1, 3, 50]),
    tol=st.sampled_from([integrators._NEWTON_TOL, 0.0, -1.0]),
    cutoffs=st.sampled_from([(1e-12, 1e-7), (0.0, 0.0), (1e-3, 1e-2)]),
    search=st.sampled_from([integrators._LINE_SEARCH, (), (1.0,), (0.5, 0.25, 1.0)]),
)
# a backward step whose Newton pivot 1 - dt*omega0*e1 is 0 at v = w
@example(r=0.5, omega0=1.0, dt_omega=1.0, sign=-1.0, us=[[0.0, 0.0, 0.0, 0.0]], n=1,
         max_iter=50, tol=0.0, cutoffs=(1e-12, 1e-7), search=integrators._LINE_SEARCH)
@example(r=0.0, omega0=1.0, dt_omega=9e307, sign=1.0, us=DIFFERENT_STEPS, n=5, max_iter=50,
         tol=integrators._NEWTON_TOL, cutoffs=(1e-12, 1e-7), search=integrators._LINE_SEARCH)
@settings(max_examples=1500, deadline=None)
def test_dg_run_native_bit_identical_to_python(r, omega0, dt_omega, sign, us, n, max_iter, tol,
                                               cutoffs, search):
    # each trajectory's states and stage values or the step its error names,
    # and (stabilized, trials) summed over the batch, or the exception, with
    # the solver constants patched as the tests patch them and the omega0*dt
    # limit lifted, so that the kernels also meet the steps it rejects
    p, dt = make_params(omega0, r), sign * dt_omega / omega0
    with mock.patch.multiple(integrators, _NEWTON_MAX_ITER=max_iter, _NEWTON_TOL=tol,
                             _COINCIDENCE_CUTOFF=cutoffs[0], _DERIVATIVE_CUTOFF=cutoffs[1],
                             _LINE_SEARCH=search, MAX_DG_OMEGA0_DT=math.inf):
        want = _outcome(integrators._dg_run_python, us, p, dt, n)
        got = _outcome(integrators._dg_run_native, us, p, dt, n)
    assert got == want


@needs_native
@given(
    r=resonances,
    omega0=st.sampled_from([1.0, 100.0, 1e300]),
    dt_omega=dt_omegas,
    xs=batches,
    n=st.sampled_from([1, 5, 20]),
)
@example(r=0.0, omega0=1.0, dt_omega=9e307, xs=DIFFERENT_STEPS, n=5)
@settings(max_examples=500, deadline=None)
def test_rk4_run_native_bit_identical_to_python(r, omega0, dt_omega, xs, n):
    p, dt = make_params(omega0, r), dt_omega / omega0
    assert _outcome(integrators._rk4_run_native, xs, p, dt, n) == _outcome(
        integrators._rk4_run_python, xs, p, dt, n)


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native"])
def test_batch_member_solves_start_from_its_own_slopes(kernel):
    # The second member's first solve is stiff: its residual norm at v = w
    # times max(k_i) exceeds 1, so a solve that came after the first member's
    # last would start from that one's slopes.  It is its trajectory's first
    # step, though, and starts from the slopes at its own w: its rows are those
    # of a call on it alone, and the work counters are the sums of the two.
    if kernel.endswith("native") and native.lib is None:
        pytest.skip("the C kernels did not load")
    run, p, dt, n = getattr(integrators, kernel), make_params(1.0, 0.99), 10.0, 20
    scale, table = integrators._scale(p), model.stage_table(p)
    first, second = ((np.array(x) * scale).tolist() for x in ([1.0, -2.0, 0.5, 3.0],
                                                              [-4.0, 3.5, 4.5, -3.0]))
    field = model.stage_field(model.stage_gradients(second, table), p)
    assert dt * p.omega0 * max(map(abs, field)) * max(k for _, k, _, _ in table) > 1.0
    (members, work), alone = _outcome(run, [first, second], p, dt, n), [
        _outcome(run, [u], p, dt, n) for u in (first, second)]
    assert members == alone[0][0] + alone[1][0]
    assert work == tuple(map(sum, zip(alone[0][1], alone[1][1])))
    assert IntegrationError not in {member[0] for member in members}


# (p, cfg, n_steps) of simulate_batch runs: stiff DG steps, RK4 steps, and
# RK4 steps at omega0*dt = 9e307, where the first three states of
# DIFFERENT_STEPS overflow at step 2, at step 1 and never
BATCH_RUNS = [(make_params(1.0, 0.99), StepConfig(10.0), 30),
              (make_params(1.0, 0.5), StepConfig(0.05, Method.RK4), 30),
              (make_params(1e300, 0.0), StepConfig(9e7, Method.RK4), 5)]


@pytest.mark.parametrize("run", range(len(BATCH_RUNS)))
def test_simulate_batch_gives_the_bytes_of_simulate_calls(kernels, run):
    # each member's states, V and stage values are those of simulate from its
    # x0, and its error the one simulate raises: members fail at their own
    # steps
    p, cfg, n = BATCH_RUNS[run]
    x0s = DIFFERENT_STEPS[:3] + [[-4.0, 3.5, 4.5, -3.0], [0.25, -0.5, 0.0, -0.0]]
    states, energy, stages, errors = integrators.simulate_batch(np.array(x0s), p, cfg, n)
    assert (states.shape, energy.shape, stages.shape) == ((5, n + 1, 4), (5, n + 1), (5, n + 1, 5))
    for x0, rows, V, stage_rows, error in zip(x0s, states, energy, stages, errors):
        try:
            traj = simulate(x0, p, cfg, n)
        except IntegrationError as err:
            assert (str(error), error.step) == (str(err), err.step)
            continue
        assert error is None
        assert [traj.states.tobytes(), traj.V.tobytes(), traj.stages.tobytes()] == [
            rows.tobytes(), V.tobytes(), stage_rows.tobytes()]
    if run == 2:
        assert [0 if error is None else error.step for error in errors[:3]] == [2, 1, 0]


def _ref_decay_study(p, seed, n_states, cfg, t_end):
    """experiments.run_decay_study as it stood with one simulate call per state."""
    tol, n_steps = experiments._DECAY_TOLERANCE[cfg.method], max(1, int(round(t_end / cfg.dt)))
    summaries = []
    for i in range(n_states):
        stream = substream(seed, i)
        x0 = tuple(stream.uniform(-5.0, 5.0) for _ in range(4))
        try:
            traj = simulate(np.array(x0), p, cfg, n_steps)
        except IntegrationError as err:
            max_inc = final_norm = math.nan
            error = str(err)
        else:
            increases = np.diff(traj.V)
            max_inc = float(increases.max()) if increases.size else 0.0
            final_norm = float(np.linalg.norm(traj.states[-1]))
            error = None
        summaries.append(experiments.TrajectorySummary(
            omega0=p.omega0, r=p.r, method=cfg.method.value, dt=cfg.dt, state_index=i, x0=x0,
            max_v_increase=max_inc, final_norm=final_norm, passed=max_inc <= tol, error=error))
    return summaries


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("batch_rows", [2 ** 16, 50, 1])
def test_decay_study_matches_per_state_reference(kernels, monkeypatch, batch_rows):
    # every summary, on one kernel call per cell and in blocks of 4 and of 1
    # states; in the last cell, two of the ten RK4 states overflow at step 2
    # and the final norms of the others overflow
    monkeypatch.setattr(experiments, "_BATCH_ROWS", batch_rows)
    cells = [(make_params(1.0, r), StepConfig(dt)) for r in (0.0, 0.1, 0.99, 1.0)
             for dt in (0.1, 10.0)]
    cells += [(make_params(1.0, 0.5), StepConfig(0.05, Method.RK4)),
              (make_params(1e300, 0.0), StepConfig(8.5e7, Method.RK4))]
    for p, cfg in cells:
        got = experiments.run_decay_study(p, 7, 10, cfg, 10 * cfg.dt).summaries
        assert repr(got) == repr(_ref_decay_study(p, 7, 10, cfg, 10 * cfg.dt))


def _read_only(rows):
    rows.setflags(write=False)
    return rows


_bad_rows = {
    "float32": (np.zeros((2, 3, 4), np.float32), np.zeros((2, 3, 5))),
    "Fortran-ordered": (np.asfortranarray(np.zeros((2, 3, 4))), np.zeros((2, 3, 5))),
    "1-D": (np.zeros(4), np.zeros((1, 1, 5))),
    "2-D": (np.zeros((3, 4)), np.zeros((3, 5))),
    "mismatched rows": (np.zeros((2, 3, 4)), np.zeros((2, 2, 5))),
    "mismatched trajectories": (np.zeros((2, 3, 4)), np.zeros((1, 3, 5))),
    "no rows": (np.zeros((2, 0, 4)), np.zeros((2, 0, 5))),
    "no trajectories": (np.zeros((0, 3, 4)), np.zeros((0, 3, 5))),
    "strided trajectories": (np.zeros((4, 3, 4))[::2], np.zeros((2, 3, 5))),
    "swapped widths": (np.zeros((2, 3, 5)), np.zeros((2, 3, 4))),
    "read-only": (np.zeros((2, 3, 4)), _read_only(np.zeros((2, 3, 5)))),
    "a list": ([[[0.0] * 4] * 3], np.zeros((1, 3, 5))),
}


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native", "_rk4_run_python",
                                    "_rk4_run_native"])
@pytest.mark.parametrize("case", list(_bad_rows))
def test_kernels_check_their_arrays_before_the_library(kernel, case):
    # each kernel takes writable, C-ordered float64 arrays of the same
    # trajectories and rows, 4 and 5 wide; anything else is a ValueError that
    # never reaches the library
    states, stages = _bad_rows[case]
    with mock.patch.object(native, "lib", mock.Mock()) as lib:
        with pytest.raises(ValueError):
            getattr(integrators, kernel)(states, stages, make_params(1.0, 0.5), 0.1)
    assert lib.mock_calls == []


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native"])
@pytest.mark.parametrize("omega0, dt", [(1.0, 1.01e306), (1e300, -1e7), (1e300, 1e300),
                                        (1.0, math.nan)])
def test_dg_kernels_check_omega0_dt_before_the_library(kernel, omega0, dt):
    # |omega0 * dt| above MAX_DG_OMEGA0_DT (or NaN) is a ValueError naming dt
    # that never reaches the library; the RK4 kernels have no such limit
    states, stages = np.zeros((2, 3, 4)), np.zeros((2, 3, 5))
    with mock.patch.object(native, "lib", mock.Mock()) as lib:
        with pytest.raises(ValueError, match="^dt = .* discrete-gradient limit"):
            getattr(integrators, kernel)(states, stages, make_params(omega0, 0.5), dt)
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


def _asan_runtime():
    """The path of gcc's AddressSanitizer runtime, or None without gcc or it."""
    try:
        out = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    path = out.stdout.strip()
    return path if out.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.parametrize("past_the_end", [False, True])
def test_asan_build_reports_an_out_of_bounds_write(tmp_path, past_the_end):
    # The CI step that runs the kernels under AddressSanitizer catches a
    # kernel that steps outside its arrays: built with -fsanitize=address, a
    # copy of _kernels.c whose rk4_run runs one trajectory past the end of a
    # two-trajectory batch aborts with an ASan report, and the source as it
    # stands runs the same call clean.
    runtime = _asan_runtime()
    if runtime is None:
        pytest.skip("needs gcc and its AddressSanitizer runtime")
    source, loop = native.SOURCE.read_text(), "for (m = 0; m < n_traj; m++)\n        rk4_trajectory("
    assert source.count(loop) == 1
    if past_the_end:
        source = source.replace(loop, loop.replace("m < n_traj", "m <= n_traj"))
    (tmp_path / "kernels.c").write_text(source)
    library = tmp_path / "kernels.so"
    subprocess.run(["gcc", "-fsanitize=address", "-fno-omit-frame-pointer", *native.FLAGS, "-o",
                    str(library), str(tmp_path / "kernels.c"), "-lm"], check=True, timeout=300)
    call = ("import ctypes, sys\n"
            "import numpy as np\n"
            "lib, double = ctypes.CDLL(sys.argv[1]), ctypes.c_double\n"
            "states, stages = np.zeros((2, 3, 4)), np.zeros((2, 3, 5))\n"
            "lib.rk4_run((double * 30)(*[1.0] * 30), double(0.1), ctypes.c_long(2), "
            "ctypes.c_long(2), ctypes.c_void_p(states.ctypes.data), "
            "ctypes.c_void_p(stages.ctypes.data))\n")
    env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", call, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)
    if past_the_end:
        assert proc.returncode != 0
        assert "ERROR: AddressSanitizer: heap-buffer-overflow" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
