"""The C kernels against the Python ones, and the loader that builds them."""

import ctypes
import math
import os
import re
import stat
import struct
import subprocess
import sys
import sysconfig
import threading
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


def _arrays(us, ps, n):
    """The five arrays of a kernel call of n steps from each state u of us,
    with the FilterParams ps, or ps[m] for member m if ps is a list: row 0 of
    its states u, from which the kernel writes the rest."""
    ps = ps if isinstance(ps, list) else [ps] * len(us)
    states = np.empty((len(us), n + 1, 4))
    states[:, 0] = us
    return (states, np.empty((len(us), n + 1, 5)), np.empty((len(us), n + 1)),
            np.empty((len(us), 3), np.int64), np.array([native.constants(p) for p in ps]))


def _members(states, stages, energy, record):
    """For each trajectory of a kernel call, the bytes of every state,
    stage-value and energy row, non-finite ones included, and its record
    (first non-finite row, stabilized steps, line-search trials)."""
    return [(rows.tobytes(), stage_rows.tobytes(), vs.tobytes(), tuple(rec))
            for rows, stage_rows, vs, rec in zip(states, stages, energy, record.tolist())]


def _outcome(run, us, ps, dt, n):
    """A kernel's n steps from each state of us, in one call, with the
    parameters of _arrays: _members of the call, which returns None, or the
    exception it raised."""
    states, stages, energy, record, constants = _arrays(us, ps, n)
    try:
        assert run(states, stages, energy, record, constants, dt) is None
    except ZeroDivisionError as err:
        return type(err)
    return _members(states, stages, energy, record)


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
# the positive quiet NaN, math.nan, which fills a trajectory's rows from its
# first non-finite one on
NAN_BYTES = struct.pack("<d", math.nan)


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
# a NaN start, whose step 1 the C kernel once wrote as a negative NaN
@example(r=0.0, omega0=1.0, dt_omega=1e8, sign=1.0, us=[[math.nan, 0.0, 0.0, 0.0]], n=5,
         max_iter=50, tol=integrators._NEWTON_TOL, cutoffs=(1e-12, 1e-7),
         search=integrators._LINE_SEARCH)
@settings(max_examples=1500, deadline=None)
def test_dg_run_native_bit_identical_to_python(r, omega0, dt_omega, sign, us, n, max_iter, tol,
                                               cutoffs, search):
    # every byte of each trajectory's rows, non-finite ones included, and its
    # record, or the exception, with the solver constants patched as the
    # tests patch them and the omega0*dt limit lifted, so that the kernels
    # also meet the steps it rejects
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
    # step, though, and starts from the slopes at its own w: its rows and
    # record are those of a call on it alone.
    if kernel.endswith("native") and native.lib is None:
        pytest.skip("the C kernels did not load")
    run, p, dt, n = getattr(integrators, kernel), make_params(1.0, 0.99), 10.0, 20
    scale, table = integrators._scale(p), model.stage_table(p)
    first, second = ((np.array(x) * scale).tolist() for x in ([1.0, -2.0, 0.5, 3.0],
                                                              [-4.0, 3.5, 4.5, -3.0]))
    field = model.stage_field(model.stage_gradients(second, table), p)
    assert dt * p.omega0 * max(map(abs, field)) * max(k for _, k, _, _ in table) > 1.0
    members = _outcome(run, [first, second], p, dt, n)
    assert members == _outcome(run, [first], p, dt, n) + _outcome(run, [second], p, dt, n)
    assert [member[3][0] for member in members] == [0, 0]


def _mixed_batch(method):
    """A kernel name, its (p, dt), n and a batch of starts whose members meet
    different fates.  DG at r = 0.99 and omega0*dt = 10: 31 finite members,
    one of them of amplitude 1e300, whose every step is stabilized, and three
    that are not finite from row 1, two of them non-finite starts and one a
    finite start whose V overflows, which take no step.  RK4 at r = 0 and
    omega0*dt = 9e307: members that overflow at steps 1, 2 and 3, and two
    that stay finite."""
    rng = np.random.default_rng(29)
    if method is Method.DISCRETE_GRADIENT:
        p = make_params(1.0, 0.99)
        us = (rng.uniform(-5.0, 5.0, (30, 4)) * integrators._scale(p)).tolist()
        return "_dg_run", p, 10.0, 30, us + [[1e300, -1e300, 1e300, 1e300],
                                             [math.nan, 0.0, 0.0, 0.0], [0.0, 0.0, -math.inf, 1.0],
                                             [1e308, -1e308, 1e308, 1e308]]
    return "_rk4_run", make_params(1e300, 0.0), 9e7, 30, DIFFERENT_STEPS + rng.uniform(
        -5.0, 5.0, (29, 4)).tolist()


@needs_native
@pytest.mark.parametrize("method", list(Method))
def test_threaded_batch_matches_python_member_for_member(method):
    # however the threads share out the members, every byte of each one's
    # rows, non-finite ones included, and its record are the Python kernel's
    kernel, p, dt, n, us = _mixed_batch(method)
    members = _outcome(getattr(integrators, kernel + "_native"), us, p, dt, n)
    assert members == _outcome(getattr(integrators, kernel + "_python"), us, p, dt, n)
    steps = {member[3][0] for member in members}
    if method is Method.DISCRETE_GRADIENT:
        assert steps == {0, 1} and sum(member[3][1] for member in members) > 0
    else:
        assert steps == {0, 1, 2, 3}


@needs_native
def test_concurrent_calls_keep_their_own_batches():
    # four Python threads call the DG kernel at once (ctypes releases the GIL),
    # so the batches' threads outnumber the cores: each call's rows and
    # records are still those of the Python kernel on its own batch
    _, p, dt, n, us = _mixed_batch(Method.DISCRETE_GRADIENT)
    batches = [us[i:] + us[:i] for i in range(0, 32, 8)]
    want = [_outcome(integrators._dg_run_python, batch, p, dt, n) for batch in batches]
    got = [None] * len(batches)

    def run(i):
        for _ in range(5):
            got[i] = _outcome(integrators._dg_run_native, batches[i], p, dt, n)
            if got[i] != want[i]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


# Runs a batch of _mixed_batch in a fresh interpreter pinned to one CPU, whose
# kernel must then run it on the calling thread alone: argv[1] holds the
# starts, argv[2] receives the rows and the record.
_PINNED_RUN = """\
import os, sys
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1
from moogvcf import integrators, native
assert native.KERNEL == "native", native.KERNEL
batch = np.load(sys.argv[1])
arrays = [batch[name] for name in ("states", "stages", "energy", "record", "constants")]
getattr(integrators, str(batch["kernel"]))(*arrays, float(batch["dt"]))
np.savez(sys.argv[2], **dict(zip(("states", "stages", "energy", "record"), arrays)))
"""


@needs_native
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("method", list(Method))
def test_batch_on_one_cpu_gives_the_same_bytes(tmp_path, method):
    # every byte of every row, non-finite ones included, and the record are
    # those of the Python kernel, as a run on all the CPUs this process may
    # use gives them
    kernel, p, dt, n, us = _mixed_batch(method)
    states, stages, energy, record, constants = _arrays(us, p, n)
    np.savez(tmp_path / "batch.npz", states=states, stages=stages, energy=energy, record=record,
             constants=constants, kernel=kernel + "_native", dt=dt)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", _PINNED_RUN, str(tmp_path / "batch.npz"),
                    str(tmp_path / "pinned.npz")], env=env, check=True, timeout=300)
    pinned = np.load(tmp_path / "pinned.npz")
    got = _members(*(pinned[name] for name in ("states", "stages", "energy", "record")))
    assert got == _outcome(getattr(integrators, kernel + "_python"), us, p, dt, n)


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native"])
def test_one_member_dividing_by_zero_fails_a_large_batch(kernel):
    # at r = 0 with a zero coincidence cutoff, a member with w1 = 0 takes a
    # Newton update whose first component is exactly 0, where _dg_run_python
    # divides by zero: the whole 41-member call raises, as the 40 members
    # without it do not
    if kernel.endswith("native") and native.lib is None:
        pytest.skip("the C kernels did not load")
    run, p = getattr(integrators, kernel), make_params(1.0, 0.0)
    us = (np.random.default_rng(29).uniform(-5.0, 5.0, (40, 4)) * integrators._scale(p)).tolist()
    with mock.patch.object(integrators, "_COINCIDENCE_CUTOFF", 0.0):
        assert _outcome(run, us, p, 0.1, 20) is not ZeroDivisionError
        assert _outcome(run, us[:17] + [[0.0, 1.0, -2.0, 0.5]] + us[17:], p, 0.1, 20) is (
            ZeroDivisionError)


# Runs a batch of 64 stiff DG trajectories on a second thread of a fresh
# interpreter, pinned to one CPU if argv[1] is "1", and prints the CPUs it may
# use and the most threads the process had at once beyond its two.
_THREAD_COUNT = """\
import os, sys, threading
import numpy as np
from moogvcf import integrators, model, native
assert native.KERNEL == "native", native.KERNEL
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
p = model.make_params(1.0, 0.99)
x0s = np.random.default_rng(1).uniform(-5.0, 5.0, (64, 4))
tasks = len(os.listdir("/proc/self/task"))
run = threading.Thread(target=integrators.simulate_batch,
                       args=(x0s, p, integrators.StepConfig(10.0), 2000))
run.start()
most = tasks + 1
while run.is_alive():
    most = max(most, len(os.listdir("/proc/self/task")))
run.join()
print(len(os.sched_getaffinity(0)), most - tasks - 1)
"""


@needs_native
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("pinned", [False, True])
def test_batch_threads_never_outnumber_the_usable_cpus(pinned):
    # the calling thread is one of the batch's threads, so a call adds at
    # most one fewer than the CPUs the process may use, and none on one CPU;
    # with more than one, it adds some
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _THREAD_COUNT, str(int(pinned))], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    cpus, added = map(int, out.stdout.split())
    assert cpus == 1 if pinned else cpus == len(os.sched_getaffinity(0))
    assert added <= cpus - 1
    assert added >= 1 or cpus == 1


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


def _member(states, energy, stages, error):
    """One member's rows of a simulate_batch call as bytes, or its error."""
    if error is not None:
        return str(error), error.step
    return states.tobytes(), energy.tobytes(), stages.tobytes()


# r at 0, at 1, at the As boundary 5/12 and its neighbours, and anywhere
# between (make_params takes r = 0 or a normal float up to 1)
mixed_resonances = st.sampled_from([0.0, math.nextafter(5 / 12, 0.0), 5 / 12,
                                    math.nextafter(5 / 12, 1.0), 1.0]) | st.floats(
    2.2250738585072014e-308, 1.0)
mixed_members = st.lists(st.tuples(
    mixed_resonances, st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
    st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4)), min_size=1, max_size=5)
# a start that overflows at RK4's first step at r = 0 and omega0*dt = 9e307
OVERFLOWING = (make_params(1e300, 0.0), [3.0, -1.0, 2.0, -4.0], 9e7)


@pytest.mark.parametrize("kernel", ["native", "python"])
@given(members=mixed_members, method=st.sampled_from(list(Method)),
       dt=st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e), n=st.integers(1, 6),
       at=st.integers(0, 5), overflowing=st.booleans())
@settings(max_examples=60, deadline=None)
def test_mixed_parameter_batch_members_are_their_own_calls(kernel, members, method, dt, n, at,
                                                           overflowing):
    # each member of a batch with its own (omega0, r) gets the states, V and
    # stage values of a call on it alone, or the same IntegrationError step:
    # with the RK4 member that overflows at step 1, the others keep their
    # bytes; and a DG batch whose largest omega0 alone takes |omega0 * dt|
    # past MAX_DG_OMEGA0_DT is a ValueError naming dt
    if kernel == "native" and native.lib is None:
        pytest.skip("the C kernels did not load")
    ps = [make_params(omega0, r) for r, omega0, _ in members]
    x0s = [x0 for _, _, x0 in members]
    at = min(at, len(ps))
    if overflowing and method is Method.RK4:
        ps.insert(at, OVERFLOWING[0])
        x0s.insert(at, OVERFLOWING[1])
        dt = OVERFLOWING[2]
    cfg = StepConfig(dt, method)
    with mock.patch.multiple(integrators, _dg_run=getattr(integrators, f"_dg_run_{kernel}"),
                             _rk4_run=getattr(integrators, f"_rk4_run_{kernel}")):
        batch = integrators.simulate_batch(np.array(x0s), ps, cfg, n)
        for m, (p, x0) in enumerate(zip(ps, x0s)):
            alone = integrators.simulate_batch(np.array([x0]), p, cfg, n)
            assert _member(*(out[m] for out in batch)) == _member(*(out[0] for out in alone))
        if overflowing and method is Method.RK4:
            assert batch[3][at].step == 1
        largest = max(p.omega0 for p in ps)
        dt = integrators.MAX_DG_OMEGA0_DT / (2.0 * largest)  # the others' omega0*dt: at most half
        with mock.patch.object(native, "lib", mock.Mock()) as lib:
            with pytest.raises(ValueError, match="^dt = .* discrete-gradient limit"):
                integrators.simulate_batch(np.array(x0s[:at] + [[1.0, 0.0, 0.0, 0.0]] + x0s[at:]),
                                           ps[:at] + [make_params(4.0 * largest, 0.5)] + ps[at:],
                                           StepConfig(dt), 1)
        assert lib.mock_calls == []


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


# the reference's np.linalg.norm and the helper's stacked norm of a final
# state beyond the float range
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
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


def _constants(n_traj):
    return np.array([native.constants(make_params(1.0, 0.5))] * n_traj)


def _record(n_traj):
    return np.zeros((n_traj, 3), np.int64)


# (states, stages, energy, record, constants) of a kernel call, each but the
# one named wrong; the call of 2 trajectories of 3 rows is the right one
_bad_rows = {
    "float32": (np.zeros((2, 3, 4), np.float32), np.zeros((2, 3, 5))),
    "Fortran-ordered": (np.asfortranarray(np.zeros((2, 3, 4))), np.zeros((2, 3, 5))),
    "1-D": (np.zeros(4), np.zeros((1, 1, 5)), np.zeros((1, 1)), _record(1), _constants(1)),
    "2-D": (np.zeros((3, 4)), np.zeros((3, 5)), np.zeros((3, 1)), _record(3), _constants(3)),
    "mismatched rows": (np.zeros((2, 3, 4)), np.zeros((2, 2, 5))),
    "mismatched trajectories": (np.zeros((2, 3, 4)), np.zeros((1, 3, 5))),
    "no rows": (np.zeros((2, 0, 4)), np.zeros((2, 0, 5)), np.zeros((2, 0))),
    "no trajectories": (np.zeros((0, 3, 4)), np.zeros((0, 3, 5)), np.zeros((0, 3)), _record(0),
                        _constants(0).reshape(0, 30)),
    "strided trajectories": (np.zeros((4, 3, 4))[::2], np.zeros((2, 3, 5))),
    "swapped widths": (np.zeros((2, 3, 5)), np.zeros((2, 3, 4))),
    "read-only": (np.zeros((2, 3, 4)), _read_only(np.zeros((2, 3, 5)))),
    "a list": ([[[0.0] * 4] * 3], np.zeros((1, 3, 5)), np.zeros((1, 3)), _record(1),
               _constants(1)),
    "energy of other rows": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 2))),
    "energy of 3-D rows": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3, 1))),
    "read-only energy": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), _read_only(np.zeros((2, 3)))),
    "int32 record": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                     np.zeros((2, 3), np.int32)),
    "record of 2 values": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                           np.zeros((2, 2), np.int64)),
    "read-only record": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                         _read_only(_record(2))),
    "strided record": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)), _record(4)[::2]),
    "constants of other trajectories": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                                        _record(2), _constants(3)),
    "constants of 29 values": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                               _record(2), _constants(2)[:, :29].copy()),
    "strided constants": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)), _record(2),
                          _constants(4)[::2]),
    "read-only constants": (np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3)),
                            _record(2), _read_only(_constants(2))),
}


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native", "_rk4_run_python",
                                    "_rk4_run_native"])
@pytest.mark.parametrize("case", list(_bad_rows))
def test_kernels_check_their_arrays_before_the_library(kernel, case):
    # each kernel takes writable, C-ordered arrays of the same trajectories:
    # float64 rows of 4 states, 5 stage values and 1 energy, the same number
    # of each, an int64 record of 3 values and a float64 row of 30 constants;
    # anything else is a ValueError that never reaches the library
    case = _bad_rows[case]
    arrays = case + (np.zeros((2, 3)), _record(2), _constants(2))[len(case) - 2:]
    with mock.patch.object(native, "lib", mock.Mock()) as lib:
        with pytest.raises(ValueError):
            getattr(integrators, kernel)(*arrays, 0.1)
    assert lib.mock_calls == []


@pytest.mark.parametrize("kernel", ["_dg_run_python", "_dg_run_native"])
@pytest.mark.parametrize("omega0, dt", [(1.0, 1.01e306), (1e300, -1e7), (1e300, 1e300),
                                        (1.0, math.nan)])
def test_dg_kernels_check_omega0_dt_before_the_library(kernel, omega0, dt):
    # |omega0 * dt| above MAX_DG_OMEGA0_DT (or NaN) at the batch's largest
    # omega0, here its second member's, is a ValueError naming dt that never
    # reaches the library; the RK4 kernels have no such limit
    states, stages, energy = np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), np.zeros((2, 3))
    constants = np.array([native.constants(make_params(w0, 0.5)) for w0 in (1e-300, omega0)])
    with mock.patch.object(native, "lib", mock.Mock()) as lib:
        with pytest.raises(ValueError, match="^dt = .* discrete-gradient limit"):
            getattr(integrators, kernel)(states, stages, energy, _record(2), constants, dt)
    assert lib.mock_calls == []


@pytest.mark.parametrize("kernel", ["_dg_run", "_rk4_run"])
@pytest.mark.parametrize("side", ["python", "native"])
def test_dead_trajectory_costs_one_step(kernel, side):
    # a NaN start stops at row 1, and takes no step since its V is NaN: its
    # record for 1,000 steps is that for one, and every row from row 1 on is
    # the positive quiet NaN
    if side == "native" and native.lib is None:
        pytest.skip("the C kernels did not load")
    run, p = getattr(integrators, f"{kernel}_{side}"), make_params(1.0, 0.5)
    (one,), (many,) = (_outcome(run, [[math.nan, 0.0, 0.0, 0.0]], p, 0.1, n) for n in (1, 1000))
    assert many[3] == one[3] == (1, 0, 0)
    assert many[0][32:] == NAN_BYTES * 4000 and many[1][40:] == NAN_BYTES * 5000
    assert many[2] == NAN_BYTES * 1001


@pytest.mark.parametrize("kernel", ["_dg_run", "_rk4_run"])
@pytest.mark.parametrize("side", ["python", "native"])
def test_start_of_infinite_energy_takes_no_step(kernel, side):
    # every entry of the start is finite, but its V overflows: the kernel
    # writes V = inf to row 0 before any step and takes none, so its record
    # names row 1 with no work at 100,000 steps (RK4 steps from it would stay
    # finite, and DG steps would be stabilized), and every row from row 1 on
    # is NaN; simulate_batch raises its ValueError on that row 0
    if side == "native" and native.lib is None:
        pytest.skip("the C kernels did not load")
    run, p, n = getattr(integrators, f"{kernel}_{side}"), make_params(1.0, 0.5), 100_000
    arrays = states, stages, energy, record, _ = _arrays([[1e308] * 4], p, n)
    run(*arrays, 0.1)
    assert record.tolist() == [[1, 0, 0]]
    assert energy[0, 0] == math.inf and np.isnan(energy[0, 1:]).all()
    assert np.isnan(states[0, 1:]).all() and np.isnan(stages[0, 1:]).all()
    assert np.isfinite(stages[0, 0]).all()
    method = Method.RK4 if kernel == "_rk4_run" else Method.DISCRETE_GRADIENT
    with mock.patch.multiple(integrators, **{kernel: run}):
        with pytest.raises(ValueError, match=r"^x0 must have a finite energy V\(D x0\), got "):
            integrators.simulate_batch([[1e308] * 4], p, StepConfig(0.1, method), n)


# starts with signed zeros, subnormals, and entries up to 1e6 of either sign
row0_entries = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]) | st.floats(-1e6, 1e6)


@pytest.mark.parametrize("side", ["python", "native"])
@pytest.mark.parametrize("method", list(Method))
@given(r=resonances, xs=st.lists(st.lists(row0_entries, min_size=4, max_size=4), min_size=1,
                                  max_size=4))
@example(r=0.5, xs=[[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 1.0, -5e-324]])
@example(r=0.0, xs=[[-0.0, 0.0, -0.0, 0.0]])
@settings(max_examples=100, deadline=None)
def test_kernels_write_the_stage_values_of_row_0(side, method, r, xs):
    # row 0 of the stage values, which the kernel writes, is
    # model.stage_tanh(D x, model.stage_table(p)) of each start x, bit for
    # bit, for both methods and on both kernels, D x as x * _scale(p) rounds
    if side == "native" and native.lib is None:
        pytest.skip("the C kernels did not load")
    p, rk4 = make_params(1.0, r), method is Method.RK4
    arrays = _, stages, _, _, _ = integrators._start(np.array(xs), [p] * len(xs), 1, rk4)
    getattr(integrators, f"{'_rk4_run' if rk4 else '_dg_run'}_{side}")(*arrays, 0.1)
    with np.errstate(over="ignore"):
        ws = (np.array(xs) * integrators._scale(p)).tolist()
    want = [t for w in ws for t in model.stage_tanh(w, model.stage_table(p))]
    assert _bits(stages[:, 0].ravel().tolist()) == _bits(want)


# state_energy's inputs: signed zeros, overflowing and tiny amplitudes, and
# NaNs and infinities, of any payload and sign
energy_entries = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)).map(
        lambda se: se[0] * 10.0 ** se[1]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# a negative NaN with payload 1, which a sum with math.nan may keep
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]


@needs_native
@given(r=resonances, ws=st.lists(energy_entries, min_size=4, max_size=40).map(
    lambda v: v[:len(v) // 4 * 4]))
@example(r=0.0, ws=[NEGATIVE_NAN, math.nan, 0.0, 0.0])
@example(r=0.3, ws=[1.0, -math.nan, NEGATIVE_NAN, math.inf])
@settings(max_examples=1000, deadline=None)
def test_state_energy_native_bit_identical_to_python(r, ws):
    # V of each state of ws, as a zero-step DG call writes it to row 0 of its
    # energies: the C kernels' state_energy against lyapunov._energy_rows,
    # one NaN for any NaN V
    p, us = make_params(1.0, r), np.reshape(ws, (-1, 4)).tolist()
    native_run, python_run = (_outcome(run, us, p, 0.1, 0)
                              for run in (integrators._dg_run_native, integrators._dg_run_python))
    assert native_run == python_run
    for (_, _, energy, _), v in zip(native_run, lyapunov.energy_column(us, p).tolist()):
        assert energy == (NAN_BYTES if math.isnan(v) else struct.pack("<d", v))


def test_kernel_names_the_selection_and_is_read_only():
    assert native.KERNEL == ("python" if native.lib is None else "native")
    assert (integrators._dg_run is integrators._dg_run_native) == (native.KERNEL == "native")
    with pytest.raises(AttributeError):
        native.KERNEL = "python"


def test_ctypes_signatures_match_the_c_definitions():
    # Each exported definition of _kernels.c against its restype and argtypes
    # in native._SIGNATURES, read from the source, so that the test needs no
    # compiler: a parameter dropped on one side only, or a long passed as a
    # double, would hand C the wrong arguments without an error.
    argtypes = {"double": {ctypes.c_double}, "long": {ctypes.c_long},
                "double *": {ctypes.POINTER(ctypes.c_double)},
                "long *": {ctypes.POINTER(ctypes.c_long)}}
    defined = re.findall(r"^(int|void) (\w+)\(([^)]*)\)\n\{", native.SOURCE.read_text(),
                         re.MULTILINE)
    assert sorted(name for _, name, _ in defined) == sorted(native._SIGNATURES) == [
        "dg_run", "rk4_run"]
    for c_restype, name, params in defined:
        restype, types = native._SIGNATURES[name]
        assert restype is (ctypes.c_int if c_restype == "int" else None), name
        params = [re.fullmatch(r"(?:const )?(double|long) (\*?)\w+", " ".join(param.split()))
                  for param in params.split(",")]
        assert all(params) and len(params) == len(types), name
        for i, (param, argtype) in enumerate(zip(params, types)):
            assert argtype in argtypes[f"{param[1]} {param[2]}".strip()], (name, i)


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
    # once the new library is in place, a cache miss keeps the CACHE_KEEP most
    # recently loaded libraries, itself among them, and deletes the older
    # ones of other keys (an older source or another compiler); other names
    # are left alone
    cache = tmp_path / "moogvcf"
    cache.mkdir(mode=0o700)
    stale = [cache / f"_kernels-{i:032d}.so" for i in range(native.CACHE_KEEP + 1)]
    kept = [cache / "notes.txt", cache / ".build-x.so"]
    for age, path in enumerate(stale + kept):
        path.write_bytes(b"")
        os.utime(path, (time.time() - 1000 * (age + 1),) * 2)  # stale[0] loaded last
    lines = _import_in_child(tmp_path)
    assert lines[-1] == "native"
    assert all(path.exists() for path in stale[:native.CACHE_KEEP - 1] + kept)
    assert not any(path.exists() for path in stale[native.CACHE_KEEP - 1:])
    assert len(list(cache.glob("_kernels-*.so"))) == native.CACHE_KEEP


@needs_native
def test_alternating_keys_compile_once_each(tmp_path):
    # two checkouts or compilers that share a cache, imported in turn, each
    # compile their library once: a miss keeps the other's, and a load
    # refreshes a library's mtime, so the cleanup keeps what is in use
    default = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    keys = [{}, {"CC": f"{default} -DMOOGVCF_SECOND_KEY"}]
    runs = [_import_in_child(tmp_path, **env) for env in keys + keys]
    assert [run[-1] for run in runs] == ["native"] * 4
    assert [any("compiled" in line for line in run) for run in runs] == [True, True, False, False]
    libraries = list((tmp_path / "moogvcf").glob("_kernels-*.so"))
    assert len(libraries) == 2
    for library in libraries:
        os.utime(library, (1.0, 1.0))
    _import_in_child(tmp_path)
    assert sorted(library.stat().st_mtime > 1.0 for library in libraries) == [False, True]


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
    # copy of _kernels.c whose batch driver runs one trajectory past the end
    # of a two-trajectory rk4_run batch, on whichever thread takes it, aborts
    # with an ASan report, and the source as it stands runs the same call
    # clean.
    runtime = _asan_runtime()
    if runtime is None:
        pytest.skip("needs gcc and its AddressSanitizer runtime")
    source, take = native.SOURCE.read_text(), "memory_order_relaxed)) < b->n_traj)"
    assert source.count(take) == 1
    if past_the_end:
        source = source.replace(take, take.replace("<", "<="))
    (tmp_path / "kernels.c").write_text(source)
    library = tmp_path / "kernels.so"
    subprocess.run(["gcc", "-fsanitize=address", "-fno-omit-frame-pointer", *native.FLAGS, "-o",
                    str(library), str(tmp_path / "kernels.c"), "-lm"], check=True, timeout=300)
    call = ("import ctypes, sys\n"
            "import numpy as np\n"
            "lib, address = ctypes.CDLL(sys.argv[1]), lambda a: ctypes.c_void_p(a.ctypes.data)\n"
            "constants, states = np.ones((2, 30)), np.zeros((2, 3, 4))\n"
            "stages, energy = np.zeros((2, 3, 5)), np.zeros((2, 3))\n"
            "record = np.zeros((2, 3), np.int64)\n"
            "lib.rk4_run(address(constants), ctypes.c_double(0.1), ctypes.c_long(2), "
            "ctypes.c_long(2), address(states), address(stages), address(energy), "
            "address(record))\n")
    env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", call, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)
    if past_the_end:
        assert proc.returncode != 0
        assert "ERROR: AddressSanitizer: heap-buffer-overflow" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
