import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moogvcf import experiments, integrators, lyapunov
from moogvcf.experiments import (
    SpecValidationError,
    SweepSpec,
    detect_threshold,
    run_decay_study,
    run_definiteness_sweep,
    run_gradcheck,
    run_sweep,
)
from moogvcf.integrators import Method, StepConfig
from moogvcf.lyapunov import MatrixFamily, Verdict, certify
from moogvcf.model import make_params
from moogvcf.rng import SplitMix64, substream


def test_splitmix_reference_sequence():
    # published SplitMix64 outputs for seed 1234567
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix_uniform_range_and_determinism():
    a = substream(42, 3)
    b = substream(42, 3)
    xs = [a.uniform(-5, 5) for _ in range(1000)]
    assert xs == [b.uniform(-5, 5) for _ in range(1000)]
    assert all(-5.0 <= x < 5.0 for x in xs)
    assert substream(42, 4).uniform() != xs[0]


def test_spec_from_dict_minimal():
    spec = SweepSpec.from_dict({
        "r": [0.5], "omega0": [1], "families": ["As"],
        "seed": 1, "samples_per_point": 1,
    })
    assert spec.r_grid == (0.5,)
    assert spec.omega0_grid == (1.0,)
    assert spec.families == (MatrixFamily.AS,)
    assert spec.method is Method.DISCRETE_GRADIENT


@pytest.mark.parametrize("patch,path", [
    ({"r": [2.0]}, "r[0]"),
    ({"r": []}, "r"),
    ({"r": [0.5, 0.2]}, "r"),
    ({"omega0": [0.0]}, "omega0[0]"),
    ({"families": ["Zs"]}, "families[0]"),
    ({"seed": -1}, "seed"),
    ({"samples_per_point": 0}, "samples_per_point"),
    ({"method": "leapfrog"}, "method"),
    ({"dt": -0.1}, "dt"),
    ({"bogus": 1}, "bogus"),
    ({"dt": math.inf}, "dt"),
    ({"dt": math.nan}, "dt"),
    ({"omega0": [1.0, math.inf]}, "omega0[1]"),
    ({"omega0": [math.nan]}, "omega0[0]"),
    ({"r": [0.0, 5e-324]}, "r[1]"),
    ({"r": [2.2250738585072014e-308 / 2]}, "r[0]"),
    ({"r": [math.nan]}, "r[0]"),
    ({"families": [["As"]]}, "families[0]"),
    ({"method": ["dg"]}, "method"),
    ({"families": ["As", "Bs", "As"]}, "families[2]"),
    ({"families": ["As", "As"]}, "families[1]"),
    ({"dt": 1e308, "n_steps": 10}, "dt"),
    ({"n_steps": 10 ** 400}, "n_steps"),
    ({"n_steps": 10 ** 12}, "n_steps"),
    ({"n_steps": experiments._MAX_STEPS + 1}, "n_steps"),
    ({"samples_per_point": 10 ** 15}, "samples_per_point"),
    ({"dt": 10 ** 400}, "dt"),  # JSON integers beyond the float range
    ({"omega0": [10 ** 400]}, "omega0[0]"),
    ({"r": [10 ** 400]}, "r[0]"),
    ({"omega0": [1.0, 1e300], "dt": 1.01e6}, "dt"),  # omega0 * dt above MAX_DG_OMEGA0_DT
])
def test_spec_validation_paths(patch, path):
    data = {"r": [0.5], "omega0": [1], "families": ["As"],
            "seed": 1, "samples_per_point": 1}
    data.update(patch)
    with pytest.raises(SpecValidationError) as exc:
        SweepSpec.from_dict(data)
    assert exc.value.path == path


def test_spec_size_caps_admit_their_limit():
    # n_steps at experiments._MAX_STEPS and trajectories x n_steps at
    # _MAX_SWEEP_STEPS pass validation, which starts no run
    data = {"r": [0.5, 1.0], "omega0": [1.0], "families": ["As"], "seed": 1,
            "samples_per_point": 50, "n_steps": experiments._MAX_STEPS}
    assert SweepSpec.from_dict(data).n_steps == experiments._MAX_STEPS
    with pytest.raises(SpecValidationError) as exc:
        SweepSpec.from_dict({**data, "samples_per_point": 51})
    assert exc.value.path == "samples_per_point"


def test_definiteness_sweep_verdict_flip():
    spec = SweepSpec.from_dict({
        "r": [round(k * 0.01, 2) for k in range(101)],
        "omega0": [1],
        "families": ["As"],
        "seed": 1,
        "samples_per_point": 1,
    })
    result = run_definiteness_sweep(spec.families, spec.omega0_grid, spec.r_grid)
    verdicts = {rep.r: rep.verdict for rep in result.reports}
    assert verdicts[0.41] is Verdict.NEGATIVE_DEFINITE
    assert verdicts[0.42] is Verdict.INDEFINITE
    assert abs(result.thresholds["As"] - 5.0 / 12.0) < 1e-6


def test_definiteness_sweep_bs_full_range():
    spec = SweepSpec.from_dict({
        "r": [round(k * 0.05, 2) for k in range(21)],
        "omega0": [1],
        "families": ["Bs"],
        "seed": 1,
        "samples_per_point": 1,
    })
    result = run_definiteness_sweep(spec.families, spec.omega0_grid, spec.r_grid)
    for rep in result.reports:
        if rep.r < 1.0:
            assert rep.verdict is Verdict.NEGATIVE_DEFINITE
        else:
            assert rep.verdict is Verdict.NEGATIVE_SEMIDEFINITE
    assert abs(result.thresholds["Bs"] - 1.0) < 1e-6


def test_definiteness_sweep_qs_positive_grid():
    spec = SweepSpec.from_dict({
        "r": [round(0.1 * k, 1) for k in range(1, 11)],
        "omega0": [1],
        "families": ["QsWorstCase"],
        "seed": 1,
        "samples_per_point": 1,
    })
    result = run_definiteness_sweep(spec.families, spec.omega0_grid, spec.r_grid)
    for rep in result.reports:
        if rep.r < 1.0:
            assert rep.verdict is Verdict.NEGATIVE_DEFINITE
    assert abs(result.thresholds["QsWorstCase"] - 1.0) < 1e-6


def test_definiteness_sweep_qs_certifies_r0():
    spec = SweepSpec.from_dict({
        "r": [0.0, 0.5, 1.0],
        "omega0": [1, 10],
        "families": ["QsWorstCase"],
        "seed": 1,
        "samples_per_point": 1,
    })
    result = run_definiteness_sweep(spec.families, spec.omega0_grid, spec.r_grid)
    assert [(rep.omega0, rep.r, rep.verdict) for rep in result.reports] == [
        (omega0, r, verdict)
        for omega0 in (1.0, 10.0)
        for r, verdict in ((0.0, Verdict.NEGATIVE_DEFINITE),
                           (0.5, Verdict.NEGATIVE_DEFINITE),
                           (1.0, Verdict.NEGATIVE_SEMIDEFINITE))
    ]
    assert abs(result.thresholds["QsWorstCase"] - 1.0) < 1e-6


def test_definiteness_sweep_passes_its_tolerance():
    # the verdict tolerance reaches every report and the bisection: at 0.1
    # the As boundary is where the largest eigenvalue crosses -0.1
    grid = [round(0.1 * k, 1) for k in range(6)]
    result = run_definiteness_sweep([MatrixFamily.AS], [1.0, 4.0], grid, tol=0.1)
    assert [(rep.omega0, rep.r, rep.tol) for rep in result.reports] == [
        (omega0, r, 0.1) for omega0 in (1.0, 4.0) for r in grid]
    r_star = result.thresholds["As"]
    assert certify(MatrixFamily.AS, make_params(1.0, r_star - 1e-6)).max_eig < -0.1
    assert certify(MatrixFamily.AS, make_params(1.0, r_star + 1e-6)).max_eig > -0.1


def test_definiteness_sweep_later_omega0_rows_are_their_own_certificates():
    # the rows after the first repeat its eigenvalues; each must still be
    # the certificate of its own (omega0, r), bit for bit
    grid = [0.0, 1e-300, 0.2, 5.0 / 12.0, 0.7, 1.0]
    families = list(MatrixFamily)
    result = run_definiteness_sweep(families, [1.0, 250.0], grid)
    assert [repr(rep) for rep in result.reports] == [
        repr(certify(family, make_params(omega0, r)))
        for family in families for omega0 in (1.0, 250.0) for r in grid]


def test_detect_threshold_uses_report_tolerance():
    # With a verdict tolerance of 0.1 the As boundary moves to where the
    # largest eigenvalue crosses -0.1, and bisection must use that same
    # tolerance instead of recertifying at the default.
    reports = [certify(MatrixFamily.AS, make_params(1.0, r), tol=0.1)
               for r in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
    r_star = detect_threshold(reports)
    flags = [rep.verdict is Verdict.NEGATIVE_DEFINITE for rep in reports]
    k = flags.index(False)
    assert reports[k - 1].r < r_star < reports[k].r
    below = certify(MatrixFamily.AS, make_params(1.0, r_star - 1e-6)).max_eig
    above = certify(MatrixFamily.AS, make_params(1.0, r_star + 1e-6)).max_eig
    assert below < -0.1 < above
    assert detect_threshold(reports[:k]) is None


def test_decay_study_discrete_gradient_boundary_resonance():
    p = make_params(1.0, 1.0)
    result = run_decay_study(p, seed=11, n_states=32, cfg=StepConfig(dt=0.05), t_end=50.0)
    assert len(result.summaries) == 32
    assert result.all_pass
    for s in result.summaries:
        assert s.max_v_increase <= 1e-10


def test_decay_study_rk4():
    p = make_params(1.0, 0.5)
    cfg = StepConfig(dt=0.01, method=Method.RK4)
    result = run_decay_study(p, seed=5, n_states=4, cfg=cfg, t_end=120.0)
    assert result.all_pass
    for s in result.summaries:
        assert s.max_v_increase <= 1e-9
        assert s.final_norm < 1e-3


@pytest.mark.filterwarnings("error")  # numpy warns on np.uint64 scalar overflow
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3),
       n=st.integers(0, 1000))
@example(seeds=[0], n=1000)
@example(seeds=[2 ** 64 - 1], n=1000)
@example(seeds=[2 ** 64 - 1, 0, 12345678901234567890], n=3)
@settings(max_examples=50, deadline=None)
def test_draw_starts_are_the_substream_draws(seeds, n):
    # row j * n + i holds the first four substream(seeds[j], i).uniform(-5, 5)
    # draws, bit for bit, with no warning from the wrapping uint64 arithmetic
    want = [v for seed in seeds for i in range(n) for stream in [substream(seed, i)]
            for v in [stream.uniform(-5.0, 5.0) for _ in range(4)]]
    got = experiments._draw_starts(seeds, n)
    assert got.shape == (len(seeds) * n, 4) and got.dtype == np.float64
    assert got.tobytes() == struct.pack(f"<{len(want)}d", *want)


# rows with signed zeros, subnormals, 1e+-300 and the largest float, some of
# whose norms overflow to inf
norm_entries = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                                -1e-300, 1e300, -1e300, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@given(rows=st.lists(st.lists(norm_entries, min_size=4, max_size=4), min_size=1, max_size=50))
@example(rows=[[1e300, -1e300, 0.0, -0.0], [1.7976931348623157e308, 1.0, 0.0, 0.0],
               [-0.0, -0.0, -0.0, -0.0], [5e-324, -5e-324, 1e-300, 0.0], [3.0, 4.0, 0.0, 0.0]])
@settings(max_examples=300, deadline=None)
def test_norms_are_per_row_linalg_norms(rows):
    # the decay summaries' final norms, in one call, are float(np.linalg.norm(x))
    # of each row x, bit for bit, inf where the sum of squares overflows
    xs = np.array(rows)
    want = [float(np.linalg.norm(x)) for x in xs]
    assert struct.pack(f"<{len(want)}d", *experiments._norms(xs)) == struct.pack(
        f"<{len(want)}d", *want)


# sha256 of the summaries of decay_stiff's shape, 16 seeded starts and 100
# discrete-gradient steps at each (r, omega0*dt) cell, cell k seeded with
# substream(2^64 - 1, k).next_u64(), as "\n"-joined reprs: recorded from the
# kernels and decay helper that drew each start and each final norm per
# trajectory in Python; the summaries' bytes must not move.
DECAY_STIFF_DIGEST = "265e4810391dba58e972a15fc71d2a59285f5e5c0c2190c1bacba04c893792b4"


def test_decay_stiff_summaries_digest(kernels):
    cells = [(r, dt) for r in (0.1, 0.5, 0.99, 1.0) for dt in (0.1, 1.0, 10.0)]
    summaries = [s for k, (r, dt) in enumerate(cells) for s in run_decay_study(
        make_params(1.0, r), substream(2 ** 64 - 1, k).next_u64(), 16, StepConfig(dt),
        100 * dt).summaries]
    assert len(summaries) == 192
    digest = hashlib.sha256("\n".join(map(repr, summaries)).encode()).hexdigest()
    assert digest == DECAY_STIFF_DIGEST


def test_decay_study_rejects_zero_states():
    with pytest.raises(ValueError):
        run_decay_study(make_params(1.0, 0.5), 1, 0, StepConfig(dt=0.1), 1.0)


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0])
def test_decay_study_rejects_bad_t_end(t_end):
    # inf used to raise OverflowError, NaN an unnamed ValueError, and 0 or a
    # negative t_end ran one step
    with pytest.raises(ValueError, match="t_end"):
        run_decay_study(make_params(1.0, 0.5), 1, 1, StepConfig(dt=0.1), t_end)


def test_decay_study_records_integrator_failures(monkeypatch, python_kernels):
    # a NaN injected into the Python kernel, which writes the stage values of
    # row 0 too: every stage value is NaN, so no trajectory's first state is
    # finite
    monkeypatch.setattr(math, "tanh", lambda u: math.nan)
    result = run_decay_study(make_params(1.0, 0.5), 1, 3, StepConfig(dt=0.1), 1.0)
    assert len(result.summaries) == 3
    assert not result.all_pass
    for s in result.summaries:
        assert not s.passed
        assert "step 1: state not finite" in s.error
        assert math.isnan(s.max_v_increase)


def test_decay_study_records_non_finite_rk4_state():
    # the first RK4 step overflows
    result = run_decay_study(make_params(1e300, 0.5), 1, 1, StepConfig(1e10, Method.RK4), 3e10)
    (s,) = result.summaries
    assert not s.passed and not result.all_pass
    assert "step 1" in s.error
    assert math.isnan(s.max_v_increase) and math.isnan(s.final_norm)


def test_gradcheck_origin_anchor():
    assert run_gradcheck(seed=1, n_points=1) == 0.0


def test_gradcheck_500_points():
    assert run_gradcheck(seed=42, n_points=500) < 1e-5


def test_gradcheck_deterministic():
    a = run_gradcheck(seed=7, n_points=64)
    b = run_gradcheck(seed=7, n_points=64)
    assert a == b


def test_gradcheck_rejects_zero_points():
    with pytest.raises(ValueError):
        run_gradcheck(seed=1, n_points=0)


def _small_spec():
    return SweepSpec.from_dict({
        "r": [0.3, 0.9],
        "omega0": [1, 10],
        "families": ["As", "Bs"],
        "seed": 77,
        "samples_per_point": 2,
        "dt": 0.1,
        "n_steps": 50,
    })


def test_run_sweep_shape_and_determinism():
    a = run_sweep(_small_spec())
    b = run_sweep(_small_spec())
    assert len(a.reports) == 2 * 2 * 2
    assert len(a.summaries) == 2 * 2 * 2
    assert a.reports == b.reports
    assert a.summaries == b.summaries
    assert a.thresholds == b.thresholds
    assert a.all_pass


def test_sweep_summaries_canonical_order():
    result = run_sweep(_small_spec())
    keys = [(s.omega0, s.r, s.state_index) for s in result.summaries]
    assert keys == sorted(keys)


@pytest.mark.parametrize("method", list(Method))
def test_sweep_blocks_give_the_summaries_of_per_point_studies(kernels, monkeypatch, method):
    # a sweep runs the starts of all its (omega0, r) points through the
    # kernel together, in blocks of _BATCH_ROWS rows: here 5 trajectories of
    # 11 rows, so that the 12 starts of 4 points make 3 kernel calls and the
    # first block boundary cuts the second point's 3 samples; its summaries
    # are those of a decay study per point, byte for byte
    spec = SweepSpec.from_dict({"r": [0.0, 0.9], "omega0": [1.0, 30.0], "families": ["As"],
                                "seed": 5, "samples_per_point": 3, "method": method.value,
                                "dt": 0.1, "n_steps": 10})
    cfg, t_end = StepConfig(spec.dt, method), spec.dt * spec.n_steps
    want = []
    for k, (omega0, r) in enumerate((w, r) for w in spec.omega0_grid for r in spec.r_grid):
        point_seed = substream(spec.seed, k).next_u64()
        want += run_decay_study(make_params(omega0, r), point_seed, 3, cfg, t_end).summaries
    kernel = "_rk4_run" if method is Method.RK4 else "_dg_run"
    calls, real = [], getattr(integrators, kernel)
    monkeypatch.setattr(integrators, kernel, lambda *args: calls.append(len(args[0])) or real(*args))
    monkeypatch.setattr(experiments, "_BATCH_ROWS", 5 * 11 + 10)
    got = run_sweep(spec).summaries
    assert repr(got) == repr(want)
    assert calls == [5, 5, 2]


def test_negated_energy_fails_decay_study(monkeypatch):
    # harness meta-test: a sign-flipped V must be caught on every state
    # (a decay study's V comes from the kernel, through simulate_batch)
    real = experiments.simulate_batch

    def negated(*args):
        states, energy, stages, errors = real(*args)
        return states, -energy, stages, errors

    monkeypatch.setattr(experiments, "simulate_batch", negated)
    p = make_params(1.0, 0.5)
    result = run_decay_study(p, seed=3, n_states=8, cfg=StepConfig(dt=0.1), t_end=5.0)
    assert all(not s.passed for s in result.summaries)


@pytest.mark.parametrize("method", list(Method))
def test_decay_study_evaluates_no_rate(monkeypatch, method):
    # a decay study reads V alone, so no trajectory's Vdot is evaluated
    calls = []
    real = lyapunov.rate_column
    monkeypatch.setattr(lyapunov, "rate_column", lambda zs, p: calls.append(p) or real(zs, p))
    result = run_decay_study(make_params(1.0, 0.5), seed=3, n_states=4,
                             cfg=StepConfig(dt=0.01, method=method), t_end=0.5)
    assert result.all_pass and len(result.summaries) == 4
    assert calls == []


def test_negated_gradient_fails_gradcheck(monkeypatch):
    from moogvcf import model
    from moogvcf.model import saturation_vector

    monkeypatch.setattr(model, "saturation_vector", lambda w, p: -saturation_vector(w, p))
    assert run_gradcheck(seed=42, n_points=50) > 1e-5
