"""Reproducible parameter sweeps, decay studies, and gradient checks.

Everything here is seeded through SplitMix64 substreams keyed by work-item
index, so results are deterministic regardless of execution order, and
outputs are listed in canonical (grid, state) order.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lyapunov, model
from .integrators import MAX_DG_OMEGA0_DT, Method, StepConfig, simulate_batch
from .lyapunov import Verdict
from .rng import _GOLDEN, _MASK, _mix_array, substream

# Largest n_steps of one trajectory: simulate holds every recorded step, about
# 0.19 KB each with the CLI's rendering, so 10^6 steps take about 190 MB.
_MAX_STEPS = 10 ** 6
# Largest number of steps a sweep takes in all, trajectories times n_steps:
# the full-range sweep at 32 samples per point and 2,000 steps takes 0.55-0.8
# us per DG step on the C kernel, pinned to one CPU of a 2-vCPU Xeon (about 0.5
# us of wall time on both), so 10^8 steps take one to two minutes on one CPU.
_MAX_SWEEP_STEPS = 10 ** 8

# Largest number of recorded rows of one simulate_batch call in a decay study
# or a sweep, whose starts go through it in blocks of whole trajectories, the
# sweep's across (omega0, r) points: 2^16 rows take about 5 MB of states,
# stage values and energies, so a study of long trajectories holds about as
# much at once as one trajectory does, and the bundled full-range sweep (100
# trajectories of 201 rows) makes one kernel call.
_BATCH_ROWS = 2 ** 16

# Initial states are drawn with |x_i| <= 5, deep into tanh saturation, so
# decay studies exercise the genuinely nonlinear regime.
_STATE_RANGE = 5.0
_DRAW_STEPS = np.arange(1, 5, dtype=np.uint64) * _GOLDEN  # k * _GOLDEN mod 2^64, k = 1..4

_DECAY_TOLERANCE = {
    # Guaranteed per-step decay up to Newton slack.
    Method.DISCRETE_GRADIENT: 1e-10,
    # RK4 has no discrete guarantee; this absorbs O(dt^5) local error at
    # omega0*dt <= 0.01.
    Method.RK4: 1e-9,
}


class SpecValidationError(ValueError):
    """Sweep specification rejected; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _spec_float(value, path: str) -> float:
    """value as a float; SpecValidationError under path unless it is a JSON
    number (not a bool) within the float range, which a JSON integer such as
    10**400 is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecValidationError(path, "must be a number")
    try:
        return float(value)
    except OverflowError:
        raise SpecValidationError(path, "must be within the float range") from None


@dataclass(frozen=True)
class SweepSpec:
    """Grid and sampling plan for a combined certification/decay sweep."""

    r_grid: tuple
    omega0_grid: tuple
    families: tuple
    seed: int
    samples_per_point: int
    method: Method = Method.DISCRETE_GRADIENT
    dt: float = 0.05
    n_steps: int = 200

    @staticmethod
    def from_dict(data: dict) -> "SweepSpec":
        """Build and validate a spec from parsed JSON, reporting the field
        path of the first violation."""
        if not isinstance(data, dict):
            raise SpecValidationError("$", "spec must be a JSON object")

        def grid(key, check):
            """The sorted array data[key]; each entry must pass check, a
            make_params call that raises ParameterRangeError."""
            values = data.get(key)
            if not isinstance(values, list) or not values:
                raise SpecValidationError(key, "must be a non-empty array of numbers")
            out = []
            for i, v in enumerate(values):
                v = _spec_float(v, f"{key}[{i}]")
                try:
                    check(v)
                except model.ParameterRangeError as err:
                    raise SpecValidationError(f"{key}[{i}]", str(err)) from None
                out.append(v)
            if sorted(out) != out:
                raise SpecValidationError(key, "must be sorted ascending")
            return tuple(out)

        # make_params holds the range rules: r in {0} U [smallest normal, 1],
        # omega0 positive and finite.
        r_grid = grid("r", lambda r: model.make_params(1.0, r))
        omega0_grid = grid("omega0", lambda omega0: model.make_params(omega0, 0.0))

        fams = data.get("families")
        if not isinstance(fams, list) or not fams:
            raise SpecValidationError("families", "must be a non-empty array")
        families = []
        for i, name in enumerate(fams):
            try:
                family = lyapunov.family_named(name)
            except ValueError as err:
                raise SpecValidationError(f"families[{i}]", str(err)) from None
            if family in families:
                raise SpecValidationError(f"families[{i}]", f"repeats {name!r}")
            families.append(family)

        seed = data.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2 ** 64):
            raise SpecValidationError("seed", "must be an unsigned 64-bit integer")

        samples = data.get("samples_per_point")
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
            raise SpecValidationError("samples_per_point", "must be a positive integer")

        method_name = data.get("method", SweepSpec.method.value)
        try:
            method = Method(method_name)
        except ValueError:
            raise SpecValidationError("method", f"unknown method {method_name!r}") from None

        dt = _spec_float(data.get("dt", SweepSpec.dt), "dt")
        if not 0.0 < dt < math.inf:
            raise SpecValidationError("dt", "must be a positive finite number")

        n_steps = data.get("n_steps", SweepSpec.n_steps)
        if not isinstance(n_steps, int) or isinstance(n_steps, bool) or n_steps < 1:
            raise SpecValidationError("n_steps", "must be a positive integer")
        if n_steps > _MAX_STEPS:
            raise SpecValidationError("n_steps", f"{n_steps} is more than {_MAX_STEPS}")
        if dt * n_steps == math.inf:  # run_sweep's decay horizon
            raise SpecValidationError("dt", f"dt * n_steps must be finite, got dt = {dt!r}")
        if method is Method.DISCRETE_GRADIENT and not omega0_grid[-1] * dt <= MAX_DG_OMEGA0_DT:
            raise SpecValidationError("dt", (
                f"omega0 * dt must be at most {MAX_DG_OMEGA0_DT:g} for the discrete-gradient "
                f"method, got dt = {dt!r} at omega0 = {omega0_grid[-1]!r}"))
        total = len(r_grid) * len(omega0_grid) * samples * n_steps
        if total > _MAX_SWEEP_STEPS:
            raise SpecValidationError("samples_per_point", (
                f"{len(r_grid)} r x {len(omega0_grid)} omega0 x {samples} samples_per_point x "
                f"{n_steps} n_steps = {total} steps is more than {_MAX_SWEEP_STEPS}"))

        known = {"r", "omega0", "families", "seed", "samples_per_point", "method", "dt", "n_steps"}
        for key in data:
            if key not in known:
                raise SpecValidationError(key, "unknown field")

        return SweepSpec(
            r_grid=r_grid,
            omega0_grid=omega0_grid,
            families=tuple(families),
            seed=seed,
            samples_per_point=samples,
            method=method,
            dt=dt,
            n_steps=n_steps,
        )

    def to_dict(self) -> dict:
        return {
            "r": list(self.r_grid),
            "omega0": list(self.omega0_grid),
            "families": [f.value for f in self.families],
            "seed": self.seed,
            "samples_per_point": self.samples_per_point,
            "method": self.method.value,
            "dt": self.dt,
            "n_steps": self.n_steps,
        }


@dataclass(frozen=True)
class TrajectorySummary:
    """Decay verdict for one simulated initial state."""

    omega0: float
    r: float
    method: str
    dt: float
    state_index: int
    x0: tuple
    max_v_increase: float
    final_norm: float
    passed: bool
    error: str | None = None


@dataclass
class SweepResult:
    reports: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(s.passed for s in self.summaries)


def detect_threshold(reports) -> float | None:
    """Bisect between the first adjacent reports whose negative-definite
    flags differ, at the reports' own verdict tolerance; None when every
    flag agrees.  The reports are of one family, in ascending r."""
    for a, b in zip(reports, reports[1:]):
        if (a.verdict is Verdict.NEGATIVE_DEFINITE) != (b.verdict is Verdict.NEGATIVE_DEFINITE):
            return lyapunov.definiteness_threshold(a.family, a.r, b.r, verdict_tol=a.tol)
    return None


def run_definiteness_sweep(families, omega0_grid, r_grid, tol: float = 1e-10) -> SweepResult:
    """Certify every (family, omega0, r) grid point at verdict tolerance tol
    and locate each family's verdict boundary along r; the reports are in
    (family, omega0, r) order."""
    result = SweepResult()
    for family in families:
        rows = [[lyapunov.certify(family, model.make_params(omega0, r), tol=tol) for r in r_grid]
                for omega0 in omega0_grid]
        for row in rows:
            result.reports.extend(row)
        # Certificates are omega0-normalized, so every row has the same verdicts.
        result.thresholds[family.value] = detect_threshold(rows[0])
    return result


def _draw_starts(seeds, n: int) -> np.ndarray:
    """The (len(seeds) * n, 4) initial states of decay studies of n states
    seeded with each seed of seeds, in seed order: row j * n + i the first
    four substream(seeds[j], i).uniform(-_STATE_RANGE, _STATE_RANGE) draws,
    bit for bit.  SplitMix64 runs on np.uint64 arrays, whose arithmetic wraps
    mod 2^64 as rng's masks do: substream i's state is _mix(seed ^ _mix(i + 1))
    and its draw k mixes state + k * _GOLDEN (_DRAW_STEPS).  (u >> 11) * 2^-53
    is exact, and lo + (hi - lo) * u rounds entry by entry as the float
    expression does."""
    lo, hi = -_STATE_RANGE, _STATE_RANGE
    seeds = np.array([seed & _MASK for seed in seeds], dtype=np.uint64)
    states = _mix_array(seeds[:, None] ^ _mix_array(np.arange(1, n + 1, dtype=np.uint64)))
    u = _mix_array(states.reshape(-1, 1) + _DRAW_STEPS)
    u >>= 11
    return lo + (hi - lo) * (u * 2.0 ** -53)


def _norms(xs: np.ndarray) -> list:
    """float(np.linalg.norm(x)) of each row x of xs, in one call.  That norm
    is the square root of x.dot(x), and a stacked matmul of 1 x n by n x 1
    takes the same dot product, where a sum of squares or an axis norm may
    round otherwise."""
    return np.sqrt((xs[:, None, :] @ xs[:, :, None])[:, 0, 0]).tolist()


def _decay_summaries(points, n_states: int, cfg: StepConfig, t_end: float) -> list:
    """The TrajectorySummary of each of n_states seeded initial states at each
    (p, seed) of points, in point order and then state order, simulated to
    t_end.

    The states, drawn by _draw_starts, go through integrators.simulate_batch
    together, each with its point's p, in blocks of at most _BATCH_ROWS
    recorded rows (a block may span points), so that a study or sweep of
    short trajectories makes one kernel call.  A state passes when its
    largest per-step increase stays at or below the method's tolerance.
    Integrator failures are recorded in the summary, not raised.
    """
    tol, method = _DECAY_TOLERANCE[cfg.method], cfg.method.value
    n_steps = max(1, int(round(t_end / cfg.dt)))
    x0s = _draw_starts([seed for _, seed in points], n_states)
    params = [p for p, _ in points for _ in range(n_states)]
    size, summaries = max(1, _BATCH_ROWS // (n_steps + 1)), []
    for start in range(0, len(x0s), size):
        block, ps = x0s[start:start + size], params[start:start + size]
        states, energy, _, errors = simulate_batch(block, ps, cfg, n_steps)
        max_incs = np.diff(energy, axis=1).max(axis=1).tolist()
        for m, (p, x0, max_inc, final_norm, error) in enumerate(
                zip(ps, block.tolist(), max_incs, _norms(states[:, -1]), errors), start):
            if error is not None:
                max_inc = final_norm = math.nan
                error = str(error)
            summaries.append(TrajectorySummary(
                omega0=p.omega0, r=p.r, method=method, dt=cfg.dt,
                state_index=m % n_states, x0=tuple(x0), max_v_increase=max_inc,
                final_norm=final_norm, passed=max_inc <= tol, error=error,
            ))
    return summaries


def run_decay_study(
    p: model.FilterParams,
    seed: int,
    n_states: int,
    cfg: StepConfig,
    t_end: float,
) -> SweepResult:
    """Simulate seeded random initial states and record the worst per-step
    energy increase and the final state norm for each: the one-point case of
    _decay_summaries.  ValueError names n_states unless it is >= 1, and t_end
    unless it is positive and finite.
    """
    n_states = int(n_states)
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    return SweepResult(summaries=_decay_summaries([(p, seed)], n_states, cfg, t_end))


def run_gradcheck(seed: int, n_points: int) -> float:
    """Largest relative mismatch between the analytic energy gradient and
    central finite differences over seeded random (w, r) points.

    Point 0 is the origin anchor (exactly zero error by evenness); the rest
    draw r in (0, 1] and |w_i| <= 10.
    """
    n_points = int(n_points)
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    worst = 0.0
    for i in range(n_points):
        if i == 0:
            p = model.make_params(1.0, 0.5)
            w = np.zeros(4)
        else:
            stream = substream(seed, i)
            p = model.make_params(1.0, 1.0 - stream.uniform())
            w = np.array([stream.uniform(-10.0, 10.0) for _ in range(4)])
        grad = model.saturation_vector(w, p)
        rows, steps = [], [1e-6 * max(1.0, abs(u)) for u in w.tolist()]
        for k, h in enumerate(steps):
            hi, lo = w.tolist(), w.tolist()
            hi[k] += h
            lo[k] -= h
            rows += (hi, lo)
        energy = lyapunov.energy_column(rows, p)  # V of the 8 rows, one pass
        fd = (energy[0::2] - energy[1::2]) / (2.0 * np.array(steps))
        err = float(np.abs(fd - grad).max() / max(1.0, np.abs(grad).max()))
        worst = max(worst, err)
    return worst


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Full sweep backing the CLI: certification plus per-grid-point decay
    studies with spec.samples_per_point seeded states each, whose states go
    through _decay_summaries together."""
    result = run_definiteness_sweep(spec.families, spec.omega0_grid, spec.r_grid)
    points = [(model.make_params(omega0, r), substream(spec.seed, point_index).next_u64())
              for point_index, (omega0, r) in enumerate(
                  itertools.product(spec.omega0_grid, spec.r_grid))]
    result.summaries = _decay_summaries(points, spec.samples_per_point,
                                        StepConfig(dt=spec.dt, method=spec.method),
                                        spec.dt * spec.n_steps)
    return result
