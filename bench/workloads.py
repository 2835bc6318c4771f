"""The four benchmark workloads.

Each workload makes its inputs from the workload seed in `setup` and runs
one pass over them in `run_pass`: the timed part, which may also return
the start and end of named phases.  `check` (untimed) returns the
operation counts, the correctness gate failures, and the bytes that
identify the output: every pass of a run, traced or not, must reproduce
them exactly.

Inputs are drawn with `random.Random`, not with the package's own
generator, so the program under test sees only the generated inputs.
"""

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

# Largest per-step rise of V allowed on a discrete-gradient trajectory.
DECAY_TOL = 1e-10
# Distance allowed between a bisected threshold and its exact value.
THRESHOLD_TOL = 1e-6
# Closed-form against numeric spectrum, as in acceptance criterion 1.
SPECTRUM_TOL = 1e-10
# Verdict boundaries along r: As (plain quadratic) stops at 5/12, Bs (scaled
# quadratic) and QsWorstCase at 1.
BOUNDARY = {"As": 5.0 / 12.0, "Bs": 1.0, "QsWorstCase": 1.0}


@dataclass(frozen=True)
class Sizes:
    decay_states: int  # seeded states per decay cell
    decay_steps: int
    sweep_r_points: int  # r = 1/n, 2/n, ..., 1
    sweep_samples: int
    sweep_steps: int
    sim_steps: int
    cert_points: int  # jittered interior r points per family
    threshold_rounds: int  # threshold searches per family
    eig_r: int  # criterion 1's grid is 21 x 21
    eig_omega0: int
    micro_rounds: int  # passes over the micro-timing inputs


FULL = Sizes(decay_states=16, decay_steps=100, sweep_r_points=50, sweep_samples=2,
             sweep_steps=200, sim_steps=10000, cert_points=1000, threshold_rounds=16,
             eig_r=21, eig_omega0=21, micro_rounds=10)
TINY = Sizes(decay_states=1, decay_steps=10, sweep_r_points=5, sweep_samples=1,
             sweep_steps=10, sim_steps=50, cert_points=20, threshold_rounds=1,
             eig_r=3, eig_omega0=2, micro_rounds=1)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0  # failures of a documented defect, kept apart
    digest: bytes = b""
    work: dict = field(default_factory=dict)  # deterministic work per pass
    notes: list = field(default_factory=list)  # first few gate failures

    def gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def _u64(rng):
    return rng.getrandbits(64)


class DecayStiff:
    """Criterion 9's shape: every (r, omega0*dt) cell, many seeded states
    per run_decay_study call, 100 discrete-gradient steps each."""

    name = "decay_stiff"
    CELLS_R = (0.1, 0.5, 0.99, 1.0)
    CELLS_DT = (0.1, 1.0, 10.0)  # omega0 * dt with omega0 = 1

    def setup(self, lib, seed, sizes, tmpdir):
        rng = random.Random(seed)
        self.n_states = sizes.decay_states
        self.n_steps = sizes.decay_steps
        self.cells = [
            (lib.model.make_params(1.0, r), lib.integrators.StepConfig(dt=dt), _u64(rng))
            for r in self.CELLS_R for dt in self.CELLS_DT
        ]

    def run_pass(self, lib):
        study = lib.experiments.run_decay_study
        return [study(p, cell_seed, self.n_states, cfg, self.n_steps * cfg.dt)
                for p, cfg, cell_seed in self.cells], {}

    def check(self, lib, results):
        out = Check()
        summaries = [s for res in results for s in res.summaries]
        for s in summaries:
            out.gate(s.error is None and s.max_v_increase <= DECAY_TOL,
                     f"r={s.r} dt={s.dt} state {s.state_index}: "
                     f"rise {s.max_v_increase!r} error {s.error}")
        out.digest = "\n".join(map(repr, summaries)).encode()
        out.work = {"steps": len(summaries) * self.n_steps, "trajectories": len(summaries)}
        return out


class SweepFullrange:
    """`moogvcf sweep` on the bundled full-range spec with a seed derived
    from the workload seed: certification, bisection and seeded decay
    studies, written as JSON."""

    name = "sweep_fullrange"

    def setup(self, lib, seed, sizes, tmpdir):
        n = sizes.sweep_r_points
        spec = {
            "r": [k / n for k in range(1, n + 1)],
            "omega0": [1.0],
            "families": ["As", "Bs", "QsWorstCase"],
            "seed": _u64(random.Random(seed)),
            "samples_per_point": sizes.sweep_samples,
            "method": "dg",
            "dt": 0.05,
            "n_steps": sizes.sweep_steps,
        }
        self.n_steps = sizes.sweep_steps
        spec_path = os.path.join(tmpdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh, indent=2)
        self.out_path = os.path.join(tmpdir, "sweep.json")
        self.argv = ["sweep", "--spec", spec_path, "--out", self.out_path]

    def run_pass(self, lib):
        return lib.cli.main(self.argv), {}

    def check(self, lib, rc):
        out = Check()
        out.gate(rc == 0, f"sweep exit code {rc}")
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        payload = json.loads(data)
        out.gate(payload["all_pass"] is True, "all_pass is not true")
        for family, exact in BOUNDARY.items():
            r_star = payload["thresholds"].get(family)
            out.gate(r_star is not None and abs(r_star - exact) <= THRESHOLD_TOL,
                     f"{family} threshold {r_star!r}, expected {exact!r}")
        for entry in payload["decay"]:
            rise = entry["max_v_increase"]
            out.gate(entry["error"] is None and rise is not None and rise <= DECAY_TOL,
                     f"r={entry['r']} state {entry['state_index']}: rise {rise!r}")
        out.digest = data
        out.work = {
            "steps": len(payload["decay"]) * self.n_steps,
            "trajectories": len(payload["decay"]),
            "certificates": len(payload["reports"]),
            "output_bytes": len(data),
        }
        return out


class SimulateLong:
    """`moogvcf simulate` to a CSV file: one long discrete-gradient
    trajectory at r = 1 and one RK4 trajectory of the same length."""

    name = "simulate_long"

    def setup(self, lib, seed, sizes, tmpdir):
        rng = random.Random(seed)
        x0 = ",".join(repr(rng.uniform(-5.0, 5.0)) for _ in range(4))
        self.n_steps = sizes.sim_steps
        self.runs = []
        for method in ("dg", "rk4"):
            path = os.path.join(tmpdir, f"{method}.csv")
            argv = ["simulate", "--omega0", "1", "--r", "1.0", f"--x0={x0}", "--dt", "0.05",
                    "--steps", str(self.n_steps), "--method", method, "--out", path]
            self.runs.append((method, path, argv))

    def run_pass(self, lib):
        return [lib.cli.main(argv) for _method, _path, argv in self.runs], {}

    def check(self, lib, rcs):
        out = Check()
        digest = []
        for (method, path, _argv), rc in zip(self.runs, rcs):
            out.gate(rc == 0, f"simulate --method {method} exit code {rc}")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.append(data)
            rows = data.decode().splitlines()[1:]
            values = [[float(v) for v in row.split(",")] for row in rows]
            out.gate(len(values) == self.n_steps + 1,
                     f"{method}: {len(values)} rows, expected {self.n_steps + 1}")
            out.gate(all(math.isfinite(v) for row in values for v in row),
                     f"{method}: non-finite value in output")
            if method == "dg":
                rise = max(row[7] for row in values)
                out.gate(rise <= DECAY_TOL, f"dg: largest per-step rise {rise!r}")
        out.digest = b"\0".join(digest)
        out.work = {"steps": 2 * self.n_steps, "output_bytes": sum(map(len, digest))}
        return out


class Analysis:
    """Certification on a fine r grid with both ends, threshold bisection
    at tol 1e-10, and closed-form against numeric spectra on criterion 1's
    grid (its r = 0 row takes the high-precision path)."""

    name = "analysis"
    FAMILIES = ("As", "Bs", "QsWorstCase")

    def setup(self, lib, seed, sizes, tmpdir):
        rng = random.Random(seed)
        family = {f.value: f for f in lib.lyapunov.MatrixFamily}
        m = sizes.cert_points
        grid = [0.0] + [(k + 0.05 + 0.9 * rng.random()) / m for k in range(m)] + [1.0]
        self.cert = [(family[name], lib.model.make_params(1.0, r))
                     for name in self.FAMILIES for r in grid]
        # Lower ends in [0.001, 0.01) keep every search at the same length.
        self.brackets = [(family[name], 0.001 + 0.009 * rng.random())
                         for _ in range(sizes.threshold_rounds) for name in self.FAMILIES]
        self.eig = [lib.model.make_params(float(omega0), float(r))
                    for r in np.linspace(0.0, 1.0, sizes.eig_r)
                    for omega0 in np.linspace(0.1, 100.0, sizes.eig_omega0)]

    def run_pass(self, lib):
        lyapunov, spectral, model = lib.lyapunov, lib.spectral, lib.model
        t0 = time.perf_counter()
        reports, errors = [], []
        for family, p in self.cert:
            try:
                reports.append(lyapunov.certify(family, p))
            except ValueError as err:
                errors.append(("certify", family.value, p.r, str(err)))
        t1 = time.perf_counter()
        thresholds = []
        for family, lo in self.brackets:
            try:
                thresholds.append((family.value, lyapunov.definiteness_threshold(
                    family, lo, 1.0, tol=1e-10)))
            except ValueError as err:
                errors.append(("threshold", family.value, lo, str(err)))
        t2 = time.perf_counter()
        spectra = []
        for p in self.eig:
            try:
                spectra.append((p, spectral.eigvals_closed_form(p),
                                spectral.eigvals_numeric(model.linearized_matrix(p))))
            except spectral.RootFindingError as err:
                errors.append(("eig", p.omega0, p.r, str(err)))
        t3 = time.perf_counter()
        phases = {"certify_s": (t0, t1), "threshold_s": (t1, t2), "eig_s": (t2, t3)}
        return (reports, thresholds, spectra, errors), phases

    def check(self, lib, result):
        reports, thresholds, spectra, errors = result
        verdict = lib.lyapunov.Verdict
        out = Check()
        for rep in reports:
            family = rep.family.value
            if family == "QsWorstCase":
                out.attempted += 1  # no expected region is gated for it
                continue
            boundary = BOUNDARY[family]
            if abs(rep.r - boundary) <= 1e-9:
                expected = verdict.NEGATIVE_SEMIDEFINITE
            elif rep.r < boundary:
                expected = verdict.NEGATIVE_DEFINITE
            else:
                expected = verdict.INDEFINITE
            out.gate(rep.verdict is expected, f"{family} r={rep.r!r}: {rep.verdict.value}")
        for family, r_star in thresholds:
            out.gate(abs(r_star - BOUNDARY[family]) <= THRESHOLD_TOL,
                     f"{family} threshold {r_star!r}")
        for p, closed, numeric in spectra:
            gap = float(abs(closed.eigenvalues - numeric.eigenvalues).max())
            out.gate(gap < SPECTRUM_TOL and closed.max_real_part <= 0.0,
                     f"spectrum at omega0={p.omega0} r={p.r}: gap {gap!r}")
        for op, label, value, message in errors:
            # QsWorstCase is undefined at r = 0 today (a known certify
            # defect); it is attempted and counted apart from failures.
            if op == "certify" and label == "QsWorstCase" and value == 0.0:
                out.attempted += 1
                out.known_defects += 1
            else:
                out.gate(False, f"{op} {label} {value!r}: {message}")
        out.digest = "\n".join(
            [repr(rep) for rep in reports] + [repr(t) for t in thresholds]
            + [repr(e) for e in errors]
        ).encode() + b"".join(
            closed.eigenvalues.tobytes() + numeric.eigenvalues.tobytes()
            for _p, closed, numeric in spectra
        )
        out.work = {"certificates": len(self.cert), "thresholds": len(self.brackets),
                    "eig_pairs": len(self.eig)}
        return out


WORKLOADS = {w.name: w for w in (DecayStiff, SweepFullrange, SimulateLong, Analysis)}
