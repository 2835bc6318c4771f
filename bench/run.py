"""moogvcf benchmark harness.

    python3 bench/run.py --workload decay_stiff --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the workload runs untraced and the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 it
runs untraced and traced passes in turn and reports the per-layer metrics.
A fuller record of the run goes to bench/results/.  See bench/README.md.
"""

import os

# One process, one thread: BLAS must not start workers of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from micro import micro_timings
from speed import SpeedProbe
from tracing import Tracer
from workloads import FULL, WORKLOADS

try:
    import mpmath
except ImportError:
    mpmath = None

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("cli", "experiments", "integrators", "lyapunov", "model", "rng", "spectral")
SETUPS = 15  # set-ups per run; setup_s is their median


def load_package():
    """Import moogvcf afresh from ./src, compiled from source."""
    for name in [n for n in sys.modules if n == "moogvcf" or n.startswith("moogvcf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("moogvcf")
    lib = SimpleNamespace(mpmath=mpmath)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"moogvcf.{name}"))
    return lib


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": getattr(mpmath, "__version__", None),
    }


def summary(samples):
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    n = len(samples)
    tail = None
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            tail = {"pct": pct, "value": float(np.percentile(samples, pct))}
            break
    return {"median": statistics.median(samples), "tail": tail, "n": n}


class Run:
    """One benchmark run of one workload: set-up, passes, checks."""

    def __init__(self, workload, seed, sizes, tmpdir):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.notes = []
        self.reference = None
        self.work = None

    def setup(self):
        """Set up SETUPS times; returns reference and raw seconds of each.
        One set-up lasts a few probe intervals, so all are scaled by the
        speed sampled over the whole series."""
        spans = []
        with SpeedProbe() as probe:
            for _ in range(SETUPS):
                t0 = time.perf_counter()
                lib = load_package()
                self.workload.setup(lib, self.seed, self.sizes, self.tmpdir)
                spans.append((t0, time.perf_counter()))
        self.lib = lib
        factor = probe.factor()
        return [probe.seconds(a, b, factor) for a, b in spans], [b - a for a, b in spans]

    def one_pass(self, tracer=None):
        """Time one pass, then check it against the gates and the first
        pass's output.  Returns the probe and the phases in reference
        seconds."""
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install(self.lib)
        try:
            with SpeedProbe(tracer.probe if tracer is not None else None) as probe:
                raw, bounds = self.workload.run_pass(self.lib)
        finally:
            if tracer is not None:
                tracer.remove()
        phases = {name: probe.seconds(a, b) for name, (a, b) in bounds.items()}
        check = self.workload.check(self.lib, raw)
        self.attempted += check.attempted + 1
        self.failed += check.failed
        self.known_defects += check.known_defects
        self.notes.extend(check.notes[: max(0, 5 - len(self.notes))])
        if self.reference is None:
            self.reference = check.digest
            self.work = check.work
        elif check.digest != self.reference or check.work != self.work:
            self.failed += 1
            self.notes.append("pass output differs from the first pass"
                              + (" (traced)" if tracer is not None else ""))
        return probe, phases


def end_to_end(work, setup_samples, walls, phases):
    """The gated metrics, and every named end-to-end figure with its
    summary (median, tail, count) and unit."""
    def rate(count, times):
        return summary([count / t for t in times]), "1/s"

    named = {"setup_s": (summary(setup_samples), "s"), "wall_s": (summary(walls), "s")}
    if "steps" in work:
        named["steps_per_s"] = rate(work["steps"], walls)
    if "trajectories" in work:
        named["traj_per_s"] = rate(work["trajectories"], walls)
    if phases:
        named["certify_per_s"] = rate(work["certificates"], [ph["certify_s"] for ph in phases])
        named["threshold_ms"] = (
            summary([1e3 * ph["threshold_s"] / work["thresholds"] for ph in phases]), "ms")
        named["eig_per_s"] = rate(work["eig_pairs"], [ph["eig_s"] for ph in phases])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["peak_rss_mb"] = ({"median": peak, "tail": None, "n": 1}, "MB")
    metrics = {name: {"value": named[name][0]["median"], "unit": named[name][1]}
               for name in ("setup_s", "wall_s", "peak_rss_mb")}
    return metrics, named


def per_layer(run, traced_counts, traced_self, traced_walls, untraced_walls, micro):
    c = traced_counts
    dg_steps = c["integrators.dg_steps"]
    thresholds = c["lyapunov.threshold.calls"]

    def per_step(name):
        return c[name] / dg_steps if dg_steps else 0.0

    def self_frac(layer):
        return statistics.median(
            st.get(layer, 0.0) / wall for st, wall in zip(traced_self, traced_walls))

    def p50_us(name):
        return 1e6 * statistics.median(micro[name])

    values = {
        "integrators.simulate.self_frac": (self_frac("integrators.simulate"), "ratio"),
        "integrators.steps": (c["integrators.steps"], "count"),
        "integrators.newton_solves_per_step": (per_step("model.rhs_scaled.calls"), "ratio"),
        "integrators.quotients_per_step": (per_step("lyapunov.log_cosh_diff.calls"), "ratio"),
        "integrators.dg_step_us.odt0.1": (p50_us("integrators.dg_step_us.odt0.1"), "us"),
        "integrators.dg_step_us.odt1": (p50_us("integrators.dg_step_us.odt1"), "us"),
        "integrators.dg_step_us.odt10": (p50_us("integrators.dg_step_us.odt10"), "us"),
        "integrators.rk4_step_us": (p50_us("integrators.rk4_step_us"), "us"),
        "integrators.newton_errors": (c["integrators.newton_errors"], "count"),
        "lyapunov.energy.calls": (c["lyapunov.energy.calls"], "count"),
        "lyapunov.energy.self_frac": (self_frac("lyapunov.energy"), "ratio"),
        "lyapunov.certify.calls": (c["lyapunov.certify.calls"], "count"),
        "lyapunov.certify.p50_us": (p50_us("lyapunov.certify.p50_us"), "us"),
        "lyapunov.sym_eigvals.calls": (c["lyapunov.sym_eigvals.calls"], "count"),
        "lyapunov.sym_eigvals.p50_us": (p50_us("lyapunov.sym_eigvals.p50_us"), "us"),
        "lyapunov.threshold.evals": (
            c["lyapunov.threshold.sym_eigvals"] / thresholds if thresholds else 0.0, "ratio"),
        "spectral.eigvals_numeric.p50_us": (p50_us("spectral.eigvals_numeric.p50_us"), "us"),
        "spectral.eigvals_numeric.self_frac": (self_frac("spectral.eigvals_numeric"), "ratio"),
        "spectral.mp_escalations": (c["spectral.mp_escalations"], "count"),
        "experiments.self_frac": (self_frac("experiments"), "ratio"),
        "cli.main.self_frac": (self_frac("cli.main"), "ratio"),
        "cli.output_bytes": (run.work.get("output_bytes", 0), "count"),
        "model.self_frac": (self_frac("model"), "ratio"),
        "rng.self_frac": (self_frac("rng"), "ratio"),
        "trace_overhead_frac": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def write_spans(path, spans):
    layers = sorted({s[0] for s in spans})
    index = {layer: i for i, layer in enumerate(layers)}
    t0 = spans[0][1] if spans else 0.0
    rows = [[index[layer], round(1e6 * (start - t0), 3), round(1e6 * (end - start), 3), parent]
            for layer, start, end, parent in spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"layers": layers, "columns": ["layer", "start_us", "dur_us", "parent"],
                   "spans": rows}, fh)


def execute(args, sizes, tmpdir):
    RESULTS.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    run = Run(workload, args.seed, sizes, tmpdir)
    setup_samples, setup_raw = run.setup()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(),
              "sizes": vars(sizes).copy(), "setup_s": setup_samples, "setup_raw_s": setup_raw}

    micro = micro_timings(run.lib, args.seed, sizes.micro_rounds) if args.trace else None
    run.one_pass()  # warm-up: fills lazy imports, fixes the reference output
    deadline = time.perf_counter() + args.seconds

    if not args.trace:
        walls, raw_walls, phases = [], [], []
        while len(walls) < 2 or time.perf_counter() + statistics.median(raw_walls) <= deadline:
            probe, ph = run.one_pass()
            walls.append(probe.seconds())
            raw_walls.append(probe.end - probe.start)
            if ph:
                phases.append(ph)
        metrics, named = end_to_end(run.work, setup_samples, walls, phases)
        record.update(passes=walls, raw_passes=raw_walls)
        record["end_to_end"] = {k: dict(v, unit=u) for k, (v, u) in named.items()}
    else:
        tracer = Tracer()
        traced_walls, untraced_walls, traced_self = [], [], []
        first_counts = first_spans = None
        last_pair = 0.0  # raw seconds of the last traced + untraced pair
        while not traced_walls or time.perf_counter() + last_pair <= deadline:
            traced, _ = run.one_pass(tracer)
            traced_walls.append(traced.seconds())
            # Self times come in raw seconds; scale them by the pass's speed.
            factor = traced.factor()
            traced_self.append({k: v * factor for k, v in tracer.self_times().items()})
            if first_counts is None:
                first_counts, first_spans = tracer.counts.copy(), list(tracer.spans)
            elif tracer.counts != first_counts:
                run.failed += 1
                run.notes.append("traced counts differ between passes")
            untraced, _ = run.one_pass()
            untraced_walls.append(untraced.seconds())
            last_pair = (traced.end - traced.start) + (untraced.end - untraced.start)
        metrics = per_layer(run, first_counts, traced_self, traced_walls, untraced_walls, micro)
        record.update(passes=untraced_walls, traced_passes=traced_walls,
                      counts=dict(sorted(first_counts.items())),
                      self_s={k: statistics.median(st.get(k, 0.0) for st in traced_self)
                              for k in sorted(set().union(*traced_self))},
                      micro={k: summary(v) for k, v in micro.items()}, per_layer=metrics)
        write_spans(RESULTS / f"spans-{args.workload}.json.gz", first_spans)
        named = None

    record.update(work=run.work, attempted=run.attempted, failed=run.failed,
                  known_defects=run.known_defects, notes=run.notes)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return run, record, metrics, named


def report(args, run, record, metrics, named):
    print(f"moogvcf benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} machine={json.dumps(record['machine'])}")
    rows = [(name, s["median"], unit, s) for name, (s, unit) in named.items()] if named else [
        (name, m["value"], m["unit"], None) for name, m in metrics.items()]
    for name, value, unit, s in rows:
        extra = ""
        if s is not None:
            tail = f"p{s['tail']['pct']:g} {s['tail']['value']:.6g}" if s["tail"] else "no tail"
            extra = f"  (median of {s['n']}; {tail})"
        print(f"  {name:36s} {value:14.6g} {unit}{extra}")
    # fail_frac counts the known defect; the result's `failed` does not.
    failures = run.failed + run.known_defects
    print(f"  {'fail_frac':36s} {failures / run.attempted:14.6g} ratio  ({failures} of "
          f"{run.attempted}; {run.known_defects} from the known QsWorstCase r = 0 defect)")
    for note in run.notes:
        print(f"  gate failed: {note}")


def main(argv=None, sizes=FULL):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "moogvcf" / "__init__.py").is_file():
        print(f"error: no moogvcf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compile the package from source on every import: never write
    # bytecode, and look for it only where there is none.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(BENCH_DIR / ".no-pycache")

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmpdir:
        run, record, metrics, named = execute(args, sizes, tmpdir)
    report(args, run, record, metrics, named)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
