"""The names the benchmark's tracer reaches must exist on the package.

bench/tracing.py wraps package functions by (module, attribute) name, and
its simulate hook reads integrators.NewtonError and integrators.Method.  A
rename or deletion there breaks `python -m pytest bench`; this test catches
it in the main suite, without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

from moogvcf.experiments import run_decay_study

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    pinned = [(module, attribute) for module, attribute, _ in tracing.SPANS + tracing.COUNTERS]
    pinned += [("integrators", "NewtonError"), ("integrators", "Method")]
    missing = [f"{module}.{attribute}" for module, attribute in pinned
               if not hasattr(importlib.import_module(f"moogvcf.{module}"), attribute)]
    assert missing == []


def test_decay_study_positional_order():
    # the decay_stiff workload passes these five positionally
    assert list(inspect.signature(run_decay_study).parameters) == [
        "p", "seed", "n_states", "cfg", "t_end"]
