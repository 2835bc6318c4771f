"""The names the benchmark reaches must exist on the package.

bench/tracing.py wraps package functions by (module, attribute) name, and
its simulate hook reads integrators.NewtonError and integrators.Method.  The
bench files also read package names as attributes of lib.<module>, the
namespace bench/run.py loads, or of a name bound to one.  A rename or
deletion there breaks `python -m pytest bench`; these tests catch it in the
main suite, without running the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from moogvcf.experiments import run_decay_study

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
# bench/run.py's lib namespace also carries mpmath, which is not a package module
THIRD_PARTY = {"mpmath"}


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


def _lib_module(node):
    """m for an expression lib.m, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lib"):
        return node.attr
    return None


def _bench_reads(path):
    """(module, attribute) of each attribute that the file reads off lib.<module>,
    or off a name that the same function binds to lib.<module>."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = set()
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))]:
        aliases = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    both = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    pairs = zip(target.elts, node.value.elts) if both else [(target, node.value)]
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and _lib_module(value) is not None:
                            aliases[name.id] = _lib_module(value)
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                module = _lib_module(node.value)
                if module is None and isinstance(node.value, ast.Name):
                    module = aliases.get(node.value.id)
                if module is not None and module not in THIRD_PARTY:
                    reads.add((module, node.attr))
    return reads


@pytest.mark.parametrize("name", ["micro.py", "workloads.py", "tracing.py"])
def test_bench_read_names_resolve(name):
    reads = _bench_reads(BENCH / name)
    missing = sorted(f"{module}.{attribute}" for module, attribute in reads
                     if not hasattr(importlib.import_module(f"moogvcf.{module}"), attribute))
    assert missing == []


def test_bench_reads_are_collected():
    # attributes of lib.<module> and of names bound to one, and no metric
    # name such as "integrators.dg_step_us.odt1", which is a string
    reads = _bench_reads(BENCH / "micro.py") | _bench_reads(BENCH / "workloads.py")
    assert {("integrators", "step_discrete_gradient"), ("integrators", "step_rk4"),
            ("lyapunov", "sym_eigvals"), ("lyapunov", "Verdict"),
            ("spectral", "RootFindingError"), ("experiments", "run_decay_study"),
            ("cli", "main")} <= reads
    assert not any(attribute.startswith("dg_step_us") for _, attribute in reads)


def test_decay_study_positional_order():
    # the decay_stiff workload passes these five positionally
    assert list(inspect.signature(run_decay_study).parameters) == [
        "p", "seed", "n_states", "cfg", "t_end"]
