"""Layer micro-timings: single calls of the layer functions on fixed
seeded inputs, each call timed on its own in reference seconds."""

import random

import numpy as np

from speed import normalized_call


def _time_calls(fn, inputs, rounds):
    return [normalized_call(fn, args) for _ in range(rounds) for args in inputs]


def micro_timings(lib, seed, rounds):
    """Per-call samples in reference seconds, keyed by the per-layer metric name."""
    model, integrators, lyapunov, spectral = lib.model, lib.integrators, lib.lyapunov, lib.spectral
    rng = random.Random(seed)
    # Saturated states, |x_i| <= 5, as in the decay studies.
    states = [np.array([rng.uniform(-5.0, 5.0) for _ in range(4)]) for _ in range(32)]
    resonances = [0.001 + 0.999 * rng.random() for _ in range(32)]
    family = lyapunov.MatrixFamily

    out = {}
    p = model.make_params(1.0, 0.99)
    for label, dt in (("0.1", 0.1), ("1", 1.0), ("10", 10.0)):
        cfg = integrators.StepConfig(dt=dt)
        out[f"integrators.dg_step_us.odt{label}"] = _time_calls(
            integrators.step_discrete_gradient, [(x, p, cfg) for x in states], rounds)
    out["integrators.rk4_step_us"] = _time_calls(
        integrators.step_rk4, [(x, p, 0.05) for x in states], 5 * rounds)
    out["lyapunov.certify.p50_us"] = _time_calls(
        lyapunov.certify,
        [(f, model.make_params(1.0, r)) for f in family for r in resonances], rounds)
    out["lyapunov.sym_eigvals.p50_us"] = _time_calls(
        lyapunov.sym_eigvals,
        [(lyapunov.symmetrize(model.linearized_matrix(model.make_params(1.0, r))),)
         for r in resonances], 3 * rounds)
    out["spectral.eigvals_numeric.p50_us"] = _time_calls(
        spectral.eigvals_numeric,
        [(model.linearized_matrix(model.make_params(rng.uniform(0.1, 100.0), r)),)
         for r in resonances], rounds)
    # r = 0 has a quadruple root and takes the high-precision path.
    out["spectral.eigvals_numeric.mp_us"] = _time_calls(
        spectral.eigvals_numeric,
        [(model.linearized_matrix(model.make_params(rng.uniform(0.1, 100.0), 0.0)),)
         for _ in range(4)], 1)
    return out
