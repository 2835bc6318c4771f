"""Per-layer tracing from outside the package.

A Tracer replaces public functions of the moogvcf modules with wrappers
that record spans (layer, start, end, parent) or bump counters, at every
module attribute bound to the function, and puts the originals back on
removal.  Spans stay in memory; layer self time is a span's duration minus
the time covered by its direct children.
"""

import functools
import sys
import time
from collections import Counter

# (module, attribute, layer): each call becomes a span of that layer and
# bumps the counter "<layer>.calls".
SPANS = (
    ("integrators", "simulate", "integrators.simulate"),
    ("lyapunov", "V_nonlinear", "lyapunov.energy"),
    ("lyapunov", "V_zero_feedback", "lyapunov.energy"),
    ("lyapunov", "Vdot_nonlinear", "lyapunov.energy"),
    ("lyapunov", "Vdot_zero_feedback", "lyapunov.energy"),
    ("lyapunov", "certify", "lyapunov.certify"),
    ("lyapunov", "sym_eigvals", "lyapunov.sym_eigvals"),
    ("lyapunov", "definiteness_threshold", "lyapunov.threshold"),
    ("spectral", "eigvals_numeric", "spectral.eigvals_numeric"),
    ("experiments", "run_sweep", "experiments"),
    ("experiments", "run_decay_study", "experiments"),
    ("experiments", "run_definiteness_sweep", "experiments"),
    ("experiments", "detect_threshold", "experiments"),
    ("cli", "main", "cli.main"),
    ("model", "to_scaled", "model"),
    ("model", "from_scaled", "model"),
    ("model", "saturation_vector", "model"),
    ("model", "feedback_ratio", "model"),
    ("rng", "substream", "rng"),
)

# (module, attribute, counter): hot inner functions that are only counted,
# so their time stays with the caller.
COUNTERS = (
    ("model", "rhs_scaled", "model.rhs_scaled.calls"),
    ("lyapunov", "log_cosh_diff", "lyapunov.log_cosh_diff.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span(self, fn, layer, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) returns a token that
        after(token, exception or None) receives when the call ends."""
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = layer + ".calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            token = before(args, kwargs) if before is not None else None
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(token, err)
                raise
            span[2] = clock()
            stack.pop()
            if after is not None:
                after(token, None)
            return result

        return wrapper

    def probe(self, start, end):
        """Record a speed-probe sample as a span, so that the layer it
        interrupted does not count its time."""
        stack = self._stack
        self.spans.append(["bench.probe", start, end, stack[-1] if stack else -1])

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _simulate_hooks(self, lib):
        counts = self.counts
        dg = lib.integrators.Method.DISCRETE_GRADIENT
        newton_error = lib.integrators.NewtonError

        def before(args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            n_steps = int(args[3] if len(args) > 3 else kwargs["n_steps"])
            counts["integrators.steps"] += n_steps
            if cfg.method is dg:
                counts["integrators.dg_steps"] += n_steps

        def after(_token, err):
            if isinstance(err, newton_error):
                counts["integrators.newton_errors"] += 1

        return before, after

    def _threshold_hooks(self):
        """Count the sym_eigvals calls made inside each threshold search."""
        counts = self.counts
        nested = "lyapunov.sym_eigvals.calls"

        def before(_args, _kwargs):
            return counts[nested]

        def after(token, _err):
            counts["lyapunov.threshold.sym_eigvals"] += counts[nested] - token

        return before, after

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        """Rebind every moogvcf module attribute that refers to original."""
        for name, module in list(sys.modules.items()):
            if name != "moogvcf" and not name.startswith("moogvcf."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self, lib):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, layer in SPANS:
            original = getattr(getattr(lib, module_name), attribute)
            before = after = None
            if layer == "integrators.simulate":
                before, after = self._simulate_hooks(lib)
            elif layer == "lyapunov.threshold":
                before, after = self._threshold_hooks()
            self._patch_everywhere(original, self._span(original, layer, before, after))
        for module_name, attribute, name in COUNTERS:
            original = getattr(getattr(lib, module_name), attribute)
            self._patch_everywhere(original, self._counter(original, name))
        # Methods and third-party entry points are rebound on their owner.
        splitmix = lib.rng.SplitMix64
        self._patch(splitmix, "uniform", self._span(splitmix.uniform, "rng"))
        if lib.mpmath is not None:
            self._patch(lib.mpmath, "workdps",
                        self._counter(lib.mpmath.workdps, "spectral.mp_escalations"))

    def remove(self):
        """Put every original back and confirm that it is back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        for owner, attribute, original in self._patches:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"tracer left {owner.__name__}.{attribute} wrapped")
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self):
        """Seconds per layer, each span's duration minus its direct
        children's."""
        out = Counter()
        spans = self.spans
        for layer, start, end, parent in spans:
            duration = end - start
            out[layer] += duration
            if parent >= 0:
                out[spans[parent][0]] -= duration
        return out
