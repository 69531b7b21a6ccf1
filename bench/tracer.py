"""Per-layer spans for the traced benchmark run, recorded from outside.

The tracer wraps public entry points of the ``prodiso`` modules and rebinds
each wrapped name in every ``prodiso`` module namespace that holds it, so
calls between modules are seen too.  ``splu`` and ``eigh_tridiagonal`` are
wrapped as bound in ``prodiso.spectral``; the factor objects ``splu``
returns are proxied so that their ``solve`` calls are counted as well.

Spans are timed in process CPU time.  A span's self time is its duration
minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  Span names are the per-layer metric
# stems in BENCHMARK.json.
FUNCTIONS = (
    ("prodiso.numerics", "integrate", "numerics.integrate"),
    ("prodiso.numerics", "tabulate", "numerics.tabulate"),
    ("prodiso.numerics", "_convolve", "numerics.convolve"),
    ("prodiso.spectral", "spectral_gap", "spectral.spectral_gap"),
    ("prodiso.spectral", "assemble", "spectral.assemble"),
    ("prodiso.spectral", "solve_smallest", "spectral.solve_smallest"),
    ("prodiso.spectral", "check_P1", "spectral.check_P1"),
    ("prodiso.spectral", "check_P2", "spectral.check_P2"),
    ("prodiso.spectral", "tensor_oracle_2d", "spectral.tensor_oracle_2d"),
    ("prodiso.spectral", "eigh_tridiagonal", "spectral.eigh_tridiagonal"),
    ("prodiso.halfspace", "coordinate_stability",
     "halfspace.coordinate_stability"),
    ("prodiso.halfspace", "noncoordinate_stability",
     "halfspace.noncoordinate_stability"),
    ("prodiso.halfspace", "projection_density",
     "halfspace.projection_density"),
    ("prodiso.halfspace", "boundary_measure", "halfspace.boundary_measure"),
    ("prodiso.isoprofile", "profile_1d", "isoprofile.profile_1d"),
    ("prodiso.isoprofile", "profile_envelope", "isoprofile.profile_envelope"),
    ("prodiso.isoprofile", "clt_upper_bound", "isoprofile.clt_upper_bound"),
    ("prodiso.perturb", "perturbation_slopes", "perturb.perturbation_slopes"),
    ("prodiso.perturb", "eigen_curves", "perturb.eigen_curves"),
    ("prodiso.perturb", "finite_diff_validate",
     "perturb.finite_diff_validate"),
)
# (module, class, method, span name)
METHODS = (
    ("prodiso.measures", "MeasureSpec", "quantile", "measures.quantile"),
    ("prodiso.measures", "MeasureSpec", "cdf", "measures.cdf"),
)
SPLU = ("prodiso.spectral", "splu", "spectral.splu")
SOLVE_SPAN = "spectral.superlu_solve"


class _LUProxy:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._solve = tracer.wrap(lu.solve, SOLVE_SPAN)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}   # name -> [calls, total, self]
        self._stack: list[list[float]] = []       # [start, child time]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, func, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.process_time

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]

        return functools.wraps(func)(traced)

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prodiso"
                                   or mod_name.startswith("prodiso.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.wrap(original, name))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))
        mod_name, attr, name = SPLU
        mod = sys.modules[mod_name]
        original = getattr(mod, attr)
        factor = self.wrap(original, name)
        self.stats.setdefault(SOLVE_SPAN, [0, 0.0, 0.0])
        self._undo.append((mod, attr, original))
        setattr(mod, attr, lambda *a, **k: _LUProxy(factor(*a, **k), self))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """CPU seconds one span adds, from wrapping a no-op."""
        def noop():
            return None
        probe = Tracer().wrap(noop, "probe")
        t0 = time.process_time()
        for _ in range(calls):
            noop()
        t1 = time.process_time()
        for _ in range(calls):
            probe()
        t2 = time.process_time()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def summary(self, rounds: int) -> dict:
        """Per-round counts and milliseconds of every span, and the spans'
        own estimated cost per round (``trace.overhead_ms``)."""
        spans = sum(calls for calls, _, _ in self.stats.values())
        out = {"trace.spans": spans / rounds,
               "trace.overhead_ms": 1000.0 * spans * self.span_cost() / rounds}
        for name, (calls, total, self_time) in self.stats.items():
            out[name + ".calls"] = calls / rounds
            out[name + ".ms"] = 1000.0 * total / rounds
            out[name + ".self_ms"] = 1000.0 * self_time / rounds
        return out
