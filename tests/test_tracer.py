"""The benchmark's tracer still finds every library name it wraps."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import prodiso.cli  # noqa: F401 - imports every module the tracer wraps
from prodiso import perturb
from prodiso.numerics import Grid

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_unwind():
    tracer = _load_tracer()
    targets = [(sys.modules[mod], attr) for mod, attr, _ in tracer.FUNCTIONS]
    targets += [(getattr(sys.modules[mod], cls), attr)
                for mod, cls, attr, _ in tracer.METHODS]
    targets.append((sys.modules[tracer.SPLU[0]], tracer.SPLU[1]))
    before = [getattr(obj, attr) for obj, attr in targets]

    t = tracer.Tracer()
    t.install()
    try:
        after = [getattr(obj, attr) for obj, attr in targets]
        assert all(a is not b for a, b in zip(after, before))
        assert all(a.__wrapped__ is b for a, b in zip(after[:-1], before))
        # a call between modules goes through the span
        grid = Grid.symmetric_grid(4.0, 41)
        w = np.exp(-grid.nodes() ** 2)
        perturb.solve_smallest(perturb.assemble(w, w, grid))
        assert t.stats["spectral.solve_smallest"][0] == 1
    finally:
        t.uninstall()
    assert all(getattr(obj, attr) is orig
               for (obj, attr), orig in zip(targets, before))
