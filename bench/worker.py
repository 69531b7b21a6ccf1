"""Benchmark worker: makes one workload's calls into prodiso and times them.

Reads a job (JSON) on stdin and writes one JSON result on stdout.  Each
call is timed in this process's CPU time (``time.process_time``); wall
time is kept for reference only.  Between calls, about once a second, the
worker times ``calibrate.kernel`` to gauge the machine's speed.  With
``"setup_only"`` the worker stops after set-up and a few speed samples,
which is how the parent samples the set-up time of several fresh processes.

Run by ``bench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import numpy as np

import workloads

prodiso = None      # bound in main(), after the job names the source tree

CALIBRATE_EVERY_S = 1.0     # wall seconds between speed samples in a run
SETUP_CALIBRATIONS = 5      # speed samples of a set-up-only worker


def _measure(cache: dict, desc: dict):
    key = json.dumps(desc, sort_keys=True)
    if key not in cache:
        cache[key] = prodiso.MeasureSpec.from_descriptor(desc)
    return cache[key]


def _oracle_instance(args: dict):
    if args["family"] == "gaussian":
        s1, s2, n = args["s1"], args["s2"], args["n"]
        grid = prodiso.Grid.symmetric_grid(7.0 * min(s1, s2), n)
        x = grid.nodes()
        return (np.exp(-0.5 * (x / s1) ** 2), np.exp(-0.5 * (x / s2) ** 2),
                np.full(n, args["theta"]), grid)
    rng = np.random.default_rng(args["gen_seed"])
    for _ in range(args["draw"]):
        inst = prodiso.random_oracle_instance(rng, args["n"])
    return inst


class Inputs:
    """Objects the calls share: measures, the designed bump, oracle data."""

    def __init__(self):
        self.measures: dict = {}
        self.bump = None
        self.oracle: dict = {}

    def prepare(self, spec: dict) -> None:
        a = spec["args"]
        for m in ([a["measure"]] if "measure" in a else []) \
                + a.get("measures", []):
            _measure(self.measures, m)
        if spec["fn"] == "finite_diff_validate" and self.bump is None:
            self.bump = prodiso.design_bump()[0]
        if spec["fn"] == "tensor_oracle_2d":
            self.oracle[spec["id"]] = _oracle_instance(a)


def _run_call(spec: dict, inp: Inputs):
    """Make the call of ``spec``; return (output, cpu_s, wall_s)."""
    a = spec["args"]
    fn = spec["fn"]
    m = _measure(inp.measures, a["measure"]) if "measure" in a else None
    # resolve the function at call time, so that trace wrappers apply
    f = getattr(prodiso, fn)
    if fn == "spectral_gap":
        call = lambda: f(m)  # noqa: E731
    elif fn == "coordinate_stability":
        call = lambda: f(m, a["t"])  # noqa: E731
    elif fn == "noncoordinate_stability":
        kw = {"n": a["n"]} if "n" in a else {}
        call = lambda: f(m, a["alpha"], a["tau"], a["dim"], **kw)  # noqa: E731
    elif fn == "design_bump":
        call = lambda: f()  # noqa: E731
    elif fn == "finite_diff_validate":
        call = lambda: f(inp.bump, tuple(a["eps"]))  # noqa: E731
    elif fn == "profile_envelope":
        levels = np.asarray(a["levels"])
        call = lambda: f(m, levels)  # noqa: E731
    elif fn == "clt_upper_bound":
        call = lambda: f(m, a["t"], a["n_max"])  # noqa: E731
    elif fn == "profile_1d":
        call = lambda: f(m, a["t"])  # noqa: E731
    elif fn == "boundary_measure":
        ms = [_measure(inp.measures, d) for d in a["measures"]]
        hs = prodiso.HalfSpace(tuple(a["v"]), a["t"])
        call = lambda: f(ms, hs)  # noqa: E731
    elif fn == "tensor_oracle_2d":
        nu, tau, theta, grid = inp.oracle[spec["id"]]
        call = lambda: f(nu, tau, theta, grid)  # noqa: E731
    else:
        raise ValueError(f"unknown call {fn}")
    w0 = time.perf_counter()
    c0 = time.process_time()
    out = call()
    c1 = time.process_time()
    w1 = time.perf_counter()
    return _encode(fn, out), c1 - c0, w1 - w0


def _floats(x) -> list[float]:
    return [float(v) for v in np.asarray(x, dtype=float).ravel()]


def _encode(fn: str, out):
    """JSON form of a call's result, holding what the checks need."""
    if fn in ("spectral_gap", "profile_1d", "boundary_measure"):
        return float(out)
    if fn == "coordinate_stability":
        c = out.certificates
        return {"tag": out.tag, "lambda": float(c["lambda"]),
                "margin": float(c["margin"])}
    if fn == "noncoordinate_stability":
        c = out.certificates
        d = {"tag": out.tag, "lambda_tau": float(c["lambda_tau"]),
             "p1": float(c["p1_eigenvalue"])}
        if "p2_infimum" in c:
            d["p2"] = float(c["p2_infimum"])
        return d
    if fn == "design_bump":
        bump, rep = out
        return {"bump": json.loads(bump.to_json()),
                "slopes": _floats(rep.slopes), "feasible": bool(rep.feasible)}
    if fn == "finite_diff_validate":
        return {"bump": json.loads(out.bump.to_json()),
                "slopes": _floats(out.slopes),
                "fd_slopes": _floats(out.fd_slopes),
                "baselines": _floats(out.baselines)}
    if fn == "profile_envelope":
        return {"ts": _floats(out.ts), "one_dim": _floats(out.one_dim),
                "lower": _floats(out.lower), "upper": _floats(out.upper)}
    if fn == "clt_upper_bound":
        return _floats(out)
    if fn == "tensor_oracle_2d":
        return {"lambda_2d": float(out.lambda_2d), "agrees": bool(out.agrees),
                "p1": float(out.p1.value), "p2": float(out.p2.value)}
    raise ValueError(f"unknown call {fn}")


def _execute(spec: dict, inp: Inputs) -> dict:
    rec = {"id": spec["id"], "kind": spec["kind"]}
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        rec["output"], rec["cpu_s"], rec["wall_s"] = _run_call(spec, inp)
    except Exception as exc:  # a raising call counts as failed
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["cpu_s"] = time.process_time() - c0
        rec["wall_s"] = time.perf_counter() - w0
    return rec


def main() -> int:
    global prodiso
    job = json.load(sys.stdin)
    workload = job["workload"]

    import prodiso.cli  # noqa: F401  (the import a CLI user pays)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(prodiso.__file__).startswith(src + os.sep):
        print(f"prodiso imported from {prodiso.__file__}, not {src}",
              file=sys.stderr)
        return 3

    inp = Inputs()
    for m in workloads.MEASURES:
        _measure(inp.measures, m)
    warm = workloads.warmup_plan(workload)
    for spec in warm:
        spec = dict(spec, id="warmup." + spec["id"])
        inp.prepare(spec)
        _execute(spec, inp)
    result = {"setup_cpu_s": time.process_time()}
    # imported only now: it loads scipy modules that set-up must pay for
    # itself if the program needs them
    import calibrate
    calibrate.kernel()
    if job.get("setup_only"):
        result["calibration_s"] = [calibrate.sample()
                                   for _ in range(SETUP_CALIBRATIONS)]
        json.dump(result, sys.stdout)
        return 0

    tracer = None
    if job.get("trace"):
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    records = []
    speed = []      # calibrate.sample() every CALIBRATE_EVERY_S, between calls
    last_sample = -math.inf
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= job["min_rounds"] and (
                elapsed + last > job["seconds"] or rounds >= job["max_rounds"]):
            break
        r0 = time.perf_counter()
        plan = workloads.round_plan(workload, job["seed"], rounds)
        for spec in plan:
            inp.prepare(spec)
        # spans cover the timed calls only, not the building of their inputs
        if tracer is not None:
            tracer.install()
        for spec in plan:
            if time.perf_counter() - last_sample >= CALIBRATE_EVERY_S:
                speed.append(calibrate.sample())
                last_sample = time.perf_counter()
            records.append(_execute(spec, inp))
        if tracer is not None:
            tracer.uninstall()
        inp.oracle.clear()
        rounds += 1
        last = time.perf_counter() - r0

    result.update({
        "rounds": rounds,
        "calls": records,
        "calibration_s": speed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        result["trace"] = tracer.summary(rounds)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
