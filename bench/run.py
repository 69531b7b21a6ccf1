"""Run one benchmark workload of prodiso and print its metrics.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run starts fresh worker processes (bench/worker.py) pinned to one
BLAS/OpenMP thread, times every call in worker CPU time, checks every
output against bench/reference.py, and prints a per-kind timing table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a traced worker that
repeats the rounds of an untraced one (the tracing overhead is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3          # fresh workers whose set-up time is sampled
WORKER_TIMEOUT_S = 170
MAX_ROUNDS = 200
LAYERS = ("measures", "numerics", "spectral", "halfspace", "isoprofile",
          "perturb", "cli")
IMPORT_SAMPLES = 3


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job: dict, root: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=root,
        env=worker_env(root), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def import_times(root: str) -> dict:
    """Cumulative import time (ms) of each prodiso module, from
    ``python -X importtime -c "import prodiso.cli"``; median of a few."""
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import prodiso.cli"],
            capture_output=True, text=True, cwd=root, env=worker_env(root),
            timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[2].startswith("prodiso."):
                continue
            layer = parts[2].split(".", 1)[1]
            if layer in samples:
                samples[layer].append(float(parts[1]) / 1000.0)
    return {f"{layer}.import_ms": statistics.median(v)
            for layer, v in samples.items() if v}


def tail_percentile(workload: str) -> int:
    """The highest whole percentile with at least ten calls beyond it, in
    the smallest run the workload makes."""
    n_min = workloads.MIN_ROUNDS[workload] * len(
        workloads.round_plan(workload, 0, 0))
    return int(math.floor(100.0 * (1.0 - 10.0 / n_min)))


def evaluate(workload: str, seed: int, result: dict) -> dict:
    """Check every call of a worker result; return the summary."""
    specs = {}
    for r in range(result["rounds"]):
        for spec in workloads.round_plan(workload, seed, r):
            specs[spec["id"]] = spec
    failed = []
    unexpected = []
    digits: list[tuple[float, str]] = []
    for rec in result["calls"]:
        spec = specs[rec["id"]]
        if "error" in rec:
            ok, why = False, rec["error"]
        else:
            ok, d, why = checks.check(spec, rec["output"])
            if ok:
                digits.extend((x, rec["kind"]) for x in d)
        if not ok:
            failed.append((rec["id"], why))
            if checks.failure_key(spec) not in \
                    checks.EXPECTED_FAILURES[workload]:
                unexpected.append((rec["id"], why))
    return {"attempted": len(result["calls"]), "failed": failed,
            "unexpected": unexpected, "digits": digits}


def speed(result: dict) -> float:
    """The machine's speed during a worker's run, relative to the machine
    the benchmark was built on (above 1: slower)."""
    return statistics.median(result["calibration_s"]) / calibrate.NOMINAL_S


def end_to_end(workload: str, result: dict, setup: list[float],
               summary: dict) -> dict:
    """The end-to-end metrics; ``setup`` holds set-up times already in
    reference seconds."""
    cpu_ms = np.array([1000.0 * c["cpu_s"] for c in result["calls"]]) \
        / speed(result)
    digits = [d for d, _ in summary["digits"]] or [0.0]
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "calls_per_cpu_s": (len(cpu_ms) / (cpu_ms.sum() / 1000.0), "1/s"),
        "call_p50_ms": (float(np.percentile(cpu_ms, 50)), "ms"),
        "call_tail_ms": (float(np.percentile(cpu_ms,
                                             tail_percentile(workload))),
                         "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        "digits_min": (min(digits), "digits"),
        "digits_median": (statistics.median(digits), "digits"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def kind_table(result: dict) -> list[str]:
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for c in result["calls"]:
        by_kind.setdefault(c["kind"], []).append((c["cpu_s"], c["wall_s"]))
    lines = [f"{'kind':26s} {'calls':>5s} {'cpu_ms_p50':>11s} "
             f"{'wall_ms_p50':>11s}"]
    for kind, rows in sorted(by_kind.items()):
        cpu = statistics.median(r[0] for r in rows) * 1000.0
        wall = statistics.median(r[1] for r in rows) * 1000.0
        lines.append(f"{kind:26s} {len(rows):5d} {cpu:11.2f} {wall:11.2f}")
    return lines


def per_layer(names: list[str], trace: dict, imports: dict) -> dict:
    out = {}
    for name in names:
        if name in imports:
            out[name] = {"value": imports[name], "unit": "ms"}
        else:
            unit = "count" if name.endswith(".calls") else "ms"
            out[name] = {"value": float(trace.get(name, 0.0)), "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prodiso", "__init__.py")):
        print("bench/run.py: no src/prodiso here; run it from the root of "
              "a prodiso checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # untimed: writes the bytecode cache and warms the file cache, so every
    # sampled set-up below sees the same state
    subprocess.run([sys.executable, "-c", "import prodiso.cli"], cwd=root,
                   env=worker_env(root), timeout=120, check=True)

    job = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds / (2.0 if args.trace else 1.0),
           "min_rounds": workloads.MIN_ROUNDS[args.workload],
           "max_rounds": MAX_ROUNDS, "src": os.path.join(root, "src")}
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        res = run_worker(dict(job, setup_only=True), root)
        setup.append(res["setup_cpu_s"] / speed(res))
    result = run_worker(job, root)
    setup.append(result["setup_cpu_s"] / speed(result))
    summary = evaluate(args.workload, args.seed, result)
    metrics = end_to_end(args.workload, result, setup, summary)

    held_by = min(summary["digits"], default=(0.0, "none"))[1]
    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{result['rounds']}  calls {summary['attempted']}  tail "
          f"percentile p{tail_percentile(args.workload)}  digits_min held "
          f"by {held_by}  speed {speed(result):.4f} over "
          f"{len(result['calibration_s'])} samples")
    print("\n".join(kind_table(result)))
    failures = summary["failed"]
    if args.trace:
        traced = run_worker(dict(job, trace=True,
                                 min_rounds=result["rounds"],
                                 max_rounds=result["rounds"]), root)
        tsum = evaluate(args.workload, args.seed, traced)
        failures = failures + tsum["failed"]
        summary["unexpected"] += tsum["unexpected"]
        # both sides in the worker's own CPU seconds, not normalized
        cps = len(result["calls"]) / sum(c["cpu_s"] for c in result["calls"])
        traced_cpu_s = sum(c["cpu_s"] for c in traced["calls"])
        cps_traced = len(traced["calls"]) / traced_cpu_s
        tr = traced["trace"]
        round_ms = 1000.0 * traced_cpu_s / traced["rounds"]
        print(f"tracing overhead: calls_per_cpu_s {cps:.4f} untraced, "
              f"{cps_traced:.4f} traced ({100.0 * (cps - cps_traced) / cps:+.2f}%"
              f" slower); {tr['trace.spans']:.0f} spans a round cost about "
              f"{tr['trace.overhead_ms']:.1f} ms of its {round_ms:.0f} ms "
              f"({100.0 * tr['trace.overhead_ms'] / round_ms:.2f}%)")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(names, traced["trace"], import_times(root))
        attempted = summary["attempted"] + tsum["attempted"]
    else:
        attempted = summary["attempted"]
    for call_id, why in failures:
        print(f"failed {call_id}: {why}", file=sys.stderr)
    for call_id, why in summary["unexpected"]:
        print(f"UNEXPECTED failure {call_id}: {why}", file=sys.stderr)
    print(json.dumps({"correct": not summary["unexpected"],
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
