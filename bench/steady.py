"""Steadiness mode: repeat workloads over seeds and report the spread.

    python3 bench/steady.py --runs 10 [--first-seed 1] [--out FILE]

Runs ``bench/run.py`` once per seed (seeds first-seed .. first-seed+runs-1)
on every workload of BENCHMARK.json, at its ``run_seconds``, and prints, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, plus the
failed share.  Run it from the root of a checkout.  ``--out`` keeps every
run's JSON line (results/ under bench is ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(rows: list[dict], spec: dict) -> list[str]:
    lines = [f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>8s} {'bound':>6s}"]
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med)
        flag = "" if spread <= m["bound"] / 3.0 else "  > bound/3"
        lines.append(f"  {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                     f"{spread:8.4f} {m['bound']:6.3f}{flag}")
    shares = sorted({(r["failed"], r["attempted"]) for r in rows})
    exact = {f / a for f, a in shares}
    lines.append(f"  failed/attempted: {shares}  "
                 f"({'one share' if len(exact) == 1 else 'SHARES DIFFER'})")
    lines.append(f"  correct in every run: {all(r['correct'] for r in rows)}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = {"started": time.strftime("%Y-%m-%d %H:%M:%S"), "runs": {}}
    for workload in names:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            rows.append(run_once(workload, seed, seconds))
        record["runs"][workload] = rows
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each")
        print("\n".join(summarize(rows, spec)), flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
