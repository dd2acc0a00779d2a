#!/usr/bin/env python3
"""Steadiness report: runs each workload k times and prints, for every
metric, the median, the quartiles and the spread against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 benchmark/steady.py                      # gated workloads, k=10
    python3 benchmark/steady.py -k 5 -w small-churn  # any workload, 5 seeds
    python3 benchmark/steady.py --trace 1            # per-layer metrics
    python3 benchmark/steady.py --save a.json        # keep the raw values
    python3 benchmark/steady.py --baseline a.json    # A/B against a save

Run i (from 1 to k) uses seed i. The spread of a metric is
(q3 - q1) / median over its k values, quartiles as Python's
`statistics.quantiles(values, n=4)` gives them. A metric is steady when
its spread is below a third of its bound. With `--baseline`, each
median is also compared with the saved run's median: a change worse
than the bound is flagged. The exit code is 1 when a run fails or
reports `correct: false`, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("-w", "--workload", action="append",
                    help="workload to run (repeatable; default: the gated ones)")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw values as JSON here")
    ap.add_argument("--baseline", help="a --save file to compare medians with")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    better = {m["name"]: m["better"] for m in bench[key]}
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else {}

    saved = {}
    ok = True
    for w in workloads:
        values = {}
        walls = []
        for seed in range(1, args.k + 1):
            res, wall = run_once(bench["command"], w, seed, seconds, args.trace)
            walls.append(wall)
            if res is None or not res["correct"]:
                print(f"{w} seed {seed}: FAILED ({'no result' if res is None else 'incorrect'})")
                ok = False
                continue
            if res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} requests failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print(f"\n== {w}: {len(next(iter(values.values()), []))} runs, "
              f"{seconds}s each, wall {statistics.median(walls) if walls else 0:.1f}s median")
        print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "UNSTEADY")
                old = base.get(w, {}).get(name)
                if old:
                    ref = statistics.median(old)
                    change = (med - ref) / abs(ref) if ref else 0.0
                    worse = change if better.get(name) == "lower" else -change
                    verdict += f"  vs baseline {change:+.1%}" + (" WORSE" if worse > bound else "")
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:40} {med:14.4f} {q1:14.4f} {q3:14.4f} {sp:8.3f} {b:>6}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
