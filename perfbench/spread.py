"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads dissemination --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace --save perfbench/baseline.json

Runs run.py once per (workload, seed), one run at a time, from the
repository root, for BENCHMARK.json's run_seconds.  For every
end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median over the seeds, the figure the bounds in
BENCHMARK.json are checked against, and whether it stays within a
third of the bound; it exits 1 if any does not.  It does the same for
the unpaced set-up and pass times run.py prints as `raw.*`, which are
kept for comparison and not held to a bound.  With --trace it also runs
each workload once traced and keeps the per-layer metrics.  --save
writes everything to a JSON file, the form the perf trajectory is kept
in.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RAW_LINE = re.compile(r"^raw\.(\w+) = (\S+) s$")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=200)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    raw = {m.group(1): float(m.group(2)) for m in map(RAW_LINE.match, lines) if m}
    return json.loads(lines[-1]), raw, elapsed


def quartile_spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true", help="also one traced run per workload")
    p.add_argument("--save")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    worst_ok = True
    for workload in names:
        runs, raws, elapsed = [], [], []
        for seed in summary["seeds"]:
            result, raw, dt = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT", file=sys.stderr)
                worst_ok = False
            runs.append(result)
            raws.append(raw)
            elapsed.append(dt)
        entry = {"run_elapsed_s_max": max(elapsed), "end_to_end": {}, "raw": {}}
        print(f"{workload}: {len(runs)} runs, longest {max(elapsed):.1f}s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            ok = spread <= bound / 3
            worst_ok &= ok
            entry["end_to_end"][name] = {"median": statistics.median(values),
                                         "spread": spread, "bound": bound,
                                         "values": values}
            print(f"  {name:12s} median {statistics.median(values):10.4f}  "
                  f"spread {spread:6.1%}  bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
        for name in sorted(raws[0]):
            values = [r[name] for r in raws]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            entry["raw"][name] = {"median": statistics.median(values),
                                  "spread": spread, "values": values}
            print(f"  raw.{name:8s} median {statistics.median(values):10.4f}  "
                  f"spread {spread:6.1%}  (unpaced, for comparison)")
        if args.trace:
            result, _, _ = run_once(workload, summary["seeds"][0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
