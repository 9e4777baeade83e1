"""Write one perf-trajectory point, BENCH_<label>.json, from perfbench runs.

    python3 tools/bench_json.py --label LABEL --seeds 1-5

Run from a repository root.  It runs `perfbench/spread.py --trace` over
the seeds: every workload in BENCHMARK.json once per seed for its
run_seconds, then once traced.  To spread.py's summary (each end-to-end
metric's median, quartile spread and values; the unpaced times; the
per-layer metrics of the traced run) it adds each end-to-end metric's
quartiles, the CPU count, the Python and numpy versions, the git commit
and whether src/ differs from it.

Then it takes the north-star numbers that no workload covers, after
the perfbench runs so that none of them overlap: `startup_s`, the
median wall time of five `python -m microcast --help` runs (interpreter
start plus the import of every package module), and one run each of
`microcast recipe all` into a temporary directory, timed per recipe
from when each recipe's output line appears (the first recipe's time
includes start-up; a `bench` recipe such as fig7b runs for a fixed
wall-clock budget and is marked `wall_clock`), and the Tier-1 suite,
with its wall time and pytest's outcome counts.

`src_lines` holds the line count of each src/microcast/*.py file and
their total, so the size of the package is a number in every point.

Each workload's entry lists its runs under `runs` (seed, whether
traced, and the run's `correct`), and `wide_spreads` names every
`workload.metric` whose quartile spread is wider than a third of its
bound, the rule spread.py marks `WIDE`.

Exit status, after writing the file: 0 when every run was correct and
no spread is wide; 1 when a run was not correct (a crashed run also
exits 1, with its message and no file); 3 when every run was correct
but some spread is wide, which says the host was noisy, not that the
program is wrong; 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

EXIT_NOT_CORRECT = 1
EXIT_WIDE_SPREAD = 3


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.decode().strip()


def _src_env() -> dict:
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def src_lines() -> dict:
    """Line count of each src/microcast/*.py file, and their total."""
    files = {}
    for path in sorted(glob.glob(os.path.join("src", "microcast", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            files[os.path.basename(path)] = sum(1 for _ in fh)
    return {"files": files, "total": sum(files.values())}


def startup_s() -> float:
    """Median wall time of five `python -m microcast --help` runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "microcast", "--help"],
                       stdout=subprocess.DEVNULL, check=True, env=_src_env())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def recipe_times() -> dict:
    """Wall time of one `microcast recipe all` run, and of each recipe in it."""
    sys.path.insert(0, os.path.abspath("src"))
    from microcast.scenarios import RECIPES

    recipes = {}
    with tempfile.TemporaryDirectory() as out:
        start = last = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "microcast", "recipe", "all", "--out", out],
            stdout=subprocess.PIPE, text=True, env=_src_env())
        for line in proc.stdout:
            name = line.split(":", 1)[0]
            if name in RECIPES:
                now = time.perf_counter()
                recipes[name] = {"wall_s": now - last,
                                 "wall_clock": RECIPES[name].kind == "bench"}
                last = now
        status = proc.wait()
    return {"wall_s": time.perf_counter() - start, "exit": status, "recipes": recipes}


def tier1_time() -> dict:
    """Wall time and outcome counts of one Tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_src_env())
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    return {"wall_s": wall, "exit": proc.returncode, "summary": summary, **counts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-5")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath("perfbench"))
    import spread

    runs = {}
    run_once = spread.run_once

    def recording_run_once(workload, seed, seconds, trace):
        result, raw, elapsed = run_once(workload, seed, seconds, trace)
        runs.setdefault(workload, []).append(
            {"seed": seed, "traced": bool(trace), "correct": bool(result["correct"])})
        return result, raw, elapsed

    spread.run_once = recording_run_once
    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "spread.json")
        spread.main(["--seeds", args.seeds, "--trace", "--save", saved])
        with open(saved, encoding="utf-8") as fh:
            point = json.load(fh)
    wide = []
    for workload, entry in point["workloads"].items():
        entry["runs"] = runs[workload]
        for name, metric in entry["end_to_end"].items():
            q1, q3 = np.percentile(metric["values"], [25, 75])
            metric["q1"], metric["q3"] = float(q1), float(q3)
            if metric["spread"] > metric["bound"] / 3:
                wide.append(f"{workload}.{name}")
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    commit = _git("rev-parse", "HEAD")
    point.update({
        "label": args.label,
        "git": {"commit": commit,
                "src_differs": bool(_git("status", "--porcelain", "--", "src"))
                if commit else None},
        "environment": {"cpu_count": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
        "correct": correct,
        "wide_spreads": wide,
        "src_lines": src_lines(),
        "north_star": {"startup_s": startup_s(), "recipe_all": recipe_times(),
                       "tier1": tier1_time()},
    })
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    if not correct:
        return EXIT_NOT_CORRECT
    if wide:
        print(f"wide spreads: {', '.join(wide)}", file=sys.stderr)
        return EXIT_WIDE_SPREAD
    return 0


if __name__ == "__main__":
    sys.exit(main())
