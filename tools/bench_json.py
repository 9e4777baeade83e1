"""Write one perf-trajectory point, BENCH_<label>.json, from perfbench runs.

    python3 tools/bench_json.py --label LABEL --seeds 1-5

Run from a repository root.  It runs `perfbench/spread.py --trace` over
the seeds: every workload in BENCHMARK.json once per seed for its
run_seconds, then once traced.  To spread.py's summary (each end-to-end
metric's median, quartile spread and values; the unpaced times; the
per-layer metrics of the traced run) it adds each end-to-end metric's
quartiles, the CPU count, the Python and numpy versions, the git commit
and whether src/ differs from it.  It exits with spread.py's status:
1 if a run was not correct or a spread is wider than a third of its
bound, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.decode().strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-5")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath("perfbench"))
    import spread

    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "spread.json")
        status = spread.main(["--seeds", args.seeds, "--trace", "--save", saved])
        with open(saved, encoding="utf-8") as fh:
            point = json.load(fh)
    for entry in point["workloads"].values():
        for metric in entry["end_to_end"].values():
            q1, q3 = np.percentile(metric["values"], [25, 75])
            metric["q1"], metric["q3"] = float(q1), float(q3)
    commit = _git("rev-parse", "HEAD")
    point.update({
        "label": args.label,
        "git": {"commit": commit,
                "src_differs": bool(_git("status", "--porcelain", "--", "src"))
                if commit else None},
        "environment": {"cpu_count": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
    })
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
