"""microcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dissemination --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src, so
nothing needs installing.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The lines before it print every metric by name and unit, the
environment and the fingerprint of simulated statistics.

The workload runs in one child process (worker.py).  Set-up time is the
median over SETUP_PROBES extra children that only set up and the child
that measures.  Each set-up is paced by the median of three probes
taken just before its spawn and three taken just after it (pace.py);
the probes after one set-up serve as those before the next.  Records,
CSV outputs, traces and fingerprints go under .perfbench_out/ in the
current directory.  Exit codes: 0 a result was
printed (check `correct`), 2 no microcast source here or bad arguments,
3 the workload crashed or overran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import pace

WORKLOADS = ("codec-bulk", "dissemination", "solver-sweep", "property-grid")
SETUP_PROBES = 10
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "gf256.gf_dot.calls": "count",
    "gf256.gf_dot.self_s": "s",
    "gf256.gf_dot.mac_count": "count",
    "gf256.gf_dot.bytes_computed": "bytes",
    "rlnc.insert.calls": "count",
    "rlnc.insert.self_s": "s",
    "rlnc.insert.us_per_call": "us",
    "rlnc.insert.innovative_ratio": "fraction",
    "rlnc.encode.self_s": "s",
    "rlnc.recode.calls": "count",
    "rlnc.recode.self_s": "s",
    "rlnc.wire.self_s": "s",
    "rlnc.extract.self_s": "s",
    **{f"rlnc.{phase}_mbps.m{m}": "Mbps"
       for phase in ("encode", "decode") for m in (16, 25, 32, 64)},
    "netsim.events": "count",
    "netsim.transmissions": "count",
    "netsim.events_per_s": "1/s",
    "netsim.run.self_s": "s",
    "netsim.medium.null_build_ratio": "fraction",
    "netsim.medium.busy_frac": "fraction",
    "netsim.log.calls": "count",
    "netsim.log.self_s": "s",
    "netsim.log.records": "count",
    "protocols.microcast.pseudo_adhoc.run_s": "s",
    "protocols.bittorrent_pull.pseudo_adhoc.run_s": "s",
    "protocols.r2_push.star.run_s": "s",
    "protocols.r2_push.clique.run_s": "s",
    "protocols.handler.self_s": "s",
    "protocols.build.self_s": "s",
    "num.simulate.self_s": "s",
    "num.simulate.us_per_iter.n2": "us",
    "num.simulate.us_per_iter.n4": "us",
    "num.simulate.us_per_iter.n8": "us",
    "num.oracle.calls": "count",
    "num.oracle.ms_per_call": "ms",
    "num.oracle_gap.max": "fraction",
    "scenarios.build_configs.self_s": "s",
    "scenarios.csv.self_s": "s",
    "acceptance.protocol_properties.self_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "fraction",
}


class BenchError(Exception):
    pass


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = _child_env()
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "threads": {v: env[v] for v in THREAD_VARS}}


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:      # one workload, one busy thread
        env.setdefault(var, "1")
    return env


def _worker(args, deadline, before, setup_only=False) -> dict:
    """Run one worker; its record gains `setup_s`, the paced set-up time.

    `before` is the median probe time just before the spawn.
    """
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload overran the deadline and was stopped") from None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = (record["setup_raw_s"] * pace.NOMINAL_S * 2
                         / (before + record["setup_probe_s"]))
    return record


def _check_fingerprint(record: dict) -> str | None:
    """Compare with an earlier run of the same program, workload and seed."""
    folder = os.path.join(OUT_DIR, "fingerprints", record["source_digest"])
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{record['workload']}-seed{record['seed']}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier["fingerprint"] != record["fingerprint"]:
            return (f"fingerprint {record['fingerprint_sha256'][:16]} differs from "
                    f"{earlier['fingerprint_sha256'][:16]} of an earlier run ({path})")
        return None
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({k: record[k] for k in ("fingerprint", "fingerprint_sha256")}, fh)
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    args = _args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "microcast", "__init__.py")):
        print("perfbench: run from the repository root; src/microcast not found",
              file=sys.stderr)
        return 2
    try:
        setup_runs = []
        before = pace.probe_median()
        for _ in range(SETUP_PROBES):
            setup_runs.append(_worker(args, deadline, before, setup_only=True))
            before = setup_runs[-1]["setup_probe_s"]
        record = _worker(args, deadline, before)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    setup_runs.append(record)
    setups = [r["setup_s"] for r in setup_runs]
    record["setup_samples"] = setups
    record["setup_raw_samples"] = [r["setup_raw_s"] for r in setup_runs]
    record["environment"] = {**_environment(), **record.pop("versions", {})}

    problems = list(record["problems"])
    mismatch = _check_fingerprint(record)
    if mismatch:
        problems.append(mismatch)
    if not record["consistent"] and not problems:
        problems.append("passes disagree on simulated statistics")
    correct = record["failed"] == 0 and record["consistent"] and mismatch is None

    if args.trace:
        units = PER_LAYER
        values = record["metrics"]
    else:
        units = END_TO_END
        values = {**record["metrics"], "setup_s": statistics.median(setups)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    os.makedirs(os.path.join(OUT_DIR, "runs"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT_DIR, "runs", f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "correct": correct, "metrics": metrics}, fh, indent=1)

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    raw = record["timed_raw_s"]
    print(f"workload {args.workload} seed {args.seed}: {len(raw)} timed passes, "
          f"raw {min(raw):.3f}-{max(raw):.3f}s, pace "
          f"{min(record['timed_pace']):.2f}-{max(record['timed_pace']):.2f}, "
          f"attempted {record['attempted']}, "
          f"failed {record['failed']} "
          f"(failed_share {record['failed'] / max(record['attempted'], 1):.4g})")
    print(f"fingerprint sha256 {record['fingerprint_sha256']}")
    for p in problems[:10]:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:      # the unpaced figures, to show what pacing removes
        print(f"raw.setup_s = {statistics.median(record['setup_raw_samples'])!r} s")
        print(f"raw.wall_s = {statistics.median(raw)!r} s")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
