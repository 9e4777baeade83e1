"""One workload in one process: set up, count, time, optionally trace.

Started by run.py, never by hand.  Protocol on stdout: a single JSON
line, {"setup_raw_s": ..., "setup_probe_s": ...} alone with --setup-only,
else the full result.  The set-up time is reported raw, with the pace
probe taken right after it; run.py paces it (see pace.py).
Human-readable progress goes to stderr.

Phases after set-up:
  count   one pass with counters on and spans off; its exact counts
          join the fingerprint, and it lets caches fill before timing
  timed   untraced passes until the time budget is spent; wall_s and
          peak_rss_mb come from here
  traced  (--trace 1 only) passes with every layer wrapped in spans;
          the per-layer metrics come from here

Every reported time is paced (see pace.py): read as seconds at the
speed the machine had when the pace probe was calibrated.  Set-up is
paced by run.py, which also probes before the spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_TIMED_PASSES = 3


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def source_digest(root: str) -> str:
    """Hash of the package and benchmark sources: same digest, same program."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def paced(pace, fn, *args):
    """Run fn(*args, tick) under a Pacer: (raw seconds, pace factor, result)."""
    pacer = pace.Pacer()
    result = fn(*args, pacer.tick)
    pacer.tick()
    return pacer.raw, pacer.factor, result


def _no_tick() -> None:
    pass


def main(argv=None) -> int:
    args = _args(argv)
    import numpy as np   # import cost belongs to set-up
    import scipy

    import pace
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm()
    setup = {"setup_raw_s": time.time() - args.spawned_at,
             "setup_probe_s": pace.probe_median()}
    if args.setup_only:
        print(json.dumps(setup), flush=True)
        return 0

    out_dir = os.path.join(args.out, "csv", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    attempted = failed = 0

    def account(res):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed
        problems.extend(res.problems)

    # count pass: exact counts, caches warm
    counter = tracing.Tracer(spans=False)
    restore = tracing.instrument(counter)
    try:
        first = workload.run_pass(out_dir, _no_tick)
    finally:
        restore()
    account(first)
    counts = dict(sorted(counter.counts.items()))
    fingerprint = {"outputs": first.fingerprint, "counts": counts}
    consistent = True

    def same(res, label, pass_counts=None):
        nonlocal consistent
        if res.fingerprint != first.fingerprint or pass_counts not in (None, counts):
            problems.append(f"{label} pass: simulated statistics differ from the count pass")
            consistent = False

    # timed passes, untraced
    budget = args.seconds / 2 if args.trace else args.seconds
    timed = []
    t_start = time.perf_counter()
    while len(timed) < MIN_TIMED_PASSES or time.perf_counter() - t_start < budget:
        timed.append(paced(pace, workload.run_pass, out_dir))
        account(timed[-1][2])
        same(timed[-1][2], "timed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(raw * f for raw, f, _ in timed)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **setup,
              "timed_raw_s": [raw for raw, _, _ in timed],
              "timed_pace": [f for _, f, _ in timed],
              "source_digest": source_digest(os.getcwd()),
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    if args.trace:
        metrics, traced = _traced(args, pace, tracing, workloads, out_dir, timed, wall_s)
        for _, _, res, pass_counts in traced:
            account(res)
            same(res, "traced", pass_counts)
        metrics["failed_share"] = failed / max(attempted, 1)
        result["traced_raw_s"] = [raw for raw, _, _, _ in traced]
        result["traced_pace"] = [f for _, f, _, _ in traced]
    else:
        metrics = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}

    result.update(attempted=attempted, failed=failed, consistent=consistent,
                  problems=problems[:20], metrics=metrics,
                  fingerprint=fingerprint,
                  fingerprint_sha256=hashlib.sha256(
                      json.dumps(fingerprint, sort_keys=True).encode()).hexdigest())
    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def _traced(args, pace, tracing, workloads, out_dir, timed, wall_s):
    """Traced passes and the per-layer metrics they give."""
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        # set-up again under the tracer, for scenarios.build_configs
        probe = pace.probe_s()
        workload = tracer.call("setup", workloads.WORKLOADS[args.workload], args.seed)
        setup_pace = pace.NOMINAL_S * 2 / (probe + pace.probe_s())
        setup_layers = {name: row[2] * setup_pace for name, row in tracer.by_name().items()}
        tracer.reset()
        traced, layers, cells, solver = [], {}, [], {}
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start < args.seconds / 2:
            raw, f, res = paced(pace, tracer.call, "pass", workload.run_pass, out_dir)
            traced.append((raw, f, res, dict(sorted(tracer.counts.items()))))
            for name, (calls, total, own) in tracer.by_name().items():
                row = layers.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total * f
                row[2] += own * f
            _solver_iterations(tracer, solver, f)
            if len(traced) == 1:
                cells = tracer.by_trace("protocols.run")
                os.makedirs(os.path.join(args.out, "traces"), exist_ok=True)
                tracer.write(os.path.join(
                    args.out, "traces", f"{args.workload}-seed{args.seed}.spans.csv.gz"))
            tracer.reset()
    finally:
        restore()

    passes = len(traced)
    counts = traced[0][3]
    first = traced[0][2]

    def calls(name):
        return layers.get(name, [0])[0] / passes

    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0])[2] / passes

    def total_s(name):
        return layers.get(name, [0, 0.0, 0.0])[1] / passes

    def timer(key):
        """Median over the timed passes of a paced phase time; 0 if absent."""
        if key not in first.timers:
            return 0.0
        return statistics.median(res.timers[key] * f for _, f, res in timed)

    traced_wall = statistics.median(raw * f for raw, f, _, _ in traced)
    m = {}
    m["gf256.gf_dot.calls"] = calls("gf256.gf_dot")
    m["gf256.gf_dot.self_s"] = self_s("gf256.gf_dot")
    m["gf256.gf_dot.mac_count"] = counts.get("gf256.gf_dot.mac", 0)
    m["gf256.gf_dot.bytes_computed"] = counts.get("gf256.gf_dot.bytes", 0)
    inserts = counts.get("rlnc.insert.calls", 0)
    m["rlnc.insert.calls"] = inserts
    m["rlnc.insert.self_s"] = self_s("rlnc.insert")
    m["rlnc.insert.us_per_call"] = total_s("rlnc.insert") / inserts * 1e6 if inserts else 0.0
    m["rlnc.insert.innovative_ratio"] = (
        counts.get("rlnc.insert.innovative", 0) / inserts if inserts else 0.0)
    m["rlnc.encode.self_s"] = self_s("rlnc.encode")
    m["rlnc.recode.calls"] = counts.get("rlnc.recode.calls", 0)
    m["rlnc.recode.self_s"] = self_s("rlnc.recode")
    m["rlnc.wire.self_s"] = self_s("rlnc.wire")
    m["rlnc.extract.self_s"] = self_s("rlnc.extract")
    for size in (16, 25, 32, 64):
        for phase in ("encode", "decode"):
            seconds = timer(f"{phase}_s.m{size}")
            bits = first.values.get(f"{phase}_bits.m{size}", 0)
            m[f"rlnc.{phase}_mbps.m{size}"] = bits / seconds / 1e6 if seconds else 0.0

    events = counts.get("netsim.events", 0)
    m["netsim.events"] = events
    m["netsim.transmissions"] = counts.get("netsim.transmissions", 0)
    m["netsim.events_per_s"] = events / wall_s if events else 0.0
    m["netsim.run.self_s"] = self_s("netsim.run")
    jobs = counts.get("netsim.medium.jobs", 0)
    m["netsim.medium.null_build_ratio"] = (
        counts.get("netsim.medium.null_builds", 0) / jobs if jobs else 0.0)
    sim_s = first.values.get("sim_s", 0.0)
    m["netsim.medium.busy_frac"] = first.values.get("airtime_s", 0.0) / sim_s if sim_s else 0.0
    m["netsim.log.calls"] = counts.get("netsim.log.calls", 0)
    m["netsim.log.self_s"] = self_s("netsim.log")
    m["netsim.log.records"] = counts.get("netsim.log.records", 0)

    for protocol, mode in workloads.FIG6B_CELLS:
        m[f"protocols.{protocol}.{mode}.run_s"] = timer(f"run_s.{protocol}.{mode}")
    m["protocols.handler.self_s"] = self_s("protocols.handler")
    m["protocols.build.self_s"] = self_s("protocols.build")

    m["num.simulate.self_s"] = self_s("num.simulate")
    for size in (2, 4, 8):
        iterations, seconds = solver.get(size, (0, 0.0))
        m[f"num.simulate.us_per_iter.n{size}"] = seconds / iterations * 1e6 if iterations else 0.0
    oracle_calls = calls("num.oracle")
    m["num.oracle.calls"] = oracle_calls
    m["num.oracle.ms_per_call"] = total_s("num.oracle") / oracle_calls * 1e3 if oracle_calls else 0.0
    m["num.oracle_gap.max"] = first.values.get("oracle_gap_max", 0.0)

    m["scenarios.build_configs.self_s"] = setup_layers.get("scenarios.build_configs", 0.0)
    m["scenarios.csv.self_s"] = self_s("scenarios.csv")
    m["acceptance.protocol_properties.self_s"] = self_s("acceptance.protocol_properties")
    m["trace.overhead_s"] = traced_wall - wall_s

    _report_cells(cells)
    print(f"perfbench: {passes} traced passes, paced traced wall {traced_wall:.3f}s "
          f"vs untraced {wall_s:.3f}s", file=sys.stderr)
    return m, traced


def _solver_iterations(tracer, solver, pace_factor) -> None:
    """Add iterations and paced seconds per group size, over the policies that iterate."""
    for idx, rec in enumerate(tracer.spans):
        attrs = tracer.attrs.get(idx)
        if rec[0] == "num.simulate" and attrs and attrs["policy"] != "no_coop":
            iterations, seconds = solver.get(attrs["n"], (0, 0.0))
            solver[attrs["n"]] = (iterations + attrs["iterations"],
                                  seconds + (rec[2] - rec[1]) * pace_factor)


def _report_cells(cells) -> None:
    """Per protocol run of the first traced pass: self time by layer (raw seconds)."""
    if not cells or len(cells) > 8:
        return
    for attrs, per in cells:
        shown = ", ".join(f"{name} {s:.3f}s" for name, s in
                          sorted(per.items(), key=lambda kv: -kv[1]))
        print(f"perfbench: cell {attrs.get('protocol')}/{attrs.get('mode')}: {shown}",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
