"""Experiment harness.

Subcommands: `num-sim` sweeps the rate-allocation solver over group sizes
and loss, `proto-sim` runs one scenario file through the packet-level
simulator, `bench-codec` measures codec throughput, `recipe` reproduces a
named figure sweep, and `check` evaluates the acceptance criteria against
a results directory.  Every run writes raw rows plus a mean/std aggregate
CSV; headers carry the parameters as `#` comments.

Exit codes: 0 success, 1 failed acceptance check, 2 bad configuration,
3 some `proto-sim` seed stalled (the rows of every seed are still
written; a stalled seed's row has status `stalled` and no metrics).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import acceptance, num, scenarios
from .netsim import SimStalled
from .protocols import run_protocol

PROTO_COLUMNS = ["protocol", "seed", "complete", "duration_s", "avg_rate_bps",
                 "local_bytes", "local_data_bytes", "local_control_bytes",
                 "status"]
EXIT_STALLED = 3
EVENT_COLUMNS = ["t", "device", "event_kind", "segment", "bytes", "peer",
                 "msg", "dims"]


def _parse_list(text: str, cast) -> list:
    """A comma-separated list of int or float values."""
    try:
        return [cast(x) for x in text.split(",") if x.strip()]
    except ValueError:
        what = "integers" if cast is int else "numbers"
        raise scenarios.ScenarioError(
            f"expected comma-separated {what}, got {text!r}")


# ----------------------------------------------------------- num-sim

def cmd_num_sim(args) -> int:
    out = scenarios.num_sweep(
        "num-sim", "command: num-sim", _parse_list(args.n_devices, int),
        _parse_list(args.p_local, float), range(args.seed, args.seed + args.seeds),
        args.iterations, cell_capacity=args.cell_capacity,
        local_capacity=args.local_capacity, gamma=args.gamma,
        policies=num.POLICIES if args.policy == "all" else (args.policy,))
    raw, agg = scenarios.write_recipe_output(out, args.out)
    print(f"wrote {raw} ({len(out.rows)} rows) and {agg}")
    return 0


# ---------------------------------------------------------- proto-sim

def _event_kind(record) -> str:
    if record.kind is None:
        return record.event
    return f"{record.event}.{record.kind}"


def _blank(value):
    return "" if value is None else value


def cmd_proto_sim(args) -> int:
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    # the seed is the only field that differs between the runs
    base_cfg, proto = scenarios.load_scenario(args.scenario)
    first = base_cfg.seed if args.seed is None else args.seed
    seeds = range(first, first + args.seeds)
    if args.event_log:
        base_cfg = dataclasses.replace(base_cfg, log_events=True)
    rows, stalled = [], []
    os.makedirs(args.out, exist_ok=True)

    def write_event_log(seed, events):
        suffix = "_events.csv" if args.seeds == 1 else f"_events_s{seed}.csv"
        path = os.path.join(args.out, stem + suffix)
        ev_rows = [[e.t, e.device, _event_kind(e), _blank(e.segment),
                    e.nbytes, _blank(e.peer), _blank(e.msg), e.dims]
                   for e in events]
        scenarios.write_csv(path, [f"scenario: {args.scenario}",
                                   f"seed: {seed}"], EVENT_COLUMNS, ev_rows)
        print(f"  event log: {path} ({len(ev_rows)} records)")

    for s in seeds:
        sim_cfg = dataclasses.replace(base_cfg, seed=s)
        try:
            res = run_protocol(sim_cfg, proto)
        except SimStalled as exc:
            # no metrics: a stalled run never finished; its records up to
            # the stall are the evidence
            stalled.append(s)
            rows.append([proto.protocol, s, 0, "", "", "", "", "", "stalled"])
            print(f"seed {s}: stalled: {exc}", file=sys.stderr)
            if sim_cfg.log_events:
                write_event_log(s, exc.events)
            continue
        met = res.metrics
        rows.append([met.protocol, s, int(met.complete), met.duration_s,
                     met.avg_rate_bps, met.local_bytes, met.local_data_bytes,
                     met.local_control_bytes, res.status])
        print(f"seed {s}: {'complete' if met.complete else 'INCOMPLETE'} "
              f"in {met.duration_s:.2f}s, avg rate "
              f"{met.avg_rate_bps / 1e6:.3f} Mbps, local traffic "
              f"{met.local_bytes / 1e6:.3f} MB")
        if sim_cfg.log_events:
            write_event_log(s, res.sim.events)
    comments = [f"command: proto-sim {args.scenario}",
                f"seeds: {list(seeds)}"]
    if stalled:
        comments.append(f"stalled seeds, not aggregated: {stalled}")
    agg_cols, agg_rows = scenarios.aggregate(
        [r for r in rows if r[-1] != "stalled"], PROTO_COLUMNS,
        ["protocol"], ["duration_s", "avg_rate_bps"])
    raw, agg = scenarios.write_recipe_output(scenarios.RecipeOutput(
        stem, comments, PROTO_COLUMNS, rows, agg_cols, agg_rows), args.out)
    print(f"wrote {raw} ({len(rows)} rows) and {agg}")
    if stalled:
        print(f"error: {len(stalled)} of {args.seeds} seeds stalled: {stalled}",
              file=sys.stderr)
        return EXIT_STALLED
    return 0


# --------------------------------------------------------- bench-codec

def cmd_bench(args) -> int:
    out = scenarios.codec_bench("bench-codec", "command: bench-codec",
                                _parse_list(args.m, int), args.n, args.seconds,
                                args.seed)
    raw, agg = scenarios.write_recipe_output(out, args.out)
    for m, encode, decode, enc_q1, enc_q3, dec_q1, dec_q3, *_ in out.rows:
        print(f"m={m:>3}: encode {encode:7.2f} Mbps ({enc_q1:.2f}-{enc_q3:.2f}), "
              f"decode {decode:7.2f} Mbps ({dec_q1:.2f}-{dec_q3:.2f})")
    print(f"wrote {raw} and {agg}")
    return 0


# -------------------------------------------------------------- recipe

def cmd_recipe(args) -> int:
    names = list(scenarios.RECIPES) if args.name == "all" else [args.name]
    for name in names:
        out = scenarios.run_recipe(name, base_seed=args.seed,
                                   n_seeds=args.seeds)
        paths = scenarios.write_recipe_output(out, args.out)
        print(f"{name}: " + ", ".join(paths))
    return 0


# --------------------------------------------------------------- check

def cmd_check(args) -> int:
    results = acceptance.evaluate_all(args.out)
    for r in results:
        print(f"criterion {r.number} {r.name}: {r.verdict}")
        print(f"  measured: {r.measured}")
        print(f"  bound:    {r.bound}")
        if r.detail:
            print(f"  detail:   {r.detail}")
    n_pass = sum(r.passed for r in results)
    ok = n_pass == len(results)
    print(f"acceptance: {'PASS' if ok else 'FAIL'} ({n_pass}/{len(results)})")
    return 0 if ok else 1


# --------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microcast",
        description="cooperative streaming experiments: rate allocation, "
                    "packet-level protocol runs, codec benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "output directory (default ./results)"

    p = sub.add_parser("num-sim", help="sweep the rate-allocation solver")
    p.add_argument("--policy", default="all",
                   choices=list(num.POLICIES) + ["all"])
    p.add_argument("--n-devices", default="1,2,3,4,5,6,7,8",
                   help="comma list of group sizes")
    p.add_argument("--p-local", default="0",
                   help="comma list of local loss probabilities")
    p.add_argument("--cell-capacity", type=float, default=1.0)
    p.add_argument("--local-capacity", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="local airtime budget per unit time")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--seeds", type=int, default=10, metavar="N",
                   help="number of seeds (default 10)")
    p.add_argument("--out", default="results", metavar="DIR", help=out_help)
    p.set_defaults(func=cmd_num_sim)

    p = sub.add_parser("proto-sim", help="run one scenario file through the simulator")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--event-log", action="store_true",
                   help="also write per-run event records (as the "
                        "scenario key log_events: true does)")
    p.add_argument("--seed", type=int, default=None,
                   help="first seed (default: the scenario file's seed)")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="number of seeds, one run each (default 1)")
    p.add_argument("--out", default="results", metavar="DIR", help=out_help)
    p.set_defaults(func=cmd_proto_sim)

    p = sub.add_parser("bench-codec", help="measure encode/decode throughput")
    p.add_argument("--m", default="16,25,32,64",
                   help="comma list of generation sizes")
    p.add_argument("--n", type=int, default=900, help="payload bytes")
    p.add_argument("--seconds", type=float, default=0.3,
                   help="wall-clock budget per measurement")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the data and coefficients (default 0)")
    p.add_argument("--out", default="results", metavar="DIR", help=out_help)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("recipe", help="reproduce a named figure sweep")
    p.add_argument("name", choices=list(scenarios.RECIPES) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--seeds", type=int, default=None, metavar="N",
                   help="number of seeds (default: the recipe's own count; "
                        "fig7b runs its first seed only)")
    p.add_argument("--out", default="results", metavar="DIR", help=out_help)
    p.set_defaults(func=cmd_recipe)

    p = sub.add_parser("check", help="evaluate the acceptance criteria")
    p.add_argument("--out", default="results", metavar="DIR",
                   help="results directory to read (default ./results)")
    p.set_defaults(func=cmd_check)
    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # argparse would report these with the top-level usage
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # not every command reads a seed: bench-codec has no --seeds, check neither
        if getattr(args, "seeds", None) is not None and args.seeds < 1:
            raise scenarios.ScenarioError("need at least one seed")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise scenarios.ScenarioError("--seed must be >= 0")
        return args.func(args)
    except (ValueError, OSError) as exc:   # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
