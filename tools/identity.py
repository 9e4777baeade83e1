"""Print one sha256 over a seeded random battery of protocol and solver runs.

    PYTHONPATH=src python3 tools/identity.py --seed 0 --runs 400

The seed draws each of the `--runs` protocol runs' `run_protocol` config:
- 2 to 5 devices, 1 to all of them with a cellular link;
- a random initiator, with or without a cellular link;
- every protocol and topology mode, adaptive and static assignment;
- loss up to 0.45;
- cellular failure probability 0 or 0.3, and on some links an outage
  that a cellular timeout may cut short;
- logging on or off.

A run's digest covers its event log, metrics, final `sim.now`,
`medium.delivered`, the rng state, the scheduler's `downloaded_by` and
`failures`, and every node's per-segment ranks.  A stalled run
contributes its message and its log instead.

It then draws one `num.simulate` call for each group size n = 1..8 and
each policy, with 1, 4 or 10 seeds (10 is every fig4/fig5 recipe's batch)
and 100 to 300 iterations:
- cellular capacities equal or mixed, with or without cell loss;
- local capacities uniform or mixed, on a lossless or a lossy medium;
- gamma 1 or not, `x_cap` set or unset.
A call's digest is the bytes of every seed's delivered rates.

Two trees ran the battery identically when they print the same digest:
run the tool once with PYTHONPATH set to each tree's src.  Exit status
is 0, or 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from microcast import num
from microcast.netsim import (MODES, DeviceSpec, RateTrace, SimConfig,
                              SimStalled)
from microcast.protocols import (ASSIGN_ADAPTIVE, ASSIGN_STATIC, PROTOCOLS,
                                 ProtocolConfig, run_protocol)


def draw_run(rng: random.Random) -> tuple[SimConfig, ProtocolConfig]:
    """One battery config; every choice comes from rng."""
    group = rng.randint(2, 5)
    cellular = set(rng.sample(range(group), rng.randint(1, group)))
    m, n = rng.randint(2, 6), 8
    devices = []
    for d in range(group):
        if d not in cellular:
            devices.append(DeviceSpec())
            continue
        bps = rng.uniform(500e3, 3000e3)
        trace = RateTrace.constant(bps)
        if rng.random() < 0.5:   # an outage somewhere in the first segments
            start = rng.uniform(0.0, 0.01)
            trace = RateTrace((0.0, start + 1e-6, start + rng.uniform(0.005, 0.05)),
                              (bps, 0.0, bps))
        seconds = m * n * 8 / bps   # one segment at the full rate
        devices.append(DeviceSpec(
            cellular=trace, cell_fail_prob=rng.choice((0.0, 0.3)),
            cell_timeout=rng.choice((None, rng.uniform(1.5, 4.0) * seconds))))
    sim_config = SimConfig(devices=devices, loss=rng.uniform(0.0, 0.45),
                           mode=rng.choice(MODES), seed=rng.randrange(2**32),
                           log_events=rng.random() < 0.5)
    proto = ProtocolConfig(protocol=rng.choice(PROTOCOLS),
                           file_bytes=rng.randint(1, 4) * m * n, m=m, n=n,
                           assignment=rng.choice((ASSIGN_ADAPTIVE, ASSIGN_STATIC)),
                           initiator=rng.randrange(group))
    return sim_config, proto


def run_digest(sim_config: SimConfig, proto: ProtocolConfig) -> bytes:
    """sha256 of everything one run leaves behind."""
    try:
        res = run_protocol(sim_config, proto)
    except SimStalled as stall:
        text = repr(("stalled", str(stall), stall.events))
    else:
        sim, scheduler = res.sim, res.scheduler
        ranks = [[node.rank(s) for s in range(proto.n_segments)]
                 for node in res.nodes]
        text = repr((sim.events, res.metrics, sim.now, sim.medium.delivered,
                     sim.rng.bit_generator.state, scheduler.downloaded_by,
                     scheduler.failures, ranks))
    return hashlib.sha256(text.encode()).digest()


def draw_solve(rng: random.Random, n: int,
               policy: str) -> tuple[num.Topology, num.SolverConfig]:
    """One solver battery call on n devices; every other choice comes from rng."""
    def grid(low, high):   # one value for every pair, or an (n, n) matrix
        if rng.random() < 0.5:
            return rng.uniform(low, high)
        return [[rng.uniform(low, high) for _ in range(n)] for _ in range(n)]

    cell_capacity = ([rng.uniform(0.5, 3.0)] * n if rng.random() < 0.5
                     else [rng.uniform(0.2, 3.0) for _ in range(n)])
    cell_loss = 0.0 if rng.random() < 0.5 else [rng.uniform(0.0, 0.4) for _ in range(n)]
    local_loss = 0.0 if rng.random() < 0.5 else grid(0.0, 0.4)
    topo = num.Topology(cell_capacity=cell_capacity, cell_loss=cell_loss,
                        local_capacity=grid(0.5, 6.0), local_loss=local_loss,
                        gamma=rng.choice((1.0, rng.uniform(0.5, 2.0))))
    cfg = num.SolverConfig(
        policy=policy, iterations=rng.randint(100, 300),
        seeds=[rng.randrange(2**32) for _ in range(rng.choice((1, 4, 10)))],
        x_cap=rng.choice((None, rng.uniform(0.5, 4.0))))
    return topo, cfg


def solve_digest(topo: num.Topology, cfg: num.SolverConfig) -> bytes:
    """sha256 of every seed's delivered rates, bit for bit."""
    total = hashlib.sha256()
    for run in num.simulate(topo, cfg).runs:
        total.update(run.device_avg.tobytes())
    return total.digest()


def battery_digest(seed: int, runs: int) -> str:
    """One sha256 over the digests of `runs` protocol configs drawn from
    `seed`, then of the solver battery drawn from it."""
    rng = random.Random(seed)
    total = hashlib.sha256()
    for _ in range(runs):
        total.update(run_digest(*draw_run(rng)))
    rng = random.Random(f"solver {seed}")
    for n in range(1, 9):
        for policy in num.POLICIES:
            total.update(solve_digest(*draw_solve(rng, n, policy)))
    return total.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=400)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(battery_digest(args.seed, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
