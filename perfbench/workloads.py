"""The four benchmark workloads.

Each workload turns its seed into fixed inputs once (set-up), then runs
passes over those inputs.  A pass checks every output, writes its rows
through `scenarios.write_csv`/`aggregate`, and returns a fingerprint of
simulated statistics that must be identical on every pass of the same
seed.  Workloads call the package through module attributes
(`rlnc.encode`, `protocols.run_protocol`, ...) so that the tracer's
wrappers see every call.

`run_pass(out_dir, tick)` calls tick() between units of work of a few
hundred milliseconds; the caller uses it to track the machine's speed
through the pass (see pace.py).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from microcast import acceptance, netsim, num, protocols, rlnc, scenarios


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)    # raw seconds of phases in the pass
    values: dict = field(default_factory=dict)    # per-layer values known to the pass

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _exact(x: float) -> str:
    return repr(float(x))


def _write(out_dir: str, name: str, columns, rows, group_cols, value_cols) -> None:
    path = os.path.join(out_dir, f"{name}.csv")
    scenarios.write_csv(path, [f"perfbench workload: {name}"], columns, rows)
    agg_cols, agg_rows = scenarios.aggregate(rows, columns, group_cols, value_cols)
    scenarios.write_csv(os.path.join(out_dir, f"{name}_agg.csv"),
                        ["aggregated: mean/std per group"], agg_cols, agg_rows)


# ------------------------------------------------------------------ codec-bulk

class CodecBulk:
    """Full-width generations through split, encode, wire, decode, recode."""

    name = "codec-bulk"
    N = 900
    GENERATIONS = {16: 48, 25: 40, 32: 24, 64: 8}
    EXTRA = 3        # coded packets drawn beyond m per generation

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.inputs = {
            m: [rng.integers(0, 256, m * self.N, dtype=np.uint8).tobytes()
                for _ in range(count)]
            for m, count in self.GENERATIONS.items()}

    def warm(self) -> None:
        params = rlnc.GenerationParams(4, 16)
        plain = rlnc.split_segment(0, bytes(64), params)
        state = rlnc.DecoderState(0, params)
        rng = np.random.default_rng(0)
        while not state.complete:
            state.insert(rlnc.encode(plain, rng, params))
        state.extract()

    def run_pass(self, out_dir: str, tick) -> PassResult:
        res = PassResult()
        rng = np.random.default_rng([self.seed, 2])
        rows = []
        for m, datas in self.inputs.items():
            params = rlnc.GenerationParams(m, self.N)
            enc_s = dec_s = 0.0
            encoded = 0
            for gen, data in enumerate(datas):
                row, enc, dec, packets = self._generation(res, params, gen, data, rng)
                rows.append(row)
                enc_s += enc
                dec_s += dec
                encoded += packets
                if gen % 8 == 7:
                    tick()
            res.timers[f"encode_s.m{m}"] = enc_s
            res.timers[f"decode_s.m{m}"] = dec_s
            res.values[f"encode_bits.m{m}"] = encoded * self.N * 8
            res.values[f"decode_bits.m{m}"] = len(datas) * m * self.N * 8
            res.fingerprint[f"m{m}"] = [r[2:] for r in rows if r[0] == m]
        _write(out_dir, self.name,
               ["m", "generation", "encoded", "innovative", "redundant",
                "relay_rank", "sink_innovative", "sink_redundant"],
               rows, ["m"], ["encoded", "redundant", "sink_redundant"])
        return res

    def _generation(self, res, params, gen, data, rng):
        m = params.m
        plain = rlnc.split_segment(gen, data, params)
        t0 = perf_counter()
        coded = [rlnc.encode(plain, rng, params) for _ in range(m + self.EXTRA)]
        enc = perf_counter() - t0
        wire = [rlnc.CodedPacket.from_bytes(p.to_bytes()) for p in coded]

        t0 = perf_counter()
        state = rlnc.DecoderState(gen, params)
        inserted = innovative = 0
        extra_enc = 0.0
        for pkt in wire:
            inserted += 1
            innovative += state.insert(pkt)
            if state.complete:
                break
        while not state.complete:   # rank deficit after m + EXTRA draws
            t1 = perf_counter()
            pkt = rlnc.encode(plain, rng, params)
            extra_enc += perf_counter() - t1
            coded.append(pkt)
            inserted += 1
            innovative += state.insert(pkt)
        decoded = b"".join(p.payload for p in state.extract())
        dec = perf_counter() - t0 - extra_enc
        enc += extra_enc
        res.check(decoded == data and state.rank <= m,
                  f"m={m} generation {gen}: decode not byte-exact")

        # a relay holding half the generation recodes for a fresh sink;
        # the sink can never learn more than the relay holds
        relay = rlnc.DecoderState(gen, params)
        for pkt in wire[: m // 2]:
            relay.insert(pkt)
        sink = rlnc.DecoderState(gen, params)
        sink_innov = sink_red = 0
        for _ in range(relay.rank + 2):
            if sink.insert(rlnc.recode(relay, rng)):
                sink_innov += 1
            else:
                sink_red += 1
        res.check(sink.rank <= relay.rank <= m and sink.rank == sink_innov,
                  f"m={m} generation {gen}: recoded rank {sink.rank} > relay "
                  f"rank {relay.rank}")
        row = [m, gen, len(coded), innovative, inserted - innovative, relay.rank,
               sink_innov, sink_red]
        return row, enc, dec, len(coded)


# ---------------------------------------------------------------- dissemination

FIG6B_CELLS = (("microcast", "pseudo_adhoc"), ("bittorrent_pull", "pseudo_adhoc"),
               ("r2_push", "star"), ("r2_push", "clique"))


class Dissemination:
    """The four fig6b cells: 4 devices, one 550 kbps downloader, 1% loss."""

    name = "dissemination"
    FILE_MB = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = [
            scenarios.build_configs({
                "devices": [{"cellular_kbps": 550}, {}, {}, {}],
                "local": {"capacity_mbps": 20, "loss_uniform": 0.01},
                "mode": mode, "protocol": protocol, "initiator": 0,
                "file_mb": self.FILE_MB, "segment_params": {"m": 25, "n": 900},
                "max_time_s": 900.0,
            }, seed=seed)
            for protocol, mode in FIG6B_CELLS]

    def warm(self) -> None:
        _warm_protocols()

    def run_pass(self, out_dir: str, tick) -> PassResult:
        res = PassResult()
        rows = []
        for sim_cfg, proto in self.configs:
            cell = f"{proto.protocol}.{sim_cfg.mode}"
            t0 = perf_counter()
            try:
                run = protocols.run_protocol(sim_cfg, proto)
            except netsim.SimStalled as exc:
                res.check(False, f"{cell} stalled: {exc}")
                continue
            finally:
                res.timers[f"run_s.{cell}"] = perf_counter() - t0
                tick()
            met = run.metrics
            res.check(met.complete, f"{cell} finished incomplete at {met.duration_s}s")
            _add_airtime(res, run)
            rows.append([proto.protocol, sim_cfg.mode, met.local_bytes,
                         met.local_data_bytes, met.local_control_bytes,
                         met.duration_s, int(met.complete)])
            res.fingerprint[cell] = _run_fingerprint(run)
        _write(out_dir, self.name,
               ["protocol", "topology", "local_bytes", "data_bytes",
                "control_bytes", "completion_s", "complete"],
               rows, ["protocol", "topology"], ["local_bytes", "completion_s"])
        return res


def _add_airtime(res: PassResult, run) -> None:
    """Simulated seconds the medium was busy, and simulated seconds run."""
    bps = run.sim.config.effective_bps
    res.values["airtime_s"] = res.values.get("airtime_s", 0.0) + run.metrics.local_bytes * 8 / bps
    res.values["sim_s"] = res.values.get("sim_s", 0.0) + run.sim.now


def _run_fingerprint(run) -> dict:
    met = run.metrics
    return {"count_by_kind": dict(sorted(met.count_by_kind.items())),
            "bytes_by_kind": dict(sorted(met.bytes_by_kind.items())),
            "local_bytes": met.local_bytes,
            "completion_s": [None if c is None else _exact(c)
                             for c in met.completion_s],
            "ranks": [sum(s.rank for s in node.decoders.values())
                      for node in run.nodes]}


def _warm_protocols() -> None:
    sim_cfg, proto = scenarios.build_configs({
        "devices": [{"cellular_kbps": 2000}, {}], "mode": "clique",
        "protocol": "r2_push", "file_mb": 0.001, "segment_params": {"m": 4, "n": 24}})
    protocols.run_protocol(sim_cfg, proto)


# ----------------------------------------------------------------- solver-sweep

class SolverSweep:
    """fig4b through num.simulate, plus simulate-vs-LP on random small groups."""

    name = "solver-sweep"
    N_VALUES = range(1, 9)
    P_LOCAL = 0.2
    ITERATIONS = 1000
    ORACLE_SIZES = (2, 3, 4)     # one random topology each
    ORACLE_SEEDS = 2
    ORACLE_BOUND = 0.10

    def __init__(self, seed: int):
        self.seed = seed
        self.sweep = [num.Topology.uniform(n, cell_capacity=1.0, cell_loss=0.0,
                                           local_capacity=10.0,
                                           local_loss=self.P_LOCAL, gamma=1.0)
                      for n in self.N_VALUES]
        rng = np.random.default_rng([seed, 3])
        losses = (0.0, 0.1, 0.2)
        self.random = []
        for n in self.ORACLE_SIZES:
            self.random.append(num.Topology(
                cell_capacity=rng.uniform(0.4, 1.1, n),
                cell_loss=np.full(n, losses[int(rng.integers(0, 3))]),
                local_capacity=rng.uniform(1.5, 6.0, (n, n)),
                local_loss=np.full((n, n), losses[int(rng.integers(0, 3))]),
                gamma=1.0))

    def warm(self) -> None:
        topo = num.Topology.uniform(2, local_capacity=2.0)
        num.simulate(topo, num.SolverConfig(iterations=2, seeds=(0,)))
        num.centralized_oracle(topo, num.PSEUDO_BROADCAST)

    def run_pass(self, out_dir: str, tick) -> PassResult:
        res = PassResult()
        rows = []
        for topo in self.sweep:
            for policy in num.POLICIES:
                cfg = num.SolverConfig(policy=policy, iterations=self.ITERATIONS,
                                       seeds=(self.seed,))
                rate = num.simulate(topo, cfg).avg_rate
                res.check(0.0 < rate <= num.stream_cap(topo, cfg) + 1e-9,
                          f"fig4b n={topo.n} {policy}: rate {rate} out of range")
                rows.append([policy, topo.n, self.P_LOCAL, self.seed, rate])
            tick()
        gap_max = 0.0
        oracle = []
        for k, topo in enumerate(self.random):
            seeds = tuple(self.seed * 100 + k * 10 + s for s in range(self.ORACLE_SEEDS))
            for policy in num.POLICIES:
                got = num.simulate(topo, num.SolverConfig(
                    policy=policy, iterations=self.ITERATIONS, seeds=seeds)).avg_rate
                want = num.centralized_oracle(topo, policy)
                gap = abs(got - want) / max(want, 1e-9)
                gap_max = max(gap_max, gap)
                res.check(gap <= self.ORACLE_BOUND,
                          f"topology {k} (n={topo.n}) {policy}: simulate {got:.4f} "
                          f"vs optimum {want:.4f} ({gap:.1%})")
                oracle.append([_exact(got), _exact(want)])
            tick()
        res.values["oracle_gap_max"] = gap_max
        res.fingerprint = {"fig4b": [[r[0], r[1], _exact(r[4])] for r in rows],
                           "oracle": oracle}
        _write(out_dir, self.name, ["policy", "n_devices", "p_local", "seed", "avg_rate"],
               rows, ["policy", "n_devices"], ["avg_rate"])
        return res


# ---------------------------------------------------------------- property-grid

class PropertyGrid:
    """Small logged protocol runs (criterion-9 shape), each checked from its log.

    Every protocol x mode x group size x loss cell appears the same
    number of times, and m and the segment count are fixed multisets
    that the seed only shuffles, so every seed costs about the same.
    """

    name = "property-grid"
    REPLICAS = 2
    LOSSES = (0.0, 0.1, 0.2, 0.3)

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 4])
        cells = [(protocol, mode, n_dev, loss, replica)
                 for replica in range(self.REPLICAS)
                 for protocol in ("microcast", "bittorrent_pull", "r2_push")
                 for mode in ("pseudo_adhoc", "clique", "star")
                 for n_dev in (2, 3, 4)
                 for loss in self.LOSSES]
        ms = rng.permutation([4 + k % 7 for k in range(len(cells))])
        segments = rng.permutation([3 + k % 4 for k in range(len(cells))])
        self.configs = []
        for (protocol, mode, n_dev, loss, replica), m, segs in zip(cells, ms, segments):
            n_cell = 1 if n_dev == 2 else 1 + replica
            self.configs.append(scenarios.build_configs({
                "devices": [{"cellular_kbps": float(rng.uniform(1e3, 3e3))}
                            if d < n_cell else {} for d in range(n_dev)],
                "local": {"capacity_mbps": 5.0, "loss_uniform": loss},
                "mode": mode, "protocol": protocol,
                "file_mb": int(segs) * int(m) * 24 / 1e6,
                "segment_params": {"m": int(m), "n": 24},
                "initiator": 0, "max_time_s": 900.0, "log_events": True,
            }, seed=int(rng.integers(0, 2**31))))

    def warm(self) -> None:
        _warm_protocols()

    def run_pass(self, out_dir: str, tick) -> PassResult:
        res = PassResult()
        rows = []
        runs = []
        for k, (sim_cfg, proto) in enumerate(self.configs):
            label = f"run {k} ({proto.protocol}/{sim_cfg.mode})"
            try:
                run = protocols.run_protocol(sim_cfg, proto)
            except netsim.SimStalled as exc:
                res.check(False, f"{label} stalled: {exc}")
                continue
            problems = _log_problems(run)
            if not run.metrics.complete:
                problems.append("finished incomplete")
            res.check(not problems, f"{label}: {'; '.join(problems[:3])}")
            met = run.metrics
            _add_airtime(res, run)
            rows.append([proto.protocol, sim_cfg.mode, sim_cfg.n, met.local_bytes,
                         len(run.sim.events), met.duration_s])
            runs.append(_run_fingerprint(run))
            if k % 24 == 23:
                tick()
        verdict = acceptance.evaluate_protocol_properties()
        res.check(verdict.passed, f"criterion 9: {verdict.measured}; {verdict.detail}")
        res.fingerprint = {"runs": runs}
        _write(out_dir, self.name,
               ["protocol", "topology", "n_devices", "local_bytes", "log_records",
                "completion_s"],
               rows, ["protocol", "topology"], ["local_bytes", "log_records"])
        return res


def _log_problems(run) -> list:
    """Meter and log must tell the same story of every transmission."""
    cfg, meter = run.sim.config, run.sim.meter
    problems = []
    tx = [e for e in run.sim.events if e.event == "tx"]
    occupations: dict = {}
    for e in tx:
        relayed = (cfg.mode == netsim.MODE_STAR and e.device != cfg.ap
                   and e.peer is not None and e.peer != cfg.ap)
        occupations[e.kind] = occupations.get(e.kind, 0) + (2 if relayed else 1)
    if occupations != meter.count_by_kind:
        problems.append(f"tx records {occupations} != meter {meter.count_by_kind}")
    tx_bytes = sum(e.nbytes for e in tx)
    if tx_bytes != meter.local_bytes_total:
        problems.append(f"tx bytes {tx_bytes} != metered {meter.local_bytes_total}")
    sent = {(e.t, e.device, e.kind, e.segment) for e in tx}
    orphans = sum((e.t, e.peer, e.kind, e.segment) not in sent
                  for e in run.sim.events if e.event == "rx")
    if orphans:
        problems.append(f"{orphans} rx records without a tx from their peer")
    return problems


WORKLOADS = {w.name: w for w in (CodecBulk, Dissemination, SolverSweep, PropertyGrid)}
