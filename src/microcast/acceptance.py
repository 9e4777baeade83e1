"""Acceptance gate: nine measurable criteria over the whole toolkit.

Each evaluator returns a CriterionResult with the measured value, the
bound it is held to, and a verdict.  CSV-backed criteria read recipe
output from a results directory; the rest run inline.  The command line
`check` subcommand and the test suite both call these.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import num, rlnc, scenarios
from .netsim import (BRAKE, CODED_DATA, MODE_CLIQUE, MODE_PSEUDO_ADHOC,
                     MODE_STAR, NOTIFICATION, PIECE, PIECE_REQUEST, REQUEST,
                     DeviceSpec, RateTrace, SimConfig, trace_problems)
from .protocols import (PROTO_BITTORRENT, PROTO_MICROCAST, PROTO_R2,
                        ProtocolConfig, run_protocol)

# the inline criteria's sizes and seeds
CODEC_TRIPS, CODEC_SEED = 1000, 7          # criterion 1
ORACLE_TOPOLOGIES, ORACLE_SEED = 20, 417   # criterion 3
GRID_RUNS = 50                             # criterion 9


@dataclass
class CriterionResult:
    number: int
    name: str
    verdict: str                  # pass | fail | not run
    measured: str
    bound: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _result(number, name, ok, measured, bound, detail="") -> CriterionResult:
    return CriterionResult(number, name, "pass" if ok else "fail",
                           measured, bound, detail)


def _not_run(number, name, bound, missing) -> CriterionResult:
    return CriterionResult(number, name, "not run", f"missing {missing}",
                           bound, "generate it with: microcast recipe "
                           f"{missing.split('.')[0].removesuffix('_agg')} --out DIR")


def _load_rows(results_dir: str, filename: str, columns):
    """The file's rows, or None when it is absent; ScenarioError names the
    file and every one of `columns` it lacks."""
    path = os.path.join(results_dir, filename)
    if not os.path.exists(path):
        return None
    _, have, rows = scenarios.read_csv(path)
    missing = [c for c in columns if c not in have]
    if missing:
        raise scenarios.ScenarioError(
            f"{path}: missing column(s) {', '.join(missing)}")
    return rows


# ------------------------------------------------------- 1: codec round trip

def _build_mul_table() -> np.ndarray:
    """Carry-less shift-and-add multiply, reduced mod the field polynomial.

    Built from scratch so the codec's own tables are not trusted here.
    """
    table = np.zeros((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(a, 256):
            x, y, acc = a, b, 0
            while y:
                if y & 1:
                    acc ^= x
                x <<= 1
                if x & 0x100:
                    x ^= 0x11D
                y >>= 1
            table[a, b] = acc
            table[b, a] = acc
    return table


class _RankOracle:
    """Independent innovation judge: reduced basis over the coefficients."""

    def __init__(self, m: int, mul: np.ndarray):
        self.m = m
        self.mul = mul
        self.basis: list = []     # (lead column, reduced row)

    def offer(self, coeffs: np.ndarray) -> bool:
        v = coeffs.astype(np.uint8).copy()
        for lead, row in self.basis:
            c = v[lead]
            if c:
                v ^= self.mul[c, row]
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        lead = int(nz[0])
        inv = self._inverse(int(v[lead]))
        self.basis.append((lead, self.mul[inv, v]))
        return True

    def _inverse(self, a: int) -> int:
        row = self.mul[a]
        return int(np.flatnonzero(row == 1)[0])


def evaluate_codec_roundtrip() -> CriterionResult:
    bound = (f"{CODEC_TRIPS} byte-exact decodes, innovation flag == rank "
             "oracle, < 30 s")
    t0 = time.perf_counter()
    mul = _build_mul_table()
    params = rlnc.GenerationParams(m=25, n=900)
    rng = np.random.default_rng(CODEC_SEED)
    inserts = 0
    for trip in range(CODEC_TRIPS):
        data = rng.integers(0, 256, params.m * params.n, dtype=np.uint8).tobytes()
        plain = rlnc.split_segment(trip, data, params)
        state = rlnc.DecoderState(trip, params)
        oracle = _RankOracle(params.m, mul)
        while not state.complete:
            pkt = rlnc.encode(plain, rng, params)
            pkt = rlnc.CodedPacket.from_bytes(pkt.to_bytes())   # wire trip
            got = state.insert(pkt)
            want = oracle.offer(pkt.coefficients)
            inserts += 1
            if got != want:
                return _result(1, "codec-roundtrip", False,
                               f"innovation flag {got} vs oracle {want}",
                               bound, f"trip {trip}, insert {inserts}")
        decoded = b"".join(p.payload for p in state.extract())[: len(data)]
        if decoded != data:
            return _result(1, "codec-roundtrip", False,
                           f"decode mismatch on trip {trip}", bound)
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    return _result(1, "codec-roundtrip", ok, f"{CODEC_TRIPS} exact decodes, "
                   f"{inserts} verified inserts, {dt:.1f}s", bound)


# ----------------------------------------------------- 2: codec throughput

def _rate_spread(row: dict, kind: str) -> str:
    return (f"{float(row[kind + '_mbps']):.1f} (quartiles {float(row[kind + '_q1_mbps']):.1f}"
            f"-{float(row[kind + '_q3_mbps']):.1f})")


def evaluate_codec_throughput(results_dir: str) -> CriterionResult:
    bound = ("m=25 encode and decode >= 8 Mbps; both fall monotonically in m: "
             "each neighbour pair's median per-round rate ratio > 1")
    rows = _load_rows(results_dir, "fig7b.csv", scenarios.BENCH_COLUMNS)
    if rows is None:
        return _not_run(2, "codec-throughput", bound, "fig7b.csv")
    table = {int(r["m"]): r for r in rows}
    missing = [m for m in (16, 25, 32, 64) if m not in table]
    if missing:
        return _result(2, "codec-throughput", False,
                       f"rows missing for m={missing}", bound)
    enc25, dec25 = (float(table[25][f"{kind}_mbps"]) for kind in ("encode", "decode"))
    ms = sorted(table)
    # the rounds pair each m with its neighbour, so a slowdown spanning a
    # round cancels out of the ratio; the medians and spreads are context
    inverted = [f"{kind} m={a} {_rate_spread(table[a], kind)} over "
                f"m={b} {_rate_spread(table[b], kind)}: per-round ratio "
                f"{float(table[a][f'{kind}_ratio_next']):.3f}"
                for kind in ("encode", "decode") for a, b in zip(ms, ms[1:])
                if not float(table[a][f"{kind}_ratio_next"]) > 1.0]
    ok = enc25 >= 8.0 and dec25 >= 8.0 and not inverted
    return _result(2, "codec-throughput", ok,
                   f"m=25: encode {enc25:.1f} / decode {dec25:.1f} Mbps, "
                   f"monotone={'no' if inverted else 'yes'}",
                   bound, "; ".join(inverted))


# ------------------------------------------------------- 3: solver vs oracle

def evaluate_solver_oracle() -> CriterionResult:
    bound = "simulate within 10% of the exact allocation optimum, < 2 min"
    t0 = time.perf_counter()
    rng = np.random.default_rng(ORACLE_SEED)
    worst, worst_case = 0.0, ""
    checked = 0
    for k in range(ORACLE_TOPOLOGIES):
        n = int(rng.integers(2, 5))
        loss_choices = [0.0, 0.1, 0.2]
        topo = num.Topology(
            cell_capacity=rng.uniform(0.4, 1.1, n),
            cell_loss=np.full(n, loss_choices[int(rng.integers(0, 3))]),
            local_capacity=rng.uniform(1.5, 6.0, (n, n)),
            local_loss=np.full((n, n), loss_choices[int(rng.integers(0, 3))]),
            gamma=1.0,
        )
        for policy in num.POLICIES:
            cfg = num.SolverConfig(policy=policy, iterations=1000,
                                   seeds=tuple(range(10)))
            got = num.simulate(topo, cfg).avg_rate
            want = num.centralized_oracle(topo, policy)
            rel = abs(got - want) / max(want, 1e-9)
            checked += 1
            if rel > worst:
                worst = rel
                worst_case = (f"topology {k} (n={n}) {policy}: "
                              f"simulate {got:.3f} vs optimum {want:.3f}")
    dt = time.perf_counter() - t0
    ok = worst <= 0.10 and dt < 120.0
    return _result(3, "solver-oracle", ok,
                   f"{checked} policy runs, worst deviation {worst:.1%}, {dt:.0f}s",
                   bound, worst_case if not ok else "")


# ------------------------------------------- 4: throughput vs group size

def _curve(rows, policy, x):
    """One policy's curve: its sorted x values and avg_rate_mean at each."""
    out = {float(r[x]): float(r["avg_rate_mean"]) for r in rows
           if r["policy"] == policy}
    xs = sorted(out)
    return xs, [out[k] for k in xs]


def _declines_after_threshold(values, last_start: int) -> bool:
    """True iff the tail is strictly decreasing from some index on.

    last_start is the largest allowed 0-based decline-start index.
    """
    for t in range(0, last_start + 1):
        tail = values[t:]
        if len(tail) >= 2 and all(b < a for a, b in zip(tail, tail[1:])):
            return True
    return False


def evaluate_group_size_shapes(results_dir: str) -> CriterionResult:
    bound = ("no_coop flat within 2%; unicast rises then strictly falls; "
             "lossless coded == plain; at 20% loss coded >= plain everywhere "
             "and plain declines after a threshold")
    columns = ("policy", "n_devices", "avg_rate_mean")
    rows_a = _load_rows(results_dir, "fig4a_agg.csv", columns)
    rows_b = _load_rows(results_dir, "fig4b_agg.csv", columns)
    if rows_a is None:
        return _not_run(4, "group-size-shapes", bound, "fig4a_agg.csv")
    if rows_b is None:
        return _not_run(4, "group-size-shapes", bound, "fig4b_agg.csv")
    problems = []

    def rates(rows, policy):
        return _curve(rows, policy, "n_devices")[1]

    flat_spread = 0.0
    for rows in (rows_a, rows_b):
        nc = rates(rows, num.NO_COOP)
        spread = (max(nc) - min(nc)) / max(nc)
        flat_spread = max(flat_spread, spread)
    if flat_spread > 0.02:
        problems.append(f"no_coop spread {flat_spread:.1%} > 2%")

    uni = rates(rows_a, num.UNICAST)
    peak = uni.index(max(uni))
    if not uni[1] > uni[0]:
        problems.append(f"unicast does not rise at first: {uni[0]:.3f} -> {uni[1]:.3f}")
    if not _declines_after_threshold(uni, last_start=len(uni) - 2):
        problems.append(f"unicast tail not strictly falling: {np.round(uni, 3)}")

    pb_a = np.array(rates(rows_a, num.PSEUDO_BROADCAST))
    plain_a = np.array(rates(rows_a, num.PSEUDO_BROADCAST_NO_NC))
    eq_gap = float(np.max(np.abs(pb_a - plain_a) / np.maximum(pb_a, 1e-9)))
    if eq_gap > 0.01:
        problems.append(f"lossless coded vs plain differ by {eq_gap:.2%}")

    pb_b = np.array(rates(rows_b, num.PSEUDO_BROADCAST))
    plain_b = np.array(rates(rows_b, num.PSEUDO_BROADCAST_NO_NC))
    margin = float(np.min(pb_b - plain_b * (1 - 0.005)))
    if margin < 0.0:
        problems.append("coded < plain at 20% loss")
    if not _declines_after_threshold(list(plain_b), last_start=len(plain_b) - 2):
        problems.append(f"plain curve never enters decline: {np.round(plain_b, 3)}")

    measured = (f"no_coop spread {flat_spread:.2%}; unicast peak N="
                f"{peak + 1}; lossless pair gap {eq_gap:.1e}; "
                f"loss margin {margin:+.3f}")
    return _result(4, "group-size-shapes", not problems, measured, bound,
                   "; ".join(problems))


# ------------------------------------------- 5: throughput vs local loss

def evaluate_loss_shapes(results_dir: str) -> CriterionResult:
    bound = ("every policy non-increasing in loss; coded >= plain >= unicast "
             "at loss > 0; coded-vs-plain gap at p=0.3 grows with group size")
    columns = ("policy", "p_local", "avg_rate_mean")
    rows_3 = _load_rows(results_dir, "fig5a_agg.csv", columns)
    rows_4 = _load_rows(results_dir, "fig5b_agg.csv", columns)
    if rows_3 is None:
        return _not_run(5, "loss-shapes", bound, "fig5a_agg.csv")
    if rows_4 is None:
        return _not_run(5, "loss-shapes", bound, "fig5b_agg.csv")
    problems = []
    gaps = {}
    for label, rows in (("3", rows_3), ("4", rows_4)):
        curves = {}
        for policy in num.POLICIES:
            ps, vals = _curve(rows, policy, "p_local")
            curves[policy] = vals
            if any(b > a * 1.002 for a, b in zip(vals, vals[1:])):
                problems.append(f"N={label} {policy} increases with loss: "
                                f"{np.round(vals, 3)}")
        pb, plain, uni = (curves[num.PSEUDO_BROADCAST],
                          curves[num.PSEUDO_BROADCAST_NO_NC],
                          curves[num.UNICAST])
        for k, p in enumerate(ps):
            if p <= 0:
                continue
            if not (pb[k] >= plain[k] * 0.995 and plain[k] >= uni[k] * 0.995):
                problems.append(f"N={label} ordering broken at p={p}: "
                                f"{pb[k]:.3f} / {plain[k]:.3f} / {uni[k]:.3f}")
        gaps[label] = pb[-1] - plain[-1]
    if not gaps["4"] > gaps["3"]:
        problems.append(f"gap at p=0.3: N=4 {gaps['4']:.3f} <= N=3 {gaps['3']:.3f}")
    measured = f"gap(p=0.3): N=3 {gaps['3']:.3f}, N=4 {gaps['4']:.3f}"
    return _result(5, "loss-shapes", not problems, measured, bound,
                   "; ".join(problems))


# ------------------------------------------------- 6: local traffic ratios

def evaluate_traffic_ratios(results_dir: str) -> CriterionResult:
    bound = ("pull-swarm/coded >= 2.5; push-star/coded >= 2.5; "
             "push clique > push star")
    rows = _load_rows(results_dir, "fig6b_agg.csv",
                      ("protocol", "topology", "traffic_ratio_mean"))
    if rows is None:
        return _not_run(6, "traffic-ratios", bound, "fig6b_agg.csv")
    ratio = {(r["protocol"], r["topology"]): float(r["traffic_ratio_mean"])
             for r in rows}
    try:
        mnc = ratio[(PROTO_MICROCAST, MODE_PSEUDO_ADHOC)]
        bt = ratio[(PROTO_BITTORRENT, MODE_PSEUDO_ADHOC)]
        r2s = ratio[(PROTO_R2, MODE_STAR)]
        r2c = ratio[(PROTO_R2, MODE_CLIQUE)]
    except KeyError as missing:
        return _result(6, "traffic-ratios", False,
                       f"row {missing} absent from fig6b_agg.csv", bound)
    checks = [bt / mnc >= 2.5, r2s / mnc >= 2.5, r2c > r2s]
    measured = (f"swarm/coded {bt / mnc:.2f}, push-star/coded {r2s / mnc:.2f}, "
                f"clique {r2c:.2f} vs star {r2s:.2f}")
    detail = "" if all(checks) else (
        f"ratios: coded {mnc:.3f}, swarm {bt:.3f}, star {r2s:.3f}, clique {r2c:.3f}")
    return _result(6, "traffic-ratios", all(checks), measured, bound, detail)


# --------------------------------------------- 7: download adaptivity

def evaluate_download_adaptivity(results_dir: str) -> CriterionResult:
    bound = "adaptive assignment completes >= 5x faster than a static split"
    rows = _load_rows(results_dir, "fig-microdownload_agg.csv",
                      ("assignment", "completion_s_mean"))
    if rows is None:
        return _not_run(7, "download-adaptivity", bound,
                        "fig-microdownload_agg.csv")
    mean = {r["assignment"]: float(r["completion_s_mean"]) for r in rows}
    if "adaptive" not in mean or "static" not in mean:
        return _result(7, "download-adaptivity", False,
                       f"rows present: {sorted(mean)}", bound)
    speedup = mean["static"] / mean["adaptive"]
    return _result(7, "download-adaptivity", speedup >= 5.0,
                   f"static {mean['static']:.1f}s / adaptive "
                   f"{mean['adaptive']:.1f}s = {speedup:.2f}x", bound)


# --------------------------------------------- 8: congested medium sweep

def evaluate_congestion(results_dir: str) -> CriterionResult:
    bound = ("coded group rate non-decreasing to 4 devices and >= 3x the "
             "standalone rate from 4 on; pull swarm strictly decreasing "
             "after some count <= 5")
    rows = _load_rows(results_dir, "fig-congested_agg.csv",
                      ("protocol", "n_devices", "avg_rate_bps_mean"))
    if rows is None:
        return _not_run(8, "congestion-behavior", bound, "fig-congested_agg.csv")
    curve: dict = {}
    for r in rows:
        curve.setdefault(r["protocol"], {})[int(r["n_devices"])] = \
            float(r["avg_rate_bps_mean"])
    problems = []
    mc, bt, alone = curve.get("microcast", {}), curve.get("bittorrent_pull", {}), \
        curve.get("none", {})
    if not (mc and bt and alone) or sorted(mc) != sorted(alone) or 4 not in mc:
        return _result(8, "congestion-behavior", False,
                       f"incomplete sweep: {sorted(curve)} over {sorted(mc)}",
                       bound)
    ks = sorted(mc)
    if not all(mc[k + 1] >= mc[k] * 0.999 for k in ks if k + 1 in mc and k < 4):
        problems.append(f"coded rate dips below its smaller group: "
                        f"{[round(mc[k] / 1e6, 3) for k in ks]}")
    factors = [mc[k] / alone[k] for k in ks if k >= 4]
    if not all(f >= 3.0 for f in factors):
        problems.append(f"coded/standalone at k>=4: {[round(f, 2) for f in factors]}")
    bt_vals = [bt[k] for k in sorted(bt)]
    if not _declines_after_threshold(bt_vals, last_start=4):
        problems.append(f"swarm rate not in strict decline by 5 devices: "
                        f"{[round(v / 1e6, 3) for v in bt_vals]}")
    measured = (f"coded {mc[1] / 1e6:.2f}->{mc[4] / 1e6:.2f} Mbps to k=4, "
                f"min coded/standalone {min(factors):.2f}x, swarm peak at "
                f"k={bt_vals.index(max(bt_vals)) + 1}")
    return _result(8, "congestion-behavior", not problems, measured, bound,
                   "; ".join(problems))


# --------------------------------------------- 9: protocol property grid

def _grid_config(s: int):
    rng = np.random.default_rng(1000 + s)
    protocol = (PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2)[s % 3]
    n_dev = int(rng.integers(2, 5))
    mode = (MODE_PSEUDO_ADHOC, MODE_CLIQUE, MODE_STAR)[int(rng.integers(0, 3))]
    loss = float(rng.choice([0.0, 0.1, 0.3]))
    segments = int(rng.integers(3, 7))
    m = int(rng.integers(4, 11))
    n_cell = 1 if n_dev == 2 else int(rng.integers(1, 3))
    devices = [DeviceSpec(cellular=RateTrace.constant(float(rng.uniform(1e6, 3e6))))
               if d < n_cell else DeviceSpec() for d in range(n_dev)]
    sim_cfg = SimConfig(devices=devices, capacity_bps=5e6, loss=loss, mode=mode,
                        seed=s, max_time_s=900.0, log_events=True)
    proto = ProtocolConfig(protocol, file_bytes=segments * m * 24, m=m, n=24,
                           initiator=0)
    return sim_cfg, proto


def _run_problems(res, proto) -> list:
    """Criterion 9's findings on one complete, logged run."""
    problems, addressee = trace_problems(res.sim)
    if proto.protocol == PROTO_MICROCAST:
        return problems + _check_microcast_run(res, proto, addressee)
    if proto.protocol == PROTO_BITTORRENT:
        return problems + _check_bittorrent_run(res, proto, res.sim.config.n)
    return problems + _check_r2_run(res, proto, addressee)


def _check_microcast_run(res, proto, addressee: dict) -> list:
    """Serve accounting and request shape, in one pass over the log.

    Requests ask for 1..m dims, never more than the same device's last
    ask for the segment; on a lossless medium there are at most three,
    none above a rank gap of 2.  A device sends no more coded packets of
    a segment than its push and serve intents declare, and serves a
    segment no more often than requests for it were addressed to it.

    A coalesced serve covers every group member's latest ask.  It sends
    one notification per member, each carrying the dims served; scheduler
    notifications carry none.  The medium holds the air from the serve's
    build to its last notification, so in log order the asks seen before
    a notification are those the serve saw.
    """
    problems = []
    m = proto.m
    lossless = not res.sim.config.loss.any()
    requests, oversized = 0, False
    last_dims: dict = {}  # (device, segment) -> latest request dims
    intents: dict = {}    # (device, segment) -> dims declared by push and serve
    sent: dict = {}       # (device, segment) -> coded packets sent
    served: dict = {}     # (device, segment) -> serves
    req_tx: dict = {}     # (addressee, segment) -> requests sent
    asked: dict = {}      # (server, requester, segment) -> latest dims
    for e in res.sim.events:
        event, key = e.event, (e.device, e.segment)
        if event == "tx":
            if e.kind == CODED_DATA:
                sent[key] = sent.get(key, 0) + 1
            elif e.kind == REQUEST:
                req_tx[(e.peer, e.segment)] = req_tx.get((e.peer, e.segment), 0) + 1
            elif e.kind == NOTIFICATION and e.dims:
                want = asked.get((e.device, e.peer, e.segment), 0)
                if e.dims < want:
                    problems.append(
                        f"serve of {e.dims} dims at device {e.device} "
                        f"segment {e.segment} below member {e.peer}'s "
                        f"asked {want}")
        elif event == "rx":
            if e.kind == REQUEST and addressee.get(e.msg) == e.device:
                asked[(e.device, e.peer, e.segment)] = e.dims
        elif event == "request":
            requests += 1
            oversized |= e.dims > 2
            if not 1 <= e.dims <= m:
                problems.append(f"request dims {e.dims} outside [1, {m}]")
            if e.dims > last_dims.get(key, m):
                problems.append(f"request dims grew at {key}")
            last_dims[key] = e.dims
        elif event in ("push", "serve"):
            intents[key] = intents.get(key, 0) + e.dims
            if event == "serve":
                served[key] = served.get(key, 0) + 1
    if lossless and requests > 3:
        problems.append(f"{requests} requests after lossless pushes")
    if lossless and oversized:
        problems.append("lossless request asked for more than a rank gap")
    for key, count in sent.items():
        if count > intents.get(key, 0):
            problems.append(f"{count} coded packets from {key} vs "
                            f"{intents.get(key, 0)} declared")
    for key, count in served.items():
        if count > req_tx.get(key, 0):
            problems.append(f"{count} serves at {key} vs {req_tx.get(key, 0)} "
                            "requests addressed there")
    return problems


def _check_bittorrent_run(res, proto, n_dev: int) -> list:
    problems = []
    pieces: dict = {}
    pieces_to: dict = {}
    asked: dict = {}
    for e in res.sim.events:
        if e.event != "tx":
            continue
        if e.kind == PIECE:
            pieces[e.segment] = pieces.get(e.segment, 0) + 1
            key = (e.peer, e.segment)
            pieces_to[key] = pieces_to.get(key, 0) + 1
        elif e.kind == PIECE_REQUEST:
            key = (e.device, e.segment)
            asked[key] = asked.get(key, 0) + 1
    for segment in range(proto.n_segments):
        if pieces.get(segment, 0) < n_dev - 1:
            problems.append(f"segment {segment} moved {pieces.get(segment, 0)} "
                            f"times for {n_dev - 1} lacking devices")
    # every transfer answers a request; the queue dedupe must hold even
    # when timeouts re-ask
    for key, count in pieces_to.items():
        if count > asked.get(key, 0):
            problems.append(f"device {key[0]} got {count} copies of segment "
                            f"{key[1]} for {asked.get(key, 0)} requests")
    return problems


def _check_r2_run(res, proto, addressee: dict) -> list:
    """Push caps and brake obedience, in one pass over the log.

    A device pushes a segment to a neighbor at most m + ceil(DELTA*m)
    times.  Every device overhears every brake; only the first one
    addressed to the receiver stops the stream towards its sender.
    """
    problems = []
    cap = proto.m + proto.push_cap_extra
    pushed: dict = {}     # (sender, segment, receiver) -> pushes
    braked: dict = {}     # (receiver, segment, sender) -> first receipt time
    for e in res.sim.events:
        if e.event == "rx":
            if e.kind == BRAKE and addressee.get(e.msg) == e.device:
                braked.setdefault((e.device, e.segment, e.peer), e.t)
        elif e.event == "push":
            key = (e.device, e.segment, e.peer)
            pushed[key] = pushed.get(key, 0) + 1
            if pushed[key] > cap:
                problems.append(f"push {pushed[key]} of segment {e.segment} "
                                f"to {e.peer} past the cap of {cap}")
            t = braked.get(key)
            if t is not None and e.t > t:
                problems.append(f"push to {e.peer} after its brake for "
                                f"segment {e.segment}")
    return problems


def evaluate_protocol_properties() -> CriterionResult:
    bound = (f"{GRID_RUNS} randomized runs all complete; every reception "
             "joins its transmission and the log matches the meter; "
             "rank-credit, serve accounting, push caps, brake obedience, "
             "swarm transfer floor all hold")
    t0 = time.perf_counter()
    problems = []
    for s in range(GRID_RUNS):
        sim_cfg, proto = _grid_config(s)
        try:
            res = run_protocol(sim_cfg, proto)
        except Exception as exc:   # a stall or crash is itself a failure
            problems.append(f"run {s} ({proto.protocol}): {exc}")
            continue
        if not res.metrics.complete:
            problems.append(f"run {s} ({proto.protocol}) finished incomplete")
            continue
        problems.extend(f"run {s}: {p}" for p in _run_problems(res, proto))
    dt = time.perf_counter() - t0
    measured = f"{GRID_RUNS} runs, {len(problems)} violations, {dt:.1f}s"
    return _result(9, "protocol-properties", not problems, measured, bound,
                   "; ".join(problems[:6]))


# --------------------------------------------------------------- the gate

def evaluate_all(results_dir: str) -> list:
    return [
        evaluate_codec_roundtrip(),
        evaluate_codec_throughput(results_dir),
        evaluate_solver_oracle(),
        evaluate_group_size_shapes(results_dir),
        evaluate_loss_shapes(results_dir),
        evaluate_traffic_ratios(results_dir),
        evaluate_download_adaptivity(results_dir),
        evaluate_congestion(results_dir),
        evaluate_protocol_properties(),
    ]
