"""The acceptance gate: every criterion at its stated tolerance.

Recipe CSVs are generated once per session into a temp directory; the
inline criteria (codec round trip, solver-vs-oracle, protocol property
grid) run their own computations.  Each test prints one verdict line.
The same CSVs are also held byte for byte to the committed results/.
"""

import copy
import dataclasses
from pathlib import Path

import pytest

from microcast import acceptance, scenarios
from microcast.netsim import (BRAKE, CODED_DATA, HAVE, MODE_CLIQUE,
                              NOTIFICATION, PIECE, REQUEST, DeviceSpec,
                              LogRecord, RateTrace, SimConfig, trace_problems)
from microcast.protocols import (PROTO_BITTORRENT, PROTO_MICROCAST, PROTO_R2,
                                 ProtocolConfig, run_protocol)


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    for name in scenarios.RECIPES:
        scenarios.write_recipe_output(scenarios.run_recipe(name), str(out))
    return str(out)


COMMITTED = Path(__file__).resolve().parent.parent / "results"


def test_recipes_reproduce_committed_results(results_dir):
    # every recipe is a pure function of its seeds except fig7b, which
    # measures codec throughput on the wall clock
    def golden(d):
        return {p.name: p.read_bytes() for p in Path(d).glob("*.csv")
                if not p.name.startswith("fig7b")}
    got, want = golden(results_dir), golden(COMMITTED)
    assert sorted(got) == sorted(want)
    differ = [name for name in sorted(want) if got[name] != want[name]]
    assert not differ, f"regenerated CSVs differ from results/: {differ}"


def report(r):
    print(f"criterion {r.number} {r.name}: {r.verdict} "
          f"[measured: {r.measured} | bound: {r.bound}]")
    assert r.passed, r.detail or r.measured


def test_criterion_1_codec_roundtrip():
    report(acceptance.evaluate_codec_roundtrip())


def test_criterion_2_codec_throughput(results_dir):
    report(acceptance.evaluate_codec_throughput(results_dir))


def test_criterion_2_names_an_inverted_pair_with_both_spreads(tmp_path):
    # decode m=25 reads above m=32 in the medians, but below it round for
    # round: the per-round ratio decides the verdict, not the medians
    rows = [[16, 99.0, 98.0, 95.0, 101.0, 94.0, 99.5, 1.52, 1.55],
            [25, 64.0, 60.0, 60.0, 66.0, 45.5, 65.0, 1.18, 0.96],
            [32, 54.0, 53.5, 52.0, 55.0, 51.0, 54.25, 1.86, 1.88],
            [64, 29.0, 28.5, 28.0, 30.0, 27.0, 29.0, "", ""]]
    scenarios.write_csv(str(tmp_path / "fig7b.csv"), ["recipe: fig7b"],
                        scenarios.BENCH_COLUMNS, rows)
    r = acceptance.evaluate_codec_throughput(str(tmp_path))
    assert not r.passed and "monotone=no" in r.measured
    assert r.detail == ("decode m=25 60.0 (quartiles 45.5-65.0) over "
                        "m=32 53.5 (quartiles 51.0-54.2): per-round ratio 0.960")
    # now the medians invert, as a slowdown over part of the bench does,
    # while every round keeps m=25 ahead
    rows[1][2], rows[1][8] = 50.0, 1.04
    scenarios.write_csv(str(tmp_path / "fig7b.csv"), ["recipe: fig7b"],
                        scenarios.BENCH_COLUMNS, rows)
    r = acceptance.evaluate_codec_throughput(str(tmp_path))
    assert r.passed and r.detail == ""
    # a ratio of exactly 1 is no fall
    rows[0][7] = 1.0
    scenarios.write_csv(str(tmp_path / "fig7b.csv"), ["recipe: fig7b"],
                        scenarios.BENCH_COLUMNS, rows)
    r = acceptance.evaluate_codec_throughput(str(tmp_path))
    assert not r.passed and r.detail.startswith("encode m=16 99.0")


def test_criterion_3_solver_tracks_oracle():
    report(acceptance.evaluate_solver_oracle())


def test_criterion_4_rate_vs_group_size(results_dir):
    report(acceptance.evaluate_group_size_shapes(results_dir))


def test_criterion_5_rate_vs_local_loss(results_dir):
    report(acceptance.evaluate_loss_shapes(results_dir))


def test_criterion_6_local_traffic_ratios(results_dir):
    report(acceptance.evaluate_traffic_ratios(results_dir))


def test_criterion_7_download_adaptivity(results_dir):
    report(acceptance.evaluate_download_adaptivity(results_dir))


def test_criterion_8_congested_medium(results_dir):
    report(acceptance.evaluate_congestion(results_dir))


def test_criterion_9_protocol_properties():
    report(acceptance.evaluate_protocol_properties())


def test_coalescing_check_skips_scheduler_notifications():
    # at t=6 device 1 serves one dimension of segment 3 to device 2, and its
    # next transmission is its scheduler feedback Notification for segment 3
    # to device 0, whose ask for 4 dimensions was served at t=0.1: that
    # feedback is not a notification to a member of the serve
    devices = [DeviceSpec(cellular=RateTrace.constant(2293812.8591898195)),
               DeviceSpec(cellular=RateTrace.constant(1953665.5828385355)),
               DeviceSpec(), DeviceSpec()]
    sim_cfg = SimConfig(devices=devices, capacity_bps=5e6, loss=0.3,
                        mode=MODE_CLIQUE, seed=1053094561, max_time_s=900.0,
                        log_events=True)
    proto = ProtocolConfig(PROTO_MICROCAST, file_bytes=6 * 10 * 24, m=10,
                           n=24, initiator=0)
    res = run_protocol(sim_cfg, proto)
    assert res.metrics.complete
    assert acceptance._run_problems(res, proto) == []


# ------------------------------------------------------------ planted faults

# criterion 9's own runs, each on a lossy star: MicroCast with coalesced
# serves, a pull swarm, and R2 with brakes and solicited pushes
PLANT_RUNS = {PROTO_MICROCAST: 48, PROTO_BITTORRENT: 31, PROTO_R2: 17}


@pytest.fixture(scope="module")
def grid_runs():
    out = {}
    for protocol, s in PLANT_RUNS.items():
        sim_cfg, proto = acceptance._grid_config(s)
        res = run_protocol(sim_cfg, proto)
        assert res.metrics.complete
        assert acceptance._run_problems(res, proto) == []
        out[protocol] = res, proto
    return out


def with_log(res, events):
    """`res` with its event log replaced by `events`."""
    sim = copy.copy(res.sim)
    sim.events = events
    return dataclasses.replace(res, sim=sim)


def plant(events, match, change):
    """`events` with the first record that `match` accepts replaced by the
    records change(record) returns."""
    k = next(k for k, e in enumerate(events) if match(e))
    return events[:k] + change(events[k]) + events[k + 1:]


def is_tx(e):
    return e.event == "tx"


def is_rx(e):
    return e.event == "rx"


TRACE_FAULTS = [
    pytest.param(lambda e: is_tx(e) and e.msg == 1, lambda e: [e._replace(msg=0)],
                 "carries msg 0", id="reused-msg"),
    pytest.param(is_rx, lambda e: [e, e], "received twice", id="duplicated-rx"),
    pytest.param(is_rx, lambda e: [e._replace(msg=10**6)], "joins no tx",
                 id="rx-without-tx"),
    pytest.param(is_rx, lambda e: [e._replace(t=e.t + 1e-3)],
                 "differs from its tx", id="rx-time"),
    pytest.param(is_rx, lambda e: [e._replace(kind=HAVE if e.kind != HAVE else PIECE)],
                 "differs from its tx", id="rx-kind"),
    pytest.param(is_tx, lambda e: [e._replace(nbytes=e.nbytes + 1)], "tx bytes",
                 id="tx-bytes"),
]


@pytest.mark.parametrize("match,change,named", TRACE_FAULTS)
@pytest.mark.parametrize("protocol", list(PLANT_RUNS))
def test_trace_problems_name_planted_faults(grid_runs, protocol, match, change,
                                            named):
    res, _ = grid_runs[protocol]
    planted = with_log(res, plant(res.sim.events, match, change))
    problems = trace_problems(planted.sim)[0]
    assert any(named in p for p in problems), problems


def push_after_brake(res, proto):
    # a device pushes a segment to the neighbor whose brake it obeyed
    addressee = trace_problems(res.sim)[1]
    brake = next(e for e in res.sim.events if is_rx(e) and e.kind == BRAKE
                 and addressee[e.msg] == e.device)
    return res.sim.events + [LogRecord(brake.t + 1.0, "push", brake.device,
                                       segment=brake.segment, peer=brake.peer,
                                       dims=1)]


def push_over_cap(res, proto):
    cap = proto.m + proto.push_cap_extra
    return plant(res.sim.events, lambda e: e.event == "push",
                 lambda e: [e] * (cap + 1))


def serve_below_ask(res, proto):
    # a member's last ask before a serve, raised above the dims served
    events, addressee = res.sim.events, trace_problems(res.sim)[1]
    n = next(k for k, e in enumerate(events)
             if is_tx(e) and e.kind == NOTIFICATION and e.dims)
    note = events[n]
    k = max(k for k, e in enumerate(events[:n])
            if is_rx(e) and e.kind == REQUEST and addressee[e.msg] == e.device
            and (e.device, e.peer, e.segment) == (note.device, note.peer, note.segment))
    return events[:k] + [events[k]._replace(dims=note.dims + 1)] + events[k + 1:]


def growing_request(res, proto):
    return plant(res.sim.events, lambda e: e.event == "request",
                 lambda e: [e, e._replace(dims=e.dims + 1)])


def coded_over_intents(res, proto):
    # more coded packets of a segment than its sender's push and serve
    # intents declare
    events = res.sim.events
    coded = next(e for e in events if is_tx(e) and e.kind == CODED_DATA)
    declared = sum(e.dims for e in events if e.event in ("push", "serve")
                   and (e.device, e.segment) == (coded.device, coded.segment))
    return events + [coded] * (declared + 1)


def serves_over_requests(res, proto):
    # more serves of a segment than requests for it addressed to the server
    events = res.sim.events
    serve = next(e for e in events if e.event == "serve")
    asked = sum(is_tx(e) and e.kind == REQUEST
                and (e.peer, e.segment) == (serve.device, serve.segment)
                for e in events)
    return events + [serve] * (asked + 1)


@pytest.mark.parametrize("protocol,fault,named", [
    pytest.param(PROTO_R2, push_after_brake, "after its brake", id="push-after-brake"),
    pytest.param(PROTO_R2, push_over_cap, "past the cap", id="push-over-cap"),
    pytest.param(PROTO_MICROCAST, serve_below_ask, "below member",
                 id="serve-below-ask"),
    pytest.param(PROTO_MICROCAST, growing_request, "grew", id="request-dims-grow"),
    pytest.param(PROTO_MICROCAST, coded_over_intents, "declared",
                 id="coded-over-intents"),
    pytest.param(PROTO_MICROCAST, serves_over_requests, "requests addressed there",
                 id="serves-over-requests"),
])
def test_criterion_9_names_planted_faults(grid_runs, protocol, fault, named):
    res, proto = grid_runs[protocol]
    problems = acceptance._run_problems(with_log(res, fault(res, proto)), proto)
    assert any(named in p for p in problems), problems
