"""Cooperative download protocols: scheduling, dissemination, invariants."""

import contextlib
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcast import acceptance, protocols, scenarios
from microcast.netsim import (
    ADVERTISEMENT,
    BRAKE,
    CODED_DATA,
    CONTROL_BYTES,
    HAVE,
    MODE_CLIQUE,
    MODE_PSEUDO_ADHOC,
    MODE_STAR,
    NOTIFICATION,
    PIECE,
    PIECE_REQUEST,
    REQUEST,
    DeviceSpec,
    LogRecord,
    Message,
    RateTrace,
    SimConfig,
    SimStalled,
    Simulator,
    trace_problems,
)
from microcast.protocols import (
    ASSIGN_ADAPTIVE,
    ASSIGN_STATIC,
    PROTO_BITTORRENT,
    PROTO_MICROCAST,
    PROTO_NONE,
    PROTO_R2,
    BitTorrentPullNode,
    MicroNCP2Node,
    ProtocolConfig,
    R2PushNode,
    run_protocol,
)


def make_devices(rates_kbps, fail=(), timeout=None):
    out = []
    for d, r in enumerate(rates_kbps):
        if r is None:
            out.append(DeviceSpec())
        else:
            out.append(DeviceSpec(cellular=RateTrace.constant(r * 1e3),
                                  cell_fail_prob=1.0 if d in fail else 0.0,
                                  cell_timeout=timeout))
    return out


def run_proto(protocol=PROTO_MICROCAST, rates=(2000.0, None, None), segments=6,
              m=5, n=16, seed=0, loss=0.0, mode=MODE_CLIQUE, devices=None,
              **kw):
    if devices is None:
        devices = make_devices(rates)
    sim_kw = {"log_events": True}
    sim_kw.update({k: kw.pop(k) for k in ("ap", "capacity_bps", "idle_window_s",
                                           "log_events", "max_time_s") if k in kw})
    cfg = SimConfig(devices=devices, loss=loss, mode=mode, seed=seed, **sim_kw)
    proto = ProtocolConfig(protocol=protocol, file_bytes=segments * m * n,
                           m=m, n=n, **kw)
    return run_protocol(cfg, proto)


def tx_records(sim, kind=None):
    recs = [e for e in sim.events if e.event == "tx"]
    if kind is not None:
        recs = [e for e in recs if e.kind == kind]
    return recs


def one_segment_stage(node_cls, n_devices=3, m=5, n=16, segments=1, **kw):
    """A bare simulator plus one directly driven protocol node on device 0."""
    cfg = SimConfig(devices=[DeviceSpec() for _ in range(n_devices)],
                    mode=MODE_CLIQUE, log_events=True)
    sim = Simulator(cfg)
    proto = ProtocolConfig(protocol=PROTO_MICROCAST if node_cls is MicroNCP2Node
                           else PROTO_R2 if node_cls is R2PushNode
                           else PROTO_BITTORRENT,
                           file_bytes=segments * m * n, m=m, n=n, **kw)
    return sim, node_cls(sim, 0, proto), proto


def settle(sim, horizon=0.5):
    # drain the near-term queue without reaching the first recovery tick
    sim.schedule(horizon, sim.stop)
    sim.run()


@contextlib.contextmanager
def no_payload_reaches_a_node():
    """Collects every Notification with a payload (a scheduler call) that
    reaches a node's on_message; BaseNode.receive should run or drop them all."""
    reached = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in protocols._NODE_CLASSES.values():
            def on_message(self, msg, real=cls.on_message):
                if msg.kind == NOTIFICATION and msg.payload is not None:
                    reached.append(msg)
                real(self, msg)
            mp.setattr(cls, "on_message", on_message)
        yield reached


def hold_medium(sim, nbytes=10_000):
    # a foreign transmission keeps the air busy so submissions pile up
    sim.medium.submit(lambda: Message(ADVERTISEMENT, sim.config.n - 1, None,
                                      None, nbytes))


# ------------------------------------------------------------- configuration


def test_segment_and_wire_math():
    proto = ProtocolConfig()
    assert proto.segment_bytes == 22_500
    assert proto.n_segments == 442          # ceil(9_930_000 / 22_500)
    assert proto.coded_bytes == 933         # 8 + 25 + 900
    assert proto.piece_bytes == 64 + 22_500
    assert proto.bitfield_bytes() == 64 + 56
    assert proto.push_cap_extra == 1        # ceil(0.03 * 25)


def test_config_validation():
    with pytest.raises(ValueError, match="protocol"):
        ProtocolConfig(protocol="gossip")
    with pytest.raises(ValueError, match="assignment"):
        ProtocolConfig(assignment="roundrobin")
    with pytest.raises(ValueError, match="positive"):
        ProtocolConfig(file_bytes=0)
    # a segment id is a 32-bit header field
    assert ProtocolConfig(file_bytes=2**32 * 25 * 900).n_segments == 2**32
    with pytest.raises(ValueError, match="segment ids number at most 4294967296"):
        ProtocolConfig(file_bytes=2**32 * 25 * 900 + 1)


def test_run_protocol_validation():
    with pytest.raises(ValueError, match="cellular"):
        run_proto(rates=(None, None))
    with pytest.raises(ValueError, match="initiator"):
        run_proto(rates=(500.0, None), initiator=7)
    with pytest.raises(ValueError, match="initiator"):
        run_proto(PROTO_NONE, rates=(500.0, None), initiator=7)


# ---------------------------------------------------------------- scheduling


def test_min_backlog_assignment_is_round_robin_at_start():
    res = run_proto(rates=(2000.0, 2000.0, 2000.0), segments=12)
    first = [e for e in res.sim.events if e.event == "assign" and e.t == 0.0]
    assert [e.peer for e in first] == [0, 1, 2] * 3     # K = 3 per device
    assert [e.segment for e in first] == list(range(9))
    assert res.metrics.complete


def test_adaptive_assignment_favors_the_fast_link():
    res = run_proto(rates=(2000.0, 250.0), segments=24)
    counts = {0: 0, 1: 0}
    for device in res.scheduler.downloaded_by.values():
        counts[device] += 1
    assert counts[0] + counts[1] == 24
    assert counts[0] > 3 * counts[1]
    assert res.metrics.complete


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_download_adaptivity_holds_in_every_device_order(order, monkeypatch):
    # fig-microdownload's runs at seed 0 with its traces listed in `order`:
    # criterion 7's 5x must not hang on which device comes first
    traces = scenarios.microdownload_traces()
    monkeypatch.setattr(scenarios, "microdownload_traces",
                        lambda: tuple(traces[k] for k in order))
    rows = scenarios._microdownload_recipe([0]).rows
    took = {assignment: completion for assignment, _, completion, _, _ in rows}
    assert [row[4] for row in rows] == [1, 1]
    assert took["static"] / took["adaptive"] >= 5.0


@pytest.mark.parametrize("protocol", [PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2])
def test_an_always_failing_device_hands_its_segments_on(protocol):
    # a failure's segment goes back to the least-loaded device, and the
    # reporter loses the tie, so the healthy device fetches the tail
    devices = make_devices((1000.0, 1000.0), fail={0})
    res = run_proto(protocol, devices=devices, segments=40, m=10, n=100,
                    loss=0.1, max_time_s=60.0, log_events=False)
    assert res.metrics.complete
    assert res.scheduler.failures > 0
    assert set(res.scheduler.downloaded_by.values()) == {1}


def test_failed_downloads_are_reassigned_and_retried():
    devices = make_devices((2000.0, 500.0), fail={1}, timeout=0.2)
    res = run_proto(rates=None, devices=devices, segments=8)
    assert res.metrics.complete
    assert res.scheduler.failures >= 3
    assert set(res.scheduler.downloaded_by.values()) == {0}
    assert sorted(res.scheduler.downloaded_by) == list(range(8))


def test_static_assignment_splits_contiguously():
    res = run_proto(rates=(2000.0, 2000.0), segments=10,
                    assignment=ASSIGN_STATIC)
    by = res.scheduler.downloaded_by
    assert all(by[s] == 0 for s in range(5))
    assert all(by[s] == 1 for s in range(5, 10))
    assert res.metrics.complete


@pytest.mark.parametrize("initiator", [0, 2])
def test_control_plane_survives_loss(initiator):
    # assignments, feedback and acks are all retried until acknowledged;
    # device 2 has no cellular link, so as the initiator every one of
    # them crosses the medium
    with no_payload_reaches_a_node() as reached:
        res = run_proto(rates=(2000.0, 2000.0, None), segments=8, loss=0.35,
                        seed=3, initiator=initiator)
    assert res.metrics.complete
    assert sorted(res.scheduler.downloaded_by) == list(range(8))
    assert reached == []


# ------------------------------------------------------------ coded protocol


def test_fresh_segment_is_pushed_before_it_is_advertised():
    # loss keeps the run alive past the advert ticks, which is exactly
    # when advertisements earn their keep
    res = run_proto(rates=(2000.0, None, None), segments=3, loss=0.3, seed=4)
    for s in range(3):
        coded_t = [e.t for e in tx_records(res.sim, CODED_DATA)
                   if e.segment == s]
        advert_t = [e.t for e in tx_records(res.sim, ADVERTISEMENT)
                    if e.segment == s]
        assert advert_t, f"segment {s} never advertised"
        assert sorted(coded_t)[4] < min(advert_t)   # the m-packet push wins
    assert res.metrics.complete


def test_overheard_coded_packets_count_for_everyone():
    # one push serves both leaves; nobody pulls a second copy
    res = run_proto(rates=(2000.0, None, None), segments=5)
    m = res.metrics
    assert m.complete
    floor = 5 * 5 * 29                      # segments * m * coded wire bytes
    assert floor <= m.local_data_bytes <= 1.25 * floor
    requests = [e for e in res.sim.events if e.event == "request"]
    assert len(requests) <= 2               # only rank-shortfall stragglers


def test_request_coalescing_serves_max_dims_once():
    sim, node, _ = one_segment_stage(MicroNCP2Node)
    node._own_segment(0)
    hold_medium(sim)
    node.on_message(Message(REQUEST, 1, 0, 0, CONTROL_BYTES, dims=2))
    node.on_message(Message(REQUEST, 2, 0, 0, CONTROL_BYTES, dims=4))
    # a repeat ask replaces device 1's dims but keeps its place
    node.on_message(Message(REQUEST, 1, 0, 0, CONTROL_BYTES, dims=5))
    settle(sim)
    assert len(tx_records(sim, CODED_DATA)) == 5    # max(5, 4), sent once
    notes = tx_records(sim, NOTIFICATION)
    assert [e.peer for e in notes] == [1, 2]
    # the coded burst is addressed to whoever asked first
    assert all(e.peer == 1 for e in tx_records(sim, CODED_DATA))


def test_serve_order_follows_playback_position():
    sim, node, _ = one_segment_stage(MicroNCP2Node, segments=4)
    node._own_segment(1)
    node._own_segment(3)
    hold_medium(sim)
    node.on_message(Message(REQUEST, 1, 0, 3, CONTROL_BYTES, dims=5))
    node.on_message(Message(REQUEST, 2, 0, 1, CONTROL_BYTES, dims=5))
    settle(sim)
    coded = tx_records(sim, CODED_DATA)
    assert [e.segment for e in coded] == [1] * 5 + [3] * 5


def test_notification_without_progress_triggers_rerequest():
    sim, node, proto = one_segment_stage(MicroNCP2Node)
    node.device = 1   # receiver role
    node.on_message(Message(NOTIFICATION, 0, 1, 0, CONTROL_BYTES))
    settle(sim)
    reqs = [e for e in sim.events if e.event == "request" and e.t < 1.0]
    assert len(reqs) == 1
    assert reqs[0].peer == 0 and reqs[0].dims == proto.m
    # a second hint while the request is in flight does not duplicate it
    node.on_message(Message(ADVERTISEMENT, 2, None, 0, CONTROL_BYTES))
    settle(sim, horizon=0.6)
    assert len([e for e in sim.events if e.event == "request"]) == 1


def test_coded_dissemination_recovers_from_loss():
    res = run_proto(rates=(2000.0, None, None, None), segments=6, loss=0.3,
                    seed=5)
    assert res.metrics.complete
    assert all(t is not None for t in res.metrics.completion_s)


# ----------------------------------------------------------------- bittorrent


def test_plain_swarm_transfers_one_copy_per_receiver():
    res = run_proto(PROTO_BITTORRENT, rates=(2000.0, None, None), segments=5)
    m = res.metrics
    assert m.complete
    pieces = tx_records(res.sim, PIECE)
    assert len(pieces) == 2 * 5             # every leaf pulls every segment
    assert m.local_data_bytes == 10 * (64 + 80)
    # nothing was credited from overhearing: each piece is addressed
    assert all(e.peer is not None for e in pieces)


def test_piece_requests_are_deduped_server_side():
    sim, node, _ = one_segment_stage(BitTorrentPullNode)
    node._own_segment(0)
    hold_medium(sim)
    node.on_message(Message(PIECE_REQUEST, 1, 0, 0, CONTROL_BYTES))
    node.on_message(Message(PIECE_REQUEST, 1, 0, 0, CONTROL_BYTES))
    settle(sim)
    assert len(tx_records(sim, PIECE)) == 1


def test_swarm_completes_under_loss():
    res = run_proto(PROTO_BITTORRENT, rates=(2000.0, None, None), segments=4,
                    loss=0.3, seed=2)
    assert res.metrics.complete


def test_coded_traffic_beats_plain_swarm():
    kw = dict(rates=(5000.0, None, None, None), segments=6, m=25, n=900)
    mnc = run_proto(PROTO_MICROCAST, **kw)
    bt = run_proto(PROTO_BITTORRENT, **kw)
    assert mnc.metrics.complete and bt.metrics.complete
    ratio = bt.metrics.local_bytes / mnc.metrics.local_bytes
    assert 2.5 < ratio < 3.3
    assert mnc.metrics.local_control_bytes < 0.05 * mnc.metrics.local_data_bytes


# -------------------------------------------------------------------- pushing


def test_no_push_after_brake():
    sim, node, _ = one_segment_stage(R2PushNode)
    built = []
    build_push = node._build_push

    def counted(segment, neighbor):
        built.append((segment, neighbor))
        return build_push(segment, neighbor)

    node._build_push = counted
    node.on_message(Message(BRAKE, 1, 0, 0, CONTROL_BYTES))
    node.on_cellular_segment(0)
    settle(sim)
    coded = tx_records(sim, CODED_DATA)
    assert len(coded) == 6                  # m + ceil(DELTA * m) pushes to device 2
    assert all(e.peer == 2 for e in coded)  # the braked neighbor gets nothing
    assert (0, 1) not in built              # and no push job is queued for it
    assert built.count((0, 2)) == 6
    assert len(tx_records(sim, BRAKE)) == 2


def test_unsolicited_pushes_respect_the_cap():
    # at most m + ceil(DELTA * m) pushes per stream, and the first brake
    # addressed to a pusher stops its stream for good
    res = run_proto(PROTO_R2, rates=(2000.0, None, None), segments=3)
    assert res.metrics.complete
    problems, addressee = trace_problems(res.sim)
    assert problems == []
    assert any(e.event == "push" for e in res.sim.events)
    assert acceptance._check_r2_run(res, res.nodes[0].proto, addressee) == []


def test_push_nodes_are_called_only_for_their_own_messages(monkeypatch):
    # every reception is still drawn and logged, overheard ones included,
    # but an R2 node's handler runs once per reception addressed to it
    calls = []
    on_message = R2PushNode.on_message

    def counted(self, msg):
        calls.append((self.sim.now, self.device, msg.src, msg.kind, msg.segment))
        on_message(self, msg)

    monkeypatch.setattr(R2PushNode, "on_message", counted)
    res = run_proto(PROTO_R2, rates=(2000.0, None, None, None), segments=3,
                    loss=0.2, seed=3)
    assert res.metrics.complete
    addressee = trace_problems(res.sim)[1]
    rx = [e for e in res.sim.events if e.event == "rx"]
    assert any(addressee[e.msg] != e.device for e in rx)
    own = [(e.t, e.device, e.peer, e.kind, e.segment) for e in rx
           if addressee[e.msg] == e.device]
    assert sorted(calls) == sorted(own)


def test_full_mesh_pushing_costs_more_than_hub_pushing():
    kw = dict(rates=(2000.0, None, None, None), segments=4)
    clique = run_proto(PROTO_R2, mode=MODE_CLIQUE, **kw)
    star = run_proto(PROTO_R2, mode=MODE_STAR, ap=0, **kw)
    assert clique.metrics.complete and star.metrics.complete
    assert clique.metrics.local_bytes > star.metrics.local_bytes
    # the hub topology sends one addressed stream per leaf and little else
    floor = 4 * 5 * 29 * 3
    assert star.metrics.local_data_bytes >= floor


def test_stalled_push_receiver_pulls_the_rest():
    loss = np.zeros((3, 3))
    loss[0, 1] = 0.6                        # device 1 misses most pushes
    loss[2, 1] = 0.6
    res = run_proto(PROTO_R2, rates=(2000.0, None, None), segments=4, m=10,
                    loss=loss, seed=1)
    assert res.metrics.complete
    reqs = [e for e in res.sim.events if e.event == "request" and e.device == 1]
    assert reqs, "receiver never asked for the missing dimensions"
    served = sum(e.dims for e in res.sim.events if e.event == "push_solicited")
    assert served > 0


@pytest.mark.parametrize(
    "protocol,mode,n_devices,n_cell,loss,segments,seed,assignment", [
        (PROTO_R2, MODE_STAR, 3, 2, 0.3, 2, 2, ASSIGN_ADAPTIVE),
        (PROTO_R2, MODE_STAR, 4, 2, 0.1, 2, 2, ASSIGN_ADAPTIVE),
        (PROTO_R2, MODE_PSEUDO_ADHOC, 4, 2, 0.3, 2, 51222, ASSIGN_STATIC),
        (PROTO_MICROCAST, MODE_CLIQUE, 2, 1, 0.3, 3, 65536, ASSIGN_STATIC),
    ])
def test_segment_lost_without_trace_is_still_fetched(protocol, mode, n_devices,
                                                     n_cell, loss, segments,
                                                     seed, assignment):
    # in each run one device loses every message that names one segment to
    # it (pushes, brakes, advertisements), so only a probe finds it
    res = run_proto(protocol,
                    rates=(2000.0,) * n_cell + (None,) * (n_devices - n_cell),
                    segments=segments, m=2, n=8, seed=seed, loss=loss,
                    mode=mode, assignment=assignment)
    assert res.metrics.complete


# -------------------------------------------------------------- no cooperation


def test_standalone_downloads_never_touch_the_medium():
    res = run_proto(PROTO_NONE, rates=(550.0, 550.0, None), segments=2,
                    m=5, n=13750)
    m = res.metrics
    assert m.complete
    assert m.local_bytes == 0
    assert m.completion_s[0] == pytest.approx(2.0)
    assert m.completion_s[1] == pytest.approx(2.0)
    assert m.completion_s[2] is None
    assert m.avg_rate_bps == pytest.approx(550e3)


@pytest.mark.parametrize("protocol", list(protocols._NODE_CLASSES))
def test_only_a_recovering_node_schedules_a_recovery_tick(protocol):
    node_cls = protocols._NODE_CLASSES[protocol]
    sim = Simulator(SimConfig(devices=[DeviceSpec(), DeviceSpec()]))
    node = node_cls(sim, 0, ProtocolConfig(protocol=protocol))
    ticks = [t for t, _, fn, _ in sim._heap if fn == node._tick]
    assert node_cls.recovers == (protocol != PROTO_NONE)
    assert ticks == ([protocols.RECOVERY_TIMEOUT_S] if node_cls.recovers else [])


def test_standalone_failure_strands_only_its_device():
    devices = make_devices((550.0, 550.0, None), fail={0})
    res = run_proto(PROTO_NONE, devices=devices, segments=2, m=5, n=13750)
    m = res.metrics
    assert m.completion_s[0] is None
    assert m.completion_s[1] == pytest.approx(2.0)
    assert not m.complete
    assert m.local_bytes == 0
    assert res.scheduler.failures >= 1


@pytest.mark.parametrize("protocol", [PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2])
def test_static_failure_stalls_a_cooperative_run(protocol, monkeypatch):
    # the static split gives segment 1 to device 1 alone and never
    # reassigns it, so the run stops at the failure instead of running on
    sims = []
    monkeypatch.setattr(protocols, "Simulator",
                        lambda cfg: sims.append(Simulator(cfg)) or sims[-1])
    devices = make_devices((550.0, 550.0, None), fail={1})
    with pytest.raises(SimStalled, match="device 1 failed to download segment 1") as stall:
        run_proto(protocol, devices=devices, segments=2, m=5, n=13750,
                  assignment=ASSIGN_STATIC)
    assert sims[0].now == pytest.approx(1.0)
    last = stall.value.events[-1]
    assert (last.t, last.event, last.device, last.segment) == (sims[0].now, "cell_fail", 1, 1)


# ---------------------------------------------------------------- trace


@settings(max_examples=30, deadline=None)
@given(protocol=st.sampled_from([PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2]),
       mode=st.sampled_from([MODE_CLIQUE, MODE_PSEUDO_ADHOC, MODE_STAR]),
       n_devices=st.integers(2, 4), loss=st.sampled_from([0.0, 0.1, 0.3]),
       segments=st.integers(1, 3), m=st.integers(2, 6),
       seed=st.integers(0, 2**16),
       assignment=st.sampled_from([ASSIGN_ADAPTIVE, ASSIGN_STATIC]),
       data=st.data())
def test_every_reception_joins_its_transmission(protocol, mode, n_devices,
                                                 loss, segments, m, seed,
                                                 assignment, data):
    # adaptive assignment to a second cellular device, or from an
    # initiator without one, puts scheduler traffic on the medium
    n_cell = data.draw(st.integers(1, n_devices), label="n_cell")
    initiator = data.draw(st.integers(0, n_devices - 1), label="initiator")
    with no_payload_reaches_a_node() as reached:
        res = run_proto(protocol,
                        rates=(2000.0,) * n_cell + (None,) * (n_devices - n_cell),
                        segments=segments, m=m, n=8, seed=seed, loss=loss,
                        mode=mode, assignment=assignment, initiator=initiator)
    assert trace_problems(res.sim)[0] == []
    assert reached == []


@pytest.mark.parametrize("mode", [MODE_CLIQUE, MODE_STAR])
@pytest.mark.parametrize("protocol", [PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2])
def test_every_record_is_a_whole_log_record(protocol, mode):
    # the medium builds its tx and rx records without the NamedTuple's
    # arity check, so every record must still be a LogRecord of 9 fields
    res = run_proto(protocol, rates=(2000.0, 1500.0, None), segments=3,
                    loss=0.1, mode=mode, assignment=ASSIGN_ADAPTIVE)
    assert res.metrics.complete
    events = {e.event for e in res.sim.events}
    assert {"cell_start", "cell_done", "tx", "rx"} <= events
    assert all(type(e) is LogRecord and len(e) == 9 for e in res.sim.events)


# ---------------------------------------------------------------- determinism


def test_runs_replay_deterministically():
    kw = dict(rates=(2000.0, None, None), segments=4, loss=0.25)
    a = run_proto(seed=7, **kw)
    b = run_proto(seed=7, **kw)
    c = run_proto(seed=8, **kw)
    assert a.sim.events == b.sim.events
    assert a.metrics.completion_s == b.metrics.completion_s
    assert a.metrics.local_bytes == b.metrics.local_bytes
    assert a.sim.events != c.sim.events


@pytest.mark.parametrize("protocol",
                         [PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2, PROTO_NONE])
def test_logging_only_observes(protocol):
    # adaptive assignment to a second cellular device puts scheduler
    # traffic on the medium; an assignment received in the middle of a
    # delivery starts a cellular download, which draws its failure from
    # the run's rng before the next receiver draws its loss
    devices = [DeviceSpec(cellular=RateTrace.constant(2e6)),
               DeviceSpec(cellular=RateTrace.constant(1.5e6), cell_fail_prob=0.5),
               DeviceSpec(), DeviceSpec()]
    quiet, logged = (run_proto(protocol, devices=devices, segments=6,
                               loss=0.2, seed=3, assignment=ASSIGN_ADAPTIVE,
                               log_events=log)
                     for log in (False, True))
    assert not quiet.sim.events and logged.sim.events
    assert quiet.metrics == logged.metrics
    assert [[node.rank(s) for s in range(6)] for node in quiet.nodes] == \
        [[node.rank(s) for s in range(6)] for node in logged.nodes]
    assert quiet.sim.now == logged.sim.now
    assert quiet.sim.medium.delivered == logged.sim.medium.delivered
    assert quiet.sim.rng.random() == logged.sim.rng.random()


# ---------------------------------------------------------------- freeing


def assert_freed_without_collector(monkeypatch, run):
    """run() makes protocol runs and drops them.  With the garbage collector
    off, every simulator run_protocol built and every node attached to one
    must then be dead, and no cyclic garbage may be left."""
    refs = []

    class Recorded(Simulator):
        def __init__(self, config):
            super().__init__(config)
            refs.append(weakref.ref(self))

        def attach(self, device, on_message):
            super().attach(device, on_message)
            refs.append(weakref.ref(on_message.__self__))

    monkeypatch.setattr(protocols, "Simulator", Recorded)
    gc.collect()
    gc.disable()
    try:
        run()
        alive = sum(ref() is not None for ref in refs)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert refs and alive == 0 and garbage == 0


@pytest.mark.parametrize("mode", [MODE_CLIQUE, MODE_PSEUDO_ADHOC, MODE_STAR])
@pytest.mark.parametrize("protocol", list(protocols._NODE_CLASSES))
def test_a_finished_run_is_freed_without_the_collector(monkeypatch, protocol, mode):
    def run():
        res = run_proto(protocol, rates=(2000.0, 1500.0, None), segments=3,
                        loss=0.2, mode=mode)
        assert res.metrics.complete

    assert_freed_without_collector(monkeypatch, run)


def test_runs_that_end_early_are_freed_without_the_collector(monkeypatch):
    def run():
        # adaptive MicroDownload over links that fail and time out
        devices = make_devices((2000.0, 500.0), fail={1}, timeout=0.2)
        res = run_proto(devices=devices, segments=8, loss=0.1)
        assert res.metrics.complete and res.scheduler.failures > 0
        # capped with jobs queued, downloads running and ticks pending
        res = run_proto(PROTO_R2, rates=(2000.0, 1000.0, None, None),
                        segments=6, loss=0.3, max_time_s=0.05)
        assert not res.metrics.complete
        # a static split whose download fails stalls; the caller holds only
        # the exception, and drops it at the end of its except block
        try:
            run_proto(PROTO_MICROCAST, devices=make_devices((550.0, 550.0, None),
                                                            fail={1}),
                      segments=2, m=5, n=13750, assignment=ASSIGN_STATIC)
        except SimStalled as exc:
            assert exc.events
        else:
            raise AssertionError("the static run did not stall")

    assert_freed_without_collector(monkeypatch, run)


def test_a_crashed_run_is_freed_without_the_collector(monkeypatch):
    def crash(self, msg):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(MicroNCP2Node, "on_message", crash)

    def run():
        try:
            run_proto(PROTO_MICROCAST, loss=0.1)
        except RuntimeError as exc:
            assert str(exc) == "handler failed"
        else:
            raise AssertionError("the run did not crash")

    assert_freed_without_collector(monkeypatch, run)


def test_a_closed_run_reads_the_same(monkeypatch):
    # a star relays between leaves, so the occupations trace_problems
    # counts must still come out right once the medium is unlinked; a
    # planted tx record gives it problems to name
    seen = []
    close = Simulator.close

    def checked_close(sim):
        sim.events.append(LogRecord(sim.now, "tx", 2, CODED_DATA, 0, 100, 3,
                                    sim.medium.delivered + 5, 1))
        seen.append((trace_problems(sim), sim.now, sim.medium.delivered,
                     sim.rng.bit_generator.state))
        close(sim)

    monkeypatch.setattr(Simulator, "close", checked_close)
    res = run_proto(PROTO_R2, rates=(2000.0, None, None, None), segments=3,
                    loss=0.2, mode=MODE_STAR, ap=1, seed=4)
    (problems, addressee), now, delivered, state = seen[0]
    assert len(problems) == 4 and len(addressee) == delivered + 1
    assert trace_problems(res.sim) == (problems, addressee)
    assert (res.sim.now, res.sim.medium.delivered) == (now, delivered)
    assert res.sim.rng.bit_generator.state == state
    assert res.sim.medium.sim is None and not res.sim._heap
