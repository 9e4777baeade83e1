"""Simulator core: traces, medium arbitration, modems, determinism."""

import random

import numpy as np
import pytest

from microcast.netsim import (
    ADVERTISEMENT,
    BLOCK,
    CODED_DATA,
    CONTROL_BYTES,
    MODE_CLIQUE,
    MODE_PSEUDO_ADHOC,
    MODE_STAR,
    ChannelStream,
    DeviceSpec,
    Message,
    RateTrace,
    SimConfig,
    SimStalled,
    Simulator,
)


def control(src, dst=None, kind=ADVERTISEMENT, segment=0):
    return Message(kind, src, dst, segment, CONTROL_BYTES)


def airtimes(sim):
    """(start, end) of every logged transmission; a tx is logged as its airtime ends."""
    rate = sim.config.effective_bps
    return [(e.t - e.nbytes * 8 / rate, e.t) for e in sim.events if e.event == "tx"]


def make_sim(n=3, **kw):
    kw.setdefault("devices", [DeviceSpec() for _ in range(n)])
    cfg = SimConfig(**kw)
    return Simulator(cfg)


# ------------------------------------------------------------ channel stream


def test_channel_stream_hands_out_the_generators_own_draws():
    # random interleavings of doubles, bounded integers and syncs, across
    # block refills; back-to-back small integers calls read PCG64's
    # buffered 32-bit half, which a sync in between must keep
    halves = 0
    for seed in range(200):
        script = random.Random(seed)
        plain = np.random.default_rng(seed)
        stream = ChannelStream(np.random.default_rng(seed))
        draw = stream.random   # bound once, as a delivery binds it
        assert stream.rng.bit_generator.state == plain.bit_generator.state
        for _ in range(script.randint(0, 3 * BLOCK)):
            op = script.random()
            if op < 0.8:
                assert draw() == plain.random()
            elif op < 0.95:
                high = script.choice((2, 3, 1000, 2**31, 2**40))
                for _ in range(script.randint(1, 3)):
                    assert stream.integers(high) == plain.integers(high)
            else:
                stream.sync()
                assert stream.rng.bit_generator.state == plain.bit_generator.state
                halves += plain.bit_generator.state["has_uint32"]
        stream.sync()
        stream.sync()
        assert stream.rng.bit_generator.state == plain.bit_generator.state
        assert draw() == plain.random()
    assert halves   # some syncs kept a buffered half


# -------------------------------------------------------------------- traces


def test_trace_constant_transfer_time():
    trace = RateTrace.constant(550e3)
    assert trace.seconds_to_send(0.0, 68750 * 8) == pytest.approx(1.0)
    assert trace.seconds_to_send(12.0, 68750 * 8) == pytest.approx(1.0)
    assert (trace.times, trace.rates) == ((0.0,), (550e3,))


def test_trace_piecewise_integration():
    # 5 kbit/s for the first minute, then 500 kbit/s
    trace = RateTrace.from_kbps_points([(0, 5), (60, 500)])
    assert trace.seconds_to_send(0.0, 180e3) == pytest.approx(36.0)
    # 10 s left in the slow piece moves 50 kbit, the rest at full rate
    assert trace.seconds_to_send(50.0, 180e3) == pytest.approx(10.0 + 130e3 / 500e3)
    assert (trace.times, trace.rates) == ((0.0, 60.0), (5e3, 500e3))


def test_trace_zero_rate_never_completes():
    trace = RateTrace((0.0,), (0.0,))
    assert trace.seconds_to_send(0.0, 8.0) == float("inf")
    # a zero piece is just waited out when a later piece has rate
    trace = RateTrace((0.0, 10.0), (0.0, 1000.0))
    assert trace.seconds_to_send(0.0, 1000.0) == pytest.approx(11.0)


def test_trace_validation():
    with pytest.raises(ValueError, match="t=0"):
        RateTrace((1.0,), (5.0,))
    with pytest.raises(ValueError, match="increasing"):
        RateTrace((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        RateTrace((0.0,), (-1.0,))


# -------------------------------------------------------------------- medium


def test_lossless_send_reaches_every_other_device_once():
    sim = make_sim(4, mode=MODE_PSEUDO_ADHOC, ap=0)
    got = {d: [] for d in range(4)}
    for d in range(4):
        sim.attach(d, lambda msg, d=d: got[d].append(msg))
    sim.medium.submit(lambda: control(src=1))
    sim.run()
    assert [len(got[d]) for d in range(4)] == [1, 0, 1, 1]
    assert sim.meter.local_bytes_total == CONTROL_BYTES
    assert sim.meter.count_by_kind[ADVERTISEMENT] == 1


def test_per_receiver_loss_draws():
    # overhearer 2 always loses, addressed target 1 always receives
    loss = np.zeros((3, 3))
    loss[0, 2] = 1.0
    sim = make_sim(3, loss=loss, mode=MODE_CLIQUE)
    got = {d: [] for d in range(3)}
    for d in range(3):
        sim.attach(d, lambda msg, d=d: got[d].append(msg))
    for _ in range(20):
        sim.medium.submit(lambda: control(src=0, dst=1))
    sim.run()
    assert len(got[1]) == 20 and len(got[2]) == 0


def test_a_handlers_draw_falls_between_two_reception_draws():
    # device 1's handler draws from the channel in the middle of each
    # delivery, as an assignment that starts a cellular download does;
    # device 2 and 3 then draw their receptions after it
    sim = make_sim(4, loss=0.5, mode=MODE_CLIQUE, seed=11)
    got = {d: [] for d in range(1, 4)}
    drawn = []
    sim.attach(1, lambda msg: (got[1].append(msg.segment),
                               drawn.append(sim.channel.random()),
                               drawn.append(int(sim.channel.integers(1000)))))
    sim.attach(2, lambda msg: got[2].append(msg.segment))
    sim.attach(3, lambda msg: got[3].append(msg.segment))
    for k in range(400):
        sim.medium.submit(lambda k=k: control(src=0, dst=1, segment=k))
    sim.run()
    ref = np.random.default_rng(11)
    want, want_drawn = {d: [] for d in range(1, 4)}, []
    for k in range(400):
        for d in range(1, 4):
            if ref.random() >= 0.5:
                want[d].append(k)
                if d == 1:
                    want_drawn += [ref.random(), int(ref.integers(1000))]
    assert got == want and drawn == want_drawn
    assert sim.rng.bit_generator.state == ref.bit_generator.state


def test_medium_fifo_and_exclusivity():
    sim = make_sim(3, capacity_bps=8e6, log_events=True, mode=MODE_CLIQUE)
    order = []
    sim.attach(1, lambda msg: order.append((msg.src, msg.segment)))
    data = [Message(CODED_DATA, 0, 1, s, 1000) for s in range(3)]
    big = Message(CODED_DATA, 2, 1, 99, 50_000)

    def kickoff():
        sim.medium.submit(lambda: data[0])
        sim.medium.submit(lambda: big)          # queued behind, same instant
        sim.medium.submit(lambda: [data[1], data[2]])

    sim.schedule(0.0, kickoff)
    sim.run()
    assert order == [(0, 0), (2, 99), (0, 1), (0, 2)]
    spans = airtimes(sim)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert s2 >= e1 - 1e-12
    # airtime of the first job: 1000 bytes over 8 Mbit/s, starting at 0
    assert spans[0][1] == pytest.approx(0.001)


def test_grant_time_materialization_can_cancel():
    sim = make_sim(2, mode=MODE_CLIQUE)
    got = []
    sim.attach(1, got.append)
    state = {"cancelled": False}

    def kickoff():
        sim.medium.submit(lambda: control(src=0, segment=1))
        # queued while busy; by grant time it has been cancelled
        sim.medium.submit(lambda: None if state["cancelled"] else control(src=0, segment=2))
        sim.medium.submit(lambda: control(src=0, segment=3))
        state["cancelled"] = True

    sim.schedule(0.0, kickoff)
    sim.run()
    assert [m.segment for m in got] == [1, 3]
    assert sim.meter.count_by_kind[ADVERTISEMENT] == 2


def test_star_relay_double_occupation():
    sim = make_sim(3, mode=MODE_STAR, ap=0, capacity_bps=8e6, log_events=True)
    sim.medium.submit(lambda: Message(CODED_DATA, 1, 2, 0, 1000))  # leaf -> leaf
    sim.run()
    assert sim.meter.local_bytes_total == 2000
    assert sim.meter.count_by_kind[CODED_DATA] == 2
    [(s, e)] = airtimes(sim)
    assert e == pytest.approx(0.002) and s == pytest.approx(0.0)

    sim = make_sim(3, mode=MODE_STAR, ap=0, capacity_bps=8e6, log_events=True)
    sim.medium.submit(lambda: Message(CODED_DATA, 1, 0, 0, 1000))  # leaf -> AP
    sim.run()
    assert sim.meter.local_bytes_total == 1000
    [(s, e)] = airtimes(sim)
    assert e == pytest.approx(0.001) and s == pytest.approx(0.0)


def test_overlay_neighbors_by_mode():
    cfg = SimConfig(devices=[DeviceSpec() for _ in range(4)], mode=MODE_STAR, ap=2)
    assert cfg.overlay_neighbors(2) == [0, 1, 3]
    assert cfg.overlay_neighbors(0) == [2]
    cfg = SimConfig(devices=[DeviceSpec() for _ in range(4)], mode=MODE_CLIQUE)
    assert cfg.overlay_neighbors(3) == [0, 1, 2]


def test_background_load_shrinks_capacity():
    sim = make_sim(2, capacity_bps=20e6, background_bps=16e6,
                   log_events=True, mode=MODE_CLIQUE)
    sim.medium.submit(lambda: Message(CODED_DATA, 0, 1, 0, 50_000))
    sim.run()
    [(s, e)] = airtimes(sim)
    assert e == pytest.approx(50_000 * 8 / 4e6) and s == pytest.approx(0.0)


# -------------------------------------------------------------------- modems


def test_modem_transfer_and_queueing():
    spec = DeviceSpec(cellular=RateTrace.constant(550e3))
    sim = make_sim(1, devices=[spec])
    done = []
    for seg in range(3):
        sim.modems[0].download(seg, 68750, lambda s, ok: done.append((sim.now, s, ok)))
    assert sim.run() == "drained"
    assert done == [(1.0, 0, True), (2.0, 1, True), (3.0, 2, True)]
    assert sim.meter.local_bytes_total == 0


def test_modem_failure_surfaces_at_min_completion_timeout():
    spec = DeviceSpec(cellular=RateTrace.constant(550e3),
                      cell_fail_prob=1.0, cell_timeout=3.0)
    sim = make_sim(1, devices=[spec])
    done = []
    sim.modems[0].download(0, 68750, lambda s, ok: done.append((sim.now, ok)))
    sim.run()
    assert done == [(1.0, False)]   # completion earlier than timeout

    sim = make_sim(1, devices=[spec])
    done = []
    sim.modems[0].download(0, 825_000, lambda s, ok: done.append((sim.now, ok)))
    sim.run()
    assert done == [(3.0, False)]   # 12 s transfer dies at the timeout


def test_modem_slow_without_failure_times_out():
    spec = DeviceSpec(cellular=RateTrace.constant(5e3), cell_timeout=3.0)
    sim = make_sim(1, devices=[spec])
    done = []
    sim.modems[0].download(0, 22_500, lambda s, ok: done.append((sim.now, ok)))
    sim.run()
    assert done == [(3.0, False)]


def test_modem_requires_cellular():
    sim = make_sim(1)
    with pytest.raises(RuntimeError, match="no cellular"):
        sim.modems[0].download(0, 100, lambda s, ok: None)


def test_modem_zero_rate_raises():
    spec = DeviceSpec(cellular=RateTrace((0.0,), (0.0,)))
    sim = make_sim(1, devices=[spec])
    with pytest.raises(SimStalled, match="zero") as stall:
        sim.modems[0].download(0, 100, lambda s, ok: None)
    assert stall.value.events is sim.events


# ------------------------------------------------------------ loop guarantees


def test_watchdog_flags_idle_no_progress():
    sim = make_sim(2, idle_window_s=5.0, mode=MODE_CLIQUE, log_events=True)
    sim.stall_reporter = lambda: "segment 7 stuck"

    def tick():
        sim.log("tick", 0)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    with pytest.raises(SimStalled, match="segment 7 stuck") as stall:
        sim.run()
    # the exception carries the run's records up to the stall
    assert stall.value.events is sim.events
    assert [e.event for e in stall.value.events] == ["tick"] * 5


def test_long_transfer_is_not_a_stall():
    spec = DeviceSpec(cellular=RateTrace.constant(5e3))
    sim = make_sim(1, devices=[spec], idle_window_s=5.0)
    done = []
    sim.modems[0].download(0, 22_500, lambda s, ok: done.append((sim.now, ok)))

    def tick():
        if not done:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert done == [(36.0, True)]


def test_run_honors_wall_clock_cap():
    sim = make_sim(1, max_time_s=10.0)

    def tick():
        sim.note_progress()
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    assert sim.run() == "capped"
    assert sim.now <= 10.0


def test_stop_ends_the_run_after_the_running_event():
    # a handler stops the run on a job's last delivery while a second job
    # waits: the air stays held, so that job is never built and draws nothing
    sim = make_sim(2, mode=MODE_CLIQUE, seed=5)
    built = []
    sim.attach(1, lambda msg: sim.stop())

    def second_job():
        built.append(sim.channel.random())   # a build may draw, as a push does
        return control(src=0, dst=1)

    def kickoff():
        sim.medium.submit(lambda: control(src=0, dst=1))
        sim.medium.submit(second_job)

    sim.schedule(0.0, kickoff)
    assert sim.run() == "done"
    assert built == [] and len(sim.medium.queue) == 1
    assert sim.medium.busy and sim.medium.delivered == 1
    ref = np.random.default_rng(5)
    ref.random()                         # device 1's reception draw
    assert sim.rng.bit_generator.state == ref.bit_generator.state

    # the first delivery of a two-message job stops the run: no second one
    sim = make_sim(2, mode=MODE_CLIQUE, log_events=True)
    got = []

    def on_message(msg):
        got.append(msg.segment)
        sim.stop()

    sim.attach(1, on_message)
    sim.schedule(0.0, lambda: sim.medium.submit(
        lambda: [control(src=0, dst=1, segment=0), control(src=0, dst=1, segment=1)]))
    assert sim.run() == "done"
    assert got == [0] and sim.medium.delivered == 1
    assert [e.segment for e in sim.events if e.event == "tx"] == [0]


def test_deterministic_replay():
    def build(seed):
        sim = make_sim(3, loss=0.3, seed=seed, log_events=True, mode=MODE_CLIQUE)
        for d in range(3):
            sim.attach(d, lambda msg: None)

        def kickoff():
            for k in range(30):
                sim.medium.submit(
                    lambda k=k: Message(CODED_DATA, k % 3, (k + 1) % 3, k, 500)
                )

        sim.schedule(0.0, kickoff)
        sim.run()
        return sim

    a, b, c = build(11), build(11), build(12)
    assert a.events == b.events
    assert a.meter.local_bytes_total == b.meter.local_bytes_total
    assert a.events != c.events


def test_meter_additivity():
    sim = make_sim(3, loss=0.2, seed=3, mode=MODE_CLIQUE)
    def kickoff():
        for k in range(10):
            sim.medium.submit(lambda k=k: Message(CODED_DATA, 0, 1, k, 933))
            sim.medium.submit(lambda: control(src=1, dst=2, kind="Have"))
    sim.schedule(0.0, kickoff)
    sim.run()
    assert sum(sim.meter.bytes_by_kind.values()) == sim.meter.local_bytes_total
    assert sim.meter.data_bytes == 9330
    assert sim.meter.control_bytes == 640


def test_config_validation():
    with pytest.raises(ValueError, match="capacity"):
        make_sim(2, capacity_bps=1e6, background_bps=1e6)
    with pytest.raises(ValueError, match="loss"):
        make_sim(2, loss=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="mode"):
        make_sim(2, mode="mesh")
    with pytest.raises(ValueError, match="ap"):
        make_sim(2, mode=MODE_STAR, ap=5)
    with pytest.raises(ValueError, match="kind"):
        Message("Chirp", 0, 1, 0, 64)
