"""Event-driven model of a cooperating device group.

Each device owns an independent cellular downlink described by a
piecewise-constant rate trace; all devices share one local wireless
medium on which only one transmission is in the air at a time.  A local
transmission is addressed to a single destination but every other
device draws an independent reception with its own pair loss, so a
protocol may credit overheard packets or ignore them.

Topology modes:

  clique         true ad-hoc broadcast domain, one occupation per send
  pseudo_adhoc   infrastructure mode where the access point never
                 re-forwards (targets already overheard), so the cost
                 is the same as clique
  star           infrastructure mode with real relaying: a transmission
                 between two non-AP devices is charged a second medium
                 occupation

Jobs submitted to the medium materialize at grant time: the medium
calls the job back when the air is actually free, and the job may
return nothing (it was coalesced away or braked in the meantime).
Each message is one delivery event, and a job's last delivery frees
the air.  A device that does not overhear still draws its reception of
every message, but its handler sees only those addressed to it.
Background load shrinks the usable medium capacity instead of
competing packet by packet.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

CONTROL_BYTES = 64

ADVERTISEMENT = "Advertisement"
REQUEST = "Request"
CODED_DATA = "CodedData"
NOTIFICATION = "Notification"
BITFIELD = "Bitfield"
HAVE = "Have"
PIECE_REQUEST = "PieceRequest"
PIECE = "Piece"
BRAKE = "Brake"
MESSAGE_KINDS = (
    ADVERTISEMENT, REQUEST, CODED_DATA, NOTIFICATION,
    BITFIELD, HAVE, PIECE_REQUEST, PIECE, BRAKE,
)
DATA_KINDS = frozenset({CODED_DATA, PIECE})

MODE_CLIQUE = "clique"
MODE_PSEUDO_ADHOC = "pseudo_adhoc"
MODE_STAR = "star"
MODES = (MODE_CLIQUE, MODE_PSEUDO_ADHOC, MODE_STAR)


class SimStalled(RuntimeError):
    """A run that can no longer finish; Simulator.stalled builds it.

    The message ends with the stall report, when there is one.  `events`
    holds the simulator's log records up to the stall (empty unless the
    run logged events), the evidence of what went wrong.
    """

    def __init__(self, message: str, report: str = "", events: list | None = None):
        super().__init__(message + ("\n" + report if report else ""))
        self.events = [] if events is None else events


@dataclass(frozen=True)
class RateTrace:
    """Piecewise-constant link rate; the last piece holds forever."""

    times: tuple   # seconds, starting at 0, strictly increasing
    rates: tuple   # bits/s

    def __post_init__(self):
        if len(self.times) != len(self.rates) or not self.times:
            raise ValueError("times and rates must be equal-length, nonempty")
        if not all(map(math.isfinite, (*self.times, *self.rates))):
            raise ValueError("trace times and rates must be finite")
        if self.times[0] != 0.0:
            raise ValueError("trace must start at t=0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trace times must be strictly increasing")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be nonnegative")

    @classmethod
    def constant(cls, bps: float) -> "RateTrace":
        return cls((0.0,), (float(bps),))

    @classmethod
    def from_kbps_points(cls, points) -> "RateTrace":
        pts = sorted((float(t), float(k) * 1e3) for t, k in points)
        return cls(tuple(t for t, _ in pts), tuple(r for _, r in pts))

    def seconds_to_send(self, t0: float, nbits: float) -> float:
        """Time to push nbits starting at t0, integrating across pieces."""
        if nbits <= 0:
            return 0.0
        remaining = float(nbits)
        t = t0
        for k in range(len(self.times)):
            if k + 1 < len(self.times) and self.times[k + 1] <= t:
                continue
            rate = self.rates[k]
            if k + 1 < len(self.times):
                span = self.times[k + 1] - max(t, self.times[k])
                if rate > 0 and remaining <= rate * span:
                    return max(t, self.times[k]) + remaining / rate - t0
                remaining -= rate * span
                t = self.times[k + 1]
            else:
                if rate <= 0:
                    return float("inf")
                return max(t, self.times[k]) + remaining / rate - t0
        raise AssertionError("unreachable")


@dataclass(eq=False, slots=True)
class Message:
    kind: str
    src: int
    dst: int | None       # None addresses the whole group (control only)
    segment: int | None
    nbytes: int
    dims: int = 0
    payload: object = None

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.nbytes <= 0:
            raise ValueError("message size must be positive")


@dataclass
class DeviceSpec:
    cellular: RateTrace | None = None
    cell_fail_prob: float = 0.0
    cell_timeout: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.cell_fail_prob <= 1.0:
            raise ValueError("cell_fail_prob outside [0, 1]")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive when set")

    @property
    def has_cellular(self) -> bool:
        return self.cellular is not None


@dataclass
class SimConfig:
    devices: list
    capacity_bps: float = 20e6
    background_bps: float = 0.0
    loss: object = 0.0         # scalar or (n, n) per ordered pair
    mode: str = MODE_PSEUDO_ADHOC
    ap: int | None = None
    seed: int = 0
    idle_window_s: float = 30.0
    max_time_s: float = 3600.0
    log_events: bool = False

    def __post_init__(self):
        n = len(self.devices)
        if n == 0:
            raise ValueError("need at least one device")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.background_bps >= self.capacity_bps:
            raise ValueError("background load must leave usable capacity")
        loss = np.asarray(self.loss, dtype=float)
        if loss.ndim == 0:
            loss = np.full((n, n), float(loss))
        if loss.shape != (n, n):
            raise ValueError(f"loss must be scalar or ({n},{n})")
        if not ((loss >= 0) & (loss <= 1)).all():  # NaN fails too
            raise ValueError("loss outside [0, 1]")
        np.fill_diagonal(loss, 0.0)
        self.loss = loss
        if self.mode in (MODE_PSEUDO_ADHOC, MODE_STAR):
            if self.ap is None:
                self.ap = 0
            if not 0 <= self.ap < n:
                raise ValueError("ap must name a device in the group")
        else:
            self.ap = None

    @property
    def n(self) -> int:
        return len(self.devices)

    @property
    def effective_bps(self) -> float:
        return self.capacity_bps - self.background_bps

    def overlay_neighbors(self, device: int) -> list:
        """Devices a protocol treats as direct peers under this topology."""
        if self.mode == MODE_STAR:
            if device == self.ap:
                return [d for d in range(self.n) if d != device]
            return [self.ap]
        return [d for d in range(self.n) if d != device]


class LogRecord(NamedTuple):
    """One event-log line.

    A local delivery logs one tx record (device = sender, peer = the
    addressee or None) and one rx record per receiving device (peer =
    the sender).  All of them carry the delivery's number as `msg` and
    the message's `dims`, so a reception joins its transmission on `msg`
    (`trace_problems` is that join).
    Protocol intent records (request, serve, push, ...) carry the
    dimensions they commit to in `dims`.
    """

    t: float
    event: str
    device: int
    kind: str | None = None
    segment: int | None = None
    nbytes: int = 0
    peer: int | None = None
    msg: int | None = None
    dims: int = 0


# _new_record(LogRecord, (t, event, ..., dims)) builds a record without the
# NamedTuple's Python-level __new__; callers pass all nine fields in order
_new_record = tuple.__new__


class TrafficMeter:
    """Local-medium byte accounting; one count per transmission."""

    def __init__(self):
        self.bytes_by_kind: dict = {}
        self.count_by_kind: dict = {}

    def record_tx(self, msg: Message, occupations: int) -> None:
        nbytes = msg.nbytes * occupations
        self.bytes_by_kind[msg.kind] = self.bytes_by_kind.get(msg.kind, 0) + nbytes
        self.count_by_kind[msg.kind] = self.count_by_kind.get(msg.kind, 0) + occupations

    @property
    def local_bytes_total(self) -> int:
        return sum(self.bytes_by_kind.values())

    @property
    def data_bytes(self) -> int:
        return sum(v for k, v in self.bytes_by_kind.items() if k in DATA_KINDS)

    @property
    def control_bytes(self) -> int:
        return sum(v for k, v in self.bytes_by_kind.items() if k not in DATA_KINDS)


class CellularModem:
    """FIFO whole-segment downloader for one device.

    Per-segment failure is drawn when service starts and surfaces at
    min(completion, timeout); a download that would outlast the timeout
    fails at the timeout even without a drawn failure.
    """

    def __init__(self, sim: "Simulator", device: int, spec: DeviceSpec):
        self.sim = sim
        self.device = device
        self.spec = spec
        self.queue: deque = deque()
        self.busy = False

    def download(self, segment: int, nbytes: int, on_done: Callable) -> None:
        if not self.spec.has_cellular:
            raise RuntimeError(f"device {self.device} has no cellular link")
        self.queue.append((segment, nbytes, on_done))
        if not self.busy:
            self._serve()

    def _serve(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        segment, nbytes, on_done = self.queue.popleft()
        t0 = self.sim.now
        duration = self.spec.cellular.seconds_to_send(t0, nbytes * 8)
        failed = self.sim.rng.random() < self.spec.cell_fail_prob
        timeout = self.spec.cell_timeout
        if failed:
            finish = duration if timeout is None else min(duration, timeout)
            success = False
        elif timeout is not None and duration > timeout:
            finish, success = timeout, False
        else:
            finish, success = duration, True
        if finish == float("inf"):
            raise self.sim.stalled(
                f"device {self.device} cellular rate is zero forever "
                f"(segment {segment} cannot complete)")
        self.sim.log("cell_start", self.device, segment=segment, nbytes=nbytes)
        self.sim.schedule(finish, self._finish, segment, nbytes, on_done, success)

    def _finish(self, segment, nbytes, on_done, success) -> None:
        self.sim.log("cell_done" if success else "cell_fail",
                     self.device, segment=segment, nbytes=nbytes)
        self.sim.note_progress()
        on_done(segment, success)
        self._serve()


class LocalMedium:
    """The shared channel: grant-time job materialization, FIFO order.

    A job holds the air until its last delivery, which grants the next
    job in the same event, unless it stopped the run: then no job is
    built after the run's last event.  The loss matrix, the usable rate,
    the relaying access point and the log switch are read once.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.queue: deque = deque()
        self.busy = False
        self.delivered = 0               # deliveries so far; numbers the next
        self._rate = sim.config.effective_bps
        # the access point that relays, in star mode only
        self._relay = sim.config.ap if sim.config.mode == MODE_STAR else None
        # the tx and rx records go straight to the log, not through sim.log
        self._log = sim.events.append if sim.config.log_events else None
        # per sender, (receiver, loss) in device order, as Python floats
        self._receivers = [[(d, p) for d, p in enumerate(row) if d != src]
                           for src, row in enumerate(sim.config.loss.tolist())]

    def occupations(self, src: int, dst: int | None) -> int:
        """Medium occupations of one message from src to dst."""
        ap = self._relay
        if ap is not None and src != ap and dst is not None and dst != ap:
            return 2   # relayed through the access point
        return 1

    def submit(self, build: Callable) -> None:
        """Queue a job; build() runs at grant and returns a Message, a list
        of them, or None."""
        self.queue.append(build)
        if not self.busy:
            self._grant()

    def _grant(self) -> None:
        if self.busy:
            return
        # hold the medium across build() calls: a job may submit more jobs
        # while it materializes and those must queue, not re-enter
        self.busy = True
        while self.queue:
            build = self.queue.popleft()
            out = build()
            if not out:
                continue
            msgs = [out] if isinstance(out, Message) else out
            rate = self._rate
            offset = 0.0
            last = len(msgs) - 1
            for k, msg in enumerate(msgs):
                occ = self.occupations(msg.src, msg.dst)
                offset += msg.nbytes * 8 * occ / rate
                self.sim.schedule(offset, self._deliver, msg, occ, k == last)
            return
        self.busy = False

    def _deliver(self, msg: Message, occupations: int, last: bool) -> None:
        sim = self.sim
        msg_id = self.delivered
        self.delivered += 1
        sim.meter.record_tx(msg, occupations)
        now, src, dst = sim.now, msg.src, msg.dst
        log = self._log
        if log:
            kind, segment, nbytes, dims = msg.kind, msg.segment, msg.nbytes, msg.dims
            log(_new_record(LogRecord, (now, "tx", src, kind, segment,
                                        nbytes * occupations, dst, msg_id, dims)))
        handlers, overhears = sim.handlers, sim.overhears
        # one draw per receiver, in order: a handler may draw from the
        # same generator mid-loop (an assignment starts a cellular download)
        draw = sim.rng.random
        for d, loss in self._receivers[src]:
            if draw() < loss:
                continue
            if log:
                log(_new_record(LogRecord, (now, "rx", d, kind, segment,
                                            nbytes, src, msg_id, dims)))
            sim._last_progress = now
            handler = handlers[d]
            if handler is not None and (d == dst or overhears[d]):
                handler(msg)
        # the job's airtime ends here, unless this delivery ended the run
        if last and not sim.stopped:
            self.busy = False
            self._grant()


def _no_log(event, device, kind=None, segment=None, nbytes=0, peer=None,
            msg=None, dims=0) -> None:
    """Simulator.log of a run that keeps no event log."""


class Simulator:
    """Single-threaded event loop; all randomness flows from config.seed."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.now = 0.0
        self.rng = np.random.default_rng(config.seed)
        self._heap: list = []
        self._seq = 0
        self.meter = TrafficMeter()
        self.events: list = []           # the medium binds its append
        self.medium = LocalMedium(self)
        self.modems = [CellularModem(self, d, spec)
                       for d, spec in enumerate(config.devices)]
        self.handlers: list = [None] * config.n
        # False: the device's handler gets only messages addressed to it
        self.overhears: list = [True] * config.n
        if not config.log_events:
            self.log = _no_log
        self._last_progress = 0.0
        self.stall_reporter: Callable | None = None
        self.stopped = False

    def attach(self, device: int, on_message: Callable) -> None:
        self.handlers[device] = on_message

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def log(self, event: str, device: int, kind=None, segment=None,
            nbytes=0, peer=None, msg=None, dims=0) -> None:
        """Append a record; without log_events the instance holds _no_log."""
        self.events.append(_new_record(LogRecord, (self.now, event, device, kind,
                                                   segment, nbytes, peer, msg, dims)))

    def note_progress(self) -> None:
        self._last_progress = self.now

    def stalled(self, message: str) -> SimStalled:
        """The SimStalled to raise: `message`, the stall report and the log."""
        report = self.stall_reporter() if self.stall_reporter else ""
        return SimStalled(message, report, self.events)

    def close(self) -> None:
        """Break the run's reference cycles once it is over.

        Empties the event heap and the job queues, drops the handlers
        and the stall reporter, and unlinks the medium and the modems
        from the simulator, so that reference counting frees the run as
        soon as its last holder lets go.  `events`, `meter`, `config`,
        `now`, `rng` and `medium.delivered` stay readable; a closed
        simulator runs no more events.
        """
        self._heap.clear()
        self.handlers = [None] * self.config.n
        self.stall_reporter = None
        for part in (self.medium, *self.modems):
            part.queue.clear()
            part.sim = None

    def _anything_in_flight(self) -> bool:
        return self.medium.busy or any(m.busy for m in self.modems)

    def stop(self) -> None:
        """End the current run() once the event now running returns."""
        self.stopped = True

    def run(self) -> str:
        """Drain events; returns "done" (an event called stop()),
        "capped" (the next event lies past max_time_s) or "drained".

        Raises SimStalled when nothing is in flight and no delivery or
        download has completed for a whole idle window.
        """
        cfg = self.config
        heap, pop = self._heap, heapq.heappop
        max_time, idle_window = cfg.max_time_s, cfg.idle_window_s
        self.stopped = False
        while heap:
            t, _, fn, args = pop(heap)
            if t > max_time:
                return "capped"
            self.now = t
            if t - self._last_progress > idle_window and not self._anything_in_flight():
                raise self.stalled(f"no progress for {idle_window:.0f}s at t={t:.1f}s")
            fn(*args)
            if self.stopped:
                return "done"
        return "drained"


def trace_problems(sim: Simulator) -> tuple[list, dict]:
    """Join a logged run's receptions to their transmissions on `msg`.

    Returns (problems, addressee).  `problems` names every way the log
    breaks the medium's rules or disagrees with the meter: the tx records
    number the deliveries 0, 1, 2, ... once each, as many as the medium
    made; every rx joins the tx of its `msg` at the same time, kind,
    segment and dims, names that tx's sender as its peer, is not the
    sender's own, and comes at most once per device; the tx bytes and
    the per-kind occupations equal the meter's.  `addressee` maps each
    delivery number to its tx record's peer.
    """
    problems = []
    sent: dict = {}            # msg -> latest tx record carrying it
    addressee: dict = {}
    received: set = set()      # (device, msg)
    occupations: dict = {}
    count = tx_bytes = 0
    occupy = sim.medium.occupations
    for e in sim.events:
        if e.event == "tx":
            if e.msg != count:
                problems.append(f"tx {count} at t={e.t:.6f} carries msg {e.msg}")
            count += 1
            sent[e.msg] = e
            addressee[e.msg] = e.peer
            tx_bytes += e.nbytes
            occupations[e.kind] = (occupations.get(e.kind, 0)
                                   + occupy(e.device, e.peer))
        elif e.event == "rx":
            tx = sent.get(e.msg)
            if tx is None:
                problems.append(f"rx of msg {e.msg} at device {e.device} joins no tx")
                continue
            got = (e.t, e.kind, e.segment, e.dims)
            want = (tx.t, tx.kind, tx.segment, tx.dims)
            if got != want:
                problems.append(f"rx of msg {e.msg} at device {e.device} "
                                f"differs from its tx: {got} vs {want}")
            if not e.peer == tx.device != e.device:
                problems.append(f"rx of msg {e.msg} at device {e.device} names "
                                f"peer {e.peer}, sent by device {tx.device}")
            if (e.device, e.msg) in received:
                problems.append(f"msg {e.msg} received twice at device {e.device}")
            received.add((e.device, e.msg))
    if count != sim.medium.delivered:
        problems.append(f"{count} tx records for {sim.medium.delivered} deliveries")
    meter = sim.meter
    if tx_bytes != meter.local_bytes_total:
        problems.append(f"tx bytes {tx_bytes} != metered {meter.local_bytes_total}")
    if occupations != meter.count_by_kind:
        problems.append(f"tx occupations {occupations} != metered "
                        f"{meter.count_by_kind}")
    return problems, addressee
