"""Cooperative download protocols over the event simulator.

A group shares one file split into coded generations ("segments").  A
scheduler decides which device pulls each segment over cellular, and a
local dissemination protocol spreads downloaded segments on the shared
medium:

  microcast        adaptive min-backlog assignment + MicroNC-P2, the
                   network-coded pseudo-broadcast protocol (overheard
                   coded packets count)
  bittorrent_pull  swarm-style unicast pulls; plain segments are only
                   useful when fully received from an addressed Piece,
                   so overhearing earns nothing
  r2_push          receipt-triggered pushing of recombinations with
                   brake messages once a receiver decodes
  none             every cellular device downloads the whole file alone

Decoder bookkeeping runs the real GF(256) elimination on coefficient
vectors; the carried payload column is 1 byte wide and always zero,
while all metered sizes use the configured wire packet size (rank
dynamics and byte accounting are exact, video content itself is not
simulated).  A complete decoder therefore recodes without a GF kernel
call on its payload (see rlnc.DecoderState).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .netsim import (
    ADVERTISEMENT,
    BITFIELD,
    BRAKE,
    CODED_DATA,
    CONTROL_BYTES,
    HAVE,
    NOTIFICATION,
    PIECE,
    PIECE_REQUEST,
    REQUEST,
    Message,
    SimConfig,
    Simulator,
)
from .rlnc import DecoderState, GenerationParams, recode

PROTO_MICROCAST = "microcast"
PROTO_BITTORRENT = "bittorrent_pull"
PROTO_R2 = "r2_push"
PROTO_NONE = "none"
PROTOCOLS = (PROTO_MICROCAST, PROTO_BITTORRENT, PROTO_R2, PROTO_NONE)

ASSIGN_ADAPTIVE = "adaptive"
ASSIGN_STATIC = "static"

BACKLOG_LIMIT = 3           # K, assignments in flight per device
ADVERT_PERIOD_S = 0.1
RECOVERY_TIMEOUT_S = 2.0    # recovery tick and control-message retry period
DELTA = 0.03                # R2 redundancy fraction
MAX_SEGMENTS = 2**32        # a segment id travels in the packet header's 32 bits


@dataclass
class ProtocolConfig:
    protocol: str = PROTO_MICROCAST
    file_bytes: int = 9_930_000
    m: int = 25
    n: int = 900
    video_kbps: float = 500.0       # playback clock for request priority
    assignment: str = ASSIGN_ADAPTIVE
    initiator: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.assignment not in (ASSIGN_ADAPTIVE, ASSIGN_STATIC):
            raise ValueError(f"unknown assignment mode {self.assignment!r}")
        if self.file_bytes <= 0:
            raise ValueError("file_bytes must be positive")
        GenerationParams(self.m, self.n)   # refuses m or n no run could take
        if self.n_segments > MAX_SEGMENTS:
            raise ValueError(f"file_bytes={self.file_bytes} makes {self.n_segments} "
                             f"segments; segment ids number at most {MAX_SEGMENTS}")

    @property
    def segment_bytes(self) -> int:
        return self.m * self.n

    @property
    def n_segments(self) -> int:
        return -(-self.file_bytes // self.segment_bytes)

    @property
    def coded_bytes(self) -> int:
        return GenerationParams(self.m, self.n).coded_wire_bytes

    @property
    def piece_bytes(self) -> int:
        return CONTROL_BYTES + self.segment_bytes

    def bitfield_bytes(self) -> int:
        return CONTROL_BYTES + -(-self.n_segments // 8)

    @property
    def cooperative(self) -> bool:
        return self.protocol != PROTO_NONE

    @property
    def push_cap_extra(self) -> int:
        return math.ceil(DELTA * self.m)


@dataclass
class Metrics:
    protocol: str
    completion_s: list
    complete: bool
    duration_s: float
    local_bytes: int
    local_data_bytes: int
    local_control_bytes: int
    bytes_by_kind: dict
    count_by_kind: dict
    avg_rate_bps: float


@dataclass
class RunResult:
    metrics: Metrics
    sim: Simulator
    nodes: list
    scheduler: object
    status: str   # how `Simulator.run` ended: "done", "capped" or "drained"


def _math_params(m: int) -> GenerationParams:
    # 1-byte payload column: same coefficient elimination, tiny state
    return GenerationParams(m, 1)


class MicroDownloadScheduler:
    """MicroDownload's one control plane, the initiator's and the cellular
    devices': min-backlog segment assignment with failure reassignment.

    The initiator assigns a segment, the device downloads it and sends
    feedback, and the initiator acks that.  Between two devices each step
    is a Notification whose payload is the call it makes where it lands;
    the initiator's own steps are scheduled calls.  Assignments and
    feedback are retried until resolved, except the initiator's feedback.
    """

    def __init__(self, sim, proto, nodes, cellular_devices):
        self.sim = sim
        self.proto = proto
        self.device = proto.initiator
        self.nodes = nodes
        self.cellular = list(cellular_devices)
        self.unassigned = deque(range(proto.n_segments))
        self.backlog = {d: 0 for d in self.cellular}
        self.assigned = {}                # segment -> device, awaiting feedback
        self.downloaded_by = {}
        self.failures = 0
        # (device, segment) owned until the ack: blocks retried copies of
        # the current assignment but admits a post-failure reassignment
        # (the ack always lands first, the medium is FIFO)
        self.active = set()
        self.unacked = {}                 # (device, segment) -> success
        # copies in the medium: an assignment's keyed by its segment, so a
        # reassignment waits for a stale copy; a feedback's by (device, segment)
        self._queued = set()

    def start(self) -> None:
        self._fill()

    def _fill(self, reporter: int | None = None) -> None:
        """Hand out segments to the least-loaded devices; ties go to the
        lowest index, except that `reporter`, whose download just failed,
        loses them."""
        while self.unassigned:
            device = min(self.cellular,
                         key=lambda d: (self.backlog[d], d == reporter, d))
            if self.backlog[device] >= BACKLOG_LIMIT:
                return
            self._assign(self.unassigned.popleft(), device)

    def _assign(self, segment: int, device: int) -> None:
        self.assigned[segment] = device
        self.backlog[device] += 1
        self.sim.log("assign", self.device, segment=segment, peer=device)
        self._send_assign(segment, device)

    def _notify(self, key, src: int, dst: int, segment: int,
                live: Callable[[], bool], call: Callable[[], Callable]) -> None:
        """Keep one copy per key in the medium; it is built at grant,
        while live() holds, carrying the call() made then."""
        if key in self._queued:
            return
        self._queued.add(key)

        def build():
            self._queued.discard(key)
            if not live():
                return None   # resolved while waiting for the medium
            return Message(NOTIFICATION, src, dst, segment, CONTROL_BYTES,
                           payload=call())

        self.sim.medium.submit(build)

    def _send_assign(self, segment: int, device: int) -> None:
        if self.assigned.get(segment) != device:
            return   # feedback arrived, stop retrying
        if device == self.device:
            self.sim.schedule(0.0, self.on_assign, device, segment)
        else:
            self._notify(segment, self.device, device, segment,
                         lambda: self.assigned.get(segment) == device,
                         lambda: partial(self.on_assign, device, segment))
        self.sim.schedule(RECOVERY_TIMEOUT_S, self._send_assign, segment, device)

    def on_assign(self, device: int, segment: int) -> None:
        if (device, segment) in self.active:
            return
        self.active.add((device, segment))
        self.sim.modems[device].download(segment, self.proto.segment_bytes,
                                         partial(self._downloaded, device))

    def _downloaded(self, device: int, segment: int, success: bool) -> None:
        self.unacked[(device, segment)] = success
        self._send_feedback(device, segment)
        if success:
            self.nodes[device].on_cellular_segment(segment)

    def _send_feedback(self, device: int, segment: int) -> None:
        key = (device, segment)
        if key not in self.unacked:
            return
        if device == self.device:
            self.sim.schedule(0.0, self.on_feedback, device, segment,
                              self.unacked.pop(key))
            return
        self._notify(key, device, self.device, segment,
                     lambda: key in self.unacked,
                     lambda: partial(self.on_feedback, device, segment,
                                     self.unacked[key]))
        self.sim.schedule(RECOVERY_TIMEOUT_S, self._send_feedback, device, segment)

    def on_feedback(self, device: int, segment: int, success: bool) -> None:
        self._send_ack(device, segment)
        if self.assigned.get(segment) != device:
            return   # duplicate feedback
        del self.assigned[segment]
        self.backlog[device] -= 1
        if success:
            self.downloaded_by[segment] = device
        else:
            self.failures += 1
            # back of the queue; at the tail end every device is idle, and
            # the reporter loses the tie, so another device takes it over
            self.unassigned.append(segment)
        self._fill(None if success else device)

    def _send_ack(self, device: int, segment: int) -> None:
        if device == self.device:
            self.sim.schedule(0.0, self.on_ack, device, segment)
        else:
            msg = Message(NOTIFICATION, self.device, device, segment,
                          CONTROL_BYTES, payload=partial(self.on_ack, device, segment))
            self.sim.medium.submit(lambda: msg)

    def on_ack(self, device: int, segment: int) -> None:
        self.unacked.pop((device, segment), None)
        self.active.discard((device, segment))


class StaticScheduler:
    """A fixed plan queued on the modems at t=0; no messages, no reassignment.

    Under `none` every cellular device downloads the whole file alone, so
    `downloaded_by` names the last device to finish each segment, and a
    failure strands only its own device. Otherwise the cellular devices
    split the file contiguously, so a failed download strands its segment
    for the whole group: the run raises SimStalled at the failure.
    """

    def __init__(self, sim, proto, nodes, cellular_devices):
        self.sim = sim
        self.proto = proto
        self.nodes = nodes
        self.cellular = list(cellular_devices)
        self.downloaded_by = {}
        self.failures = 0

    def plan(self) -> list:
        """(device, segments) pairs in the order they are queued."""
        total = self.proto.n_segments
        if not self.proto.cooperative:
            return [(device, range(total)) for device in self.cellular]
        share = total / len(self.cellular)
        return [(device, range(round(k * share), round((k + 1) * share)))
                for k, device in enumerate(self.cellular)]

    def start(self) -> None:
        for device, segments in self.plan():
            modem = self.sim.modems[device]
            for segment in segments:
                modem.download(segment, self.proto.segment_bytes,
                               lambda s, ok, d=device: self._downloaded(d, s, ok))

    def _downloaded(self, device: int, segment: int, success: bool) -> None:
        if success:
            self.downloaded_by[segment] = device
            self.nodes[device].on_cellular_segment(segment)
            return
        self.failures += 1
        if self.proto.cooperative:
            raise self.sim.stalled(
                f"device {device} failed to download segment {segment}, and "
                f"a static plan never reassigns it")


class BaseNode:
    """What every protocol node shares: decoders, the completion and progress
    clocks, the recovery tick, the serve queue and the neighbour fan-out."""

    # False: on_message drops every message addressed to another device,
    # so the medium need not call receive for those
    overhears = True
    recovers = True   # the subclass's _recover() runs every RECOVERY_TIMEOUT_S

    def __init__(self, sim, device, proto):
        self.sim = sim
        self.device = device
        self.proto = proto
        self.params = _math_params(proto.m)
        self.coded_bytes = proto.coded_bytes  # read once: the property builds params
        self.neighbors = sim.config.overlay_neighbors(device)
        self.decoders: dict = {}
        self.complete: set = set()
        self.completion_time: float | None = None
        self.on_done: Callable[[], None] | None = None  # called once, when done
        self.last_progress = 0.0          # last own segment or innovative rx
        self.pending: dict = {}           # requests _build_serve answers, in ask order
        self.serve_job_queued = False
        if self.recovers:
            sim.schedule(RECOVERY_TIMEOUT_S, self._tick)

    def _tick(self) -> None:
        self._recover()
        self.sim.schedule(RECOVERY_TIMEOUT_S, self._tick)

    def receive(self, msg: Message) -> None:
        """The medium's handler: runs a scheduler Notification's call at its
        addressee and hands every other message to on_message."""
        if msg.kind == NOTIFICATION and msg.payload is not None:
            if msg.dst == self.device:
                msg.payload()
            return
        self.on_message(msg)

    @property
    def done(self) -> bool:
        return len(self.complete) >= self.proto.n_segments

    def rank(self, segment: int) -> int:
        state = self.decoders.get(segment)
        return 0 if state is None else state.rank

    def _mark_complete(self, segment: int) -> None:
        if segment in self.complete:
            return
        self.complete.add(segment)
        if self.done and self.completion_time is None:
            self.completion_time = self.sim.now
            if self.on_done is not None:
                self.on_done()

    def _own_segment(self, segment: int) -> None:
        self.decoders[segment] = DecoderState.full(segment, self.params)
        self.last_progress = self.sim.now
        self._mark_complete(segment)

    def _insert(self, segment: int, packet) -> bool:
        state = self.decoders.get(segment)
        if state is None:
            state = self.decoders[segment] = DecoderState(segment, self.params)
        innovative = state.insert(packet)
        if innovative:
            self.last_progress = self.sim.now
        if state.complete:
            self._mark_complete(segment)
        return innovative

    def _request(self, segment: int, target: int, dims: int = 0,
                 kind: str = REQUEST) -> None:
        msg = Message(kind, self.device, target, segment, CONTROL_BYTES, dims=dims)
        self.sim.medium.submit(lambda: msg)
        self.sim.log("request", self.device, segment=segment, peer=target,
                     dims=dims)

    def _ensure_serve_job(self) -> None:
        if not self.serve_job_queued and self.pending:
            self.serve_job_queued = True
            self.sim.medium.submit(self._build_serve)

    def _tell_neighbors(self, kind: str, segment: int) -> None:
        """One control message of `kind` to every overlay neighbour, one job."""
        msgs = [Message(kind, self.device, d, segment, CONTROL_BYTES)
                for d in self.neighbors]
        if msgs:
            self.sim.medium.submit(lambda: msgs)

    def _rotating_neighbor(self, segment: int) -> int:
        """Round robin: a segment's pick moves on by one every recovery tick."""
        k = segment + int(self.sim.now / RECOVERY_TIMEOUT_S)
        return self.neighbors[k % len(self.neighbors)]

    def _recode_messages(self, segment, count, dst):
        state = self.decoders.get(segment)
        if state is None or state.rank == 0:
            return []
        return self._coded_messages(state, count, dst)

    def _coded_messages(self, state, count, dst):
        """`count` fresh recodes of a held state, addressed to dst."""
        out = []
        for _ in range(count):
            pkt = recode(state, self.sim.rng)
            out.append(Message(CODED_DATA, self.device, dst, state.segment_id,
                               self.coded_bytes, payload=pkt))
        return out

    def missing(self) -> list:
        return [s for s in range(self.proto.n_segments) if s not in self.complete]


class MicroNCP2Node(BaseNode):
    """Network-coded pseudo-broadcast dissemination.

    Freshly downloaded segments are pushed (m coded packets) to one
    random neighbor before being advertised; everyone credits every
    overheard coded packet.  Requests carry missing dimensions, the
    server coalesces simultaneous requests for a segment and answers
    with max(dims) packets plus one notification per requester, each
    carrying the dims served.
    """

    def __init__(self, sim, device, proto):
        super().__init__(sim, device, proto)
        self.advert_pending: list = []
        self.advert_timer_armed = False
        self.source_of: dict = {}         # segment -> device to ask
        self.in_flight: dict = {}         # segment -> request sent time
        self.highest_heard = -1           # largest segment id seen anywhere

    # ---- cellular side

    def on_cellular_segment(self, segment: int) -> None:
        self._own_segment(segment)
        self._note_heard(segment)
        if self.neighbors:
            target = self.neighbors[int(self.sim.rng.integers(len(self.neighbors)))]
            self.sim.medium.submit(
                lambda: self._recode_messages(segment, self.proto.m, target))
            self.sim.log("push", self.device, segment=segment, peer=target,
                         dims=self.proto.m)
        self.advert_pending.append(segment)
        self._arm_advert_timer()

    def _note_heard(self, segment: int) -> None:
        if segment > self.highest_heard:
            self.highest_heard = segment

    # ---- advertisement batching

    def _arm_advert_timer(self) -> None:
        if not self.advert_timer_armed:
            self.advert_timer_armed = True
            self.sim.schedule(ADVERT_PERIOD_S, self._advert_tick)

    def _advert_tick(self) -> None:
        self.advert_timer_armed = False
        if self.advert_pending:
            self.sim.medium.submit(self._build_adverts)
            self._arm_advert_timer()

    def _build_adverts(self):
        msgs = [Message(ADVERTISEMENT, self.device, None, s, CONTROL_BYTES)
                for s in self.advert_pending]
        self.advert_pending.clear()
        return msgs

    # ---- requesting

    def _consider_request(self, segment: int, target: int | None = None) -> None:
        if self.rank(segment) >= self.proto.m or segment in self.in_flight:
            return
        if target is None:
            target = self.source_of.get(segment)
        if target is None:
            return
        self.in_flight[segment] = self.sim.now
        self._request(segment, target, self.proto.m - self.rank(segment))

    def _recover(self) -> None:
        now = self.sim.now
        stale = [s for s, t in self.in_flight.items()
                 if now - t >= RECOVERY_TIMEOUT_S]
        for segment in stale:
            del self.in_flight[segment]
        for segment in self.missing():
            if segment in self.in_flight:
                continue
            probe = None
            if segment not in self.source_of:
                # Never heard of it.  Only segments below the high-water
                # mark are worth probing (their advertisement was plausibly
                # lost); the tail above it has not been downloaded by anyone
                # yet, and probing it every tick would flood the medium.
                if segment > self.highest_heard or not self.neighbors:
                    continue
                # without pinning the guess, so the next tick tries someone else
                probe = self._rotating_neighbor(segment)
            self._consider_request(segment, probe)
        # A segment whose push and advertisement were all lost leaves no
        # trace here.  Once a whole timeout passes without progress, probe
        # the first segment above the high-water mark, one neighbor a tick.
        segment = self.highest_heard + 1
        if (segment < self.proto.n_segments and self.neighbors
                and now - self.last_progress >= RECOVERY_TIMEOUT_S):
            self._consider_request(segment, self._rotating_neighbor(segment))

    # ---- serving

    def _playback_head(self) -> float:
        bps = self.proto.video_kbps * 1e3
        return self.sim.now * bps / 8.0 / self.proto.segment_bytes

    def _build_serve(self):
        self.serve_job_queued = False
        head = self._playback_head()
        while self.pending:
            # ties go to the segment asked for first: min keeps the first
            # of equal keys, and the dict iterates in first-ask order
            segment = min(self.pending, key=lambda s: s - head)
            group = self.pending.pop(segment)
            dims = max(group.values())
            if dims <= 0 or not self.rank(segment):
                continue
            first = next(iter(group))
            msgs = self._recode_messages(segment, dims, first)
            for requester in group:
                msgs.append(Message(NOTIFICATION, self.device, requester,
                                    segment, CONTROL_BYTES, dims=dims))
            self.sim.log("serve", self.device, segment=segment, peer=first,
                         dims=dims)
            self._ensure_serve_job()
            return msgs
        return None

    # ---- message handling

    def on_message(self, msg: Message) -> None:
        if msg.kind == CODED_DATA:
            self._note_heard(msg.segment)
            self.source_of.setdefault(msg.segment, msg.src)
            self._insert(msg.segment, msg.payload)
            if self.rank(msg.segment) >= self.proto.m:
                self.in_flight.pop(msg.segment, None)
            return
        if msg.kind == ADVERTISEMENT:
            if msg.src != self.device:
                self._note_heard(msg.segment)
                self.source_of[msg.segment] = msg.src
                self._consider_request(msg.segment)
            return
        if msg.kind == NOTIFICATION:
            self._note_heard(msg.segment)
            self.source_of[msg.segment] = msg.src
            if msg.dst == self.device:
                self.in_flight.pop(msg.segment, None)
            self._consider_request(msg.segment)
            return
        if msg.kind == REQUEST and msg.dst == self.device:
            # a repeat ask replaces its dims and keeps its place
            self.pending.setdefault(msg.segment, {})[msg.src] = msg.dims
            self._ensure_serve_job()


class BitTorrentPullNode(BaseNode):
    """Unicast swarm: Haves announce, Pieces answer addressed requests.

    Overheard traffic is never credited; a plain segment only counts
    when the full Piece arrives addressed to this device.
    """

    def __init__(self, sim, device, proto):
        super().__init__(sim, device, proto)
        self.peers_have: dict = {d: set() for d in self.neighbors}
        self.in_flight: dict = {}         # segment -> (peer, sent time)
        self.bitfield_queued = False
        self.last_heard = None            # carrier sense: last rx of any kind
        sim.schedule(0.0, self._send_bitfields)

    def on_cellular_segment(self, segment: int) -> None:
        self._own_segment(segment)
        self._tell_neighbors(HAVE, segment)

    def _send_bitfields(self) -> None:
        if self.bitfield_queued or not self.neighbors:
            return
        self.bitfield_queued = True

        def build():
            self.bitfield_queued = False
            return [Message(BITFIELD, self.device, d, None,
                            self.proto.bitfield_bytes(),
                            payload=frozenset(self.complete))
                    for d in self.neighbors]

        self.sim.medium.submit(build)

    def _consider_request(self, segment: int, peer: int) -> None:
        if segment in self.complete or segment in self.in_flight:
            return
        self.in_flight[segment] = (peer, self.sim.now)
        self._request(segment, peer, kind=PIECE_REQUEST)

    def _recover(self) -> None:
        now = self.sim.now
        # Carrier sense: while traffic is still flowing the answer to a
        # pending request may simply be queued behind it, and a blind
        # re-request would buy a duplicate Piece.  The medium is FIFO, so
        # a full quiet window proves everything older has drained.
        quiet = self.last_heard is None or \
            now - self.last_heard >= RECOVERY_TIMEOUT_S
        if quiet:
            for segment, (peer, t) in list(self.in_flight.items()):
                if now - t >= RECOVERY_TIMEOUT_S:
                    del self.in_flight[segment]
                    self._consider_request(segment, peer)
        for segment in self.missing():
            if segment not in self.in_flight:
                for peer, have in self.peers_have.items():
                    if segment in have:
                        self._consider_request(segment, peer)
                        break
        if quiet:
            self._send_bitfields()   # keep-alive, covers lost Haves

    def _build_serve(self):
        self.serve_job_queued = False
        while self.pending:
            requester, segment = next(iter(self.pending))
            del self.pending[(requester, segment)]
            if segment not in self.complete:
                continue
            self._ensure_serve_job()
            self.sim.log("serve", self.device, segment=segment, peer=requester)
            return Message(PIECE, self.device, requester, segment,
                           self.proto.piece_bytes)
        return None

    def on_message(self, msg: Message) -> None:
        self.last_heard = self.sim.now
        if msg.dst != self.device:
            return   # nothing is credited from overhearing
        if msg.kind == HAVE:
            self.peers_have[msg.src].add(msg.segment)
            self._consider_request(msg.segment, msg.src)
        elif msg.kind == BITFIELD:
            self.peers_have[msg.src] |= msg.payload
            for segment in sorted(msg.payload):
                self._consider_request(segment, msg.src)
        elif msg.kind == PIECE_REQUEST:
            key = (msg.src, msg.segment)
            if key not in self.pending:   # server-side dedupe
                self.pending[key] = None
                self._ensure_serve_job()
        elif msg.kind == PIECE:
            self.in_flight.pop(msg.segment, None)
            if msg.segment not in self.complete:
                self._own_segment(msg.segment)
                self._tell_neighbors(HAVE, msg.segment)


class R2PushNode(BaseNode):
    """Receipt-triggered pushing with brakes and a pull-based safety net.

    Every received packet of a segment queues one recombination push to
    each overlay neighbor; a stream stops at rank + ceil(DELTA*m)
    unsolicited pushes or when the neighbor's Brake arrives.  Stalled
    receivers explicitly re-request missing dimensions; those solicited
    packets are tracked separately from the push cap.
    """

    overhears = False

    def __init__(self, sim, device, proto):
        super().__init__(sim, device, proto)
        self.cap_extra = proto.push_cap_extra
        self.pushed: dict = {}            # (segment, neighbor) -> count
        self.braked: set = set()          # (segment, neighbor)
        self.brake_sent: set = set()
        self.last_source: dict = {}
        self.last_rank_change: dict = {}
        self.recovery_tries: dict = {}    # segment -> requests since progress

    def on_cellular_segment(self, segment: int) -> None:
        self._own_segment(segment)
        self._send_brakes(segment)
        # spend the whole redundancy budget up front; the cap gate stops
        # the stream anyway once a brake lands
        for _ in range(self.proto.m + self.cap_extra):
            self._queue_pushes(segment)

    def _send_brakes(self, segment: int) -> None:
        if segment in self.brake_sent:
            return
        self.brake_sent.add(segment)
        self._tell_neighbors(BRAKE, segment)
        self.sim.log("brake_sent", self.device, segment=segment)

    def _queue_pushes(self, segment: int) -> None:
        # a braked neighbor stays braked, and its job would build nothing
        for neighbor in self.neighbors:
            if (segment, neighbor) not in self.braked:
                self.sim.medium.submit(
                    lambda n=neighbor: self._build_push(segment, n))

    def _build_push(self, segment: int, neighbor: int):
        if (segment, neighbor) in self.braked:
            return None
        state = self.decoders.get(segment)
        rank = 0 if state is None else state.rank
        if rank == 0:
            return None
        cap = rank + self.cap_extra
        done = self.pushed.get((segment, neighbor), 0)
        if done >= cap:
            return None
        self.pushed[(segment, neighbor)] = done + 1
        self.sim.log("push", self.device, segment=segment, peer=neighbor,
                     dims=1)
        return self._coded_messages(state, 1, neighbor)

    def _build_solicited(self, segment: int, neighbor: int, dims: int):
        msgs = self._recode_messages(segment, dims, neighbor)
        if msgs:
            self.sim.log("push_solicited", self.device, segment=segment,
                         peer=neighbor, dims=dims)
        return msgs

    def _recover(self) -> None:
        # Pull-based rescue for streams that started but then stalled (all
        # remaining pushes lost).  Segments at rank 0 are left to the push
        # mechanism itself; requesting those blindly would turn every sender
        # into an on-demand server and swamp the medium at startup.
        now = self.sim.now
        for segment in self.missing():
            rank = self.rank(segment)
            if rank == 0:
                continue
            stamp = self.last_rank_change.get(segment)
            if stamp is not None and now - stamp < RECOVERY_TIMEOUT_S:
                continue
            target = self.last_source.get(segment)
            if target is None:
                continue
            # The last source may be stuck in the very same subspace (its
            # recodes then never innovate), so repeated fruitless requests
            # rotate through the other neighbors until someone who holds
            # the missing dimensions is asked.
            tries = self.recovery_tries.get(segment, 0)
            self.recovery_tries[segment] = tries + 1
            if tries > 0 and self.neighbors:
                pool = [target] + [d for d in self.neighbors if d != target]
                target = pool[tries % len(pool)]
            self.last_rank_change[segment] = now
            self._request(segment, target, self.proto.m - rank)
        # Every push of a segment to us lost, its brake too: nothing here
        # names the segment or a holder.  Once a whole timeout passes without
        # progress, ask for the first such segment, one neighbor a tick.
        if self.neighbors and now - self.last_progress >= RECOVERY_TIMEOUT_S:
            for segment in self.missing():
                if segment not in self.last_source:
                    self._request(segment, self._rotating_neighbor(segment),
                                  self.proto.m)
                    break

    def on_message(self, msg: Message) -> None:
        if msg.dst != self.device:
            return   # infrastructure WiFi: no overhearing credit
        if msg.kind == CODED_DATA:
            segment = msg.segment
            self.last_source[segment] = msg.src
            if self._insert(segment, msg.payload):
                self.last_rank_change[segment] = self.sim.now
                self.recovery_tries.pop(segment, None)
            if segment in self.complete:
                self._send_brakes(segment)
            else:
                self._queue_pushes(segment)
        elif msg.kind == BRAKE:
            self.braked.add((msg.segment, msg.src))
        elif msg.kind == REQUEST:
            self.sim.medium.submit(
                lambda: self._build_solicited(msg.segment, msg.src, msg.dims))


class NoCoopNode(BaseNode):
    """Standalone download of the entire file; never touches the medium."""

    recovers = False

    def on_cellular_segment(self, segment: int) -> None:
        self._own_segment(segment)

    def on_message(self, msg: Message) -> None:
        pass


_NODE_CLASSES = {
    PROTO_MICROCAST: MicroNCP2Node,
    PROTO_BITTORRENT: BitTorrentPullNode,
    PROTO_R2: R2PushNode,
    PROTO_NONE: NoCoopNode,
}


def run_protocol(sim_config: SimConfig, proto: ProtocolConfig) -> RunResult:
    """Execute one cooperative download and report its metrics.

    The run is closed (`Simulator.close`) however it ends, so a result,
    or the traceback of a stalled or crashed run, is freed by reference
    counting once its holder drops it.
    """
    n = sim_config.n
    cellular = [d for d in range(n) if sim_config.devices[d].has_cellular]
    if not cellular:
        raise ValueError("at least one device needs a cellular link")
    if proto.initiator not in range(n):
        raise ValueError("initiator must be a group member")
    sim = Simulator(sim_config)
    try:
        return _run(sim, proto, cellular)
    finally:
        sim.close()


def _run(sim: Simulator, proto: ProtocolConfig, cellular: list) -> RunResult:
    n = sim.config.n
    node_cls = _NODE_CLASSES[proto.protocol]
    nodes = [node_cls(sim, d, proto) for d in range(n)]
    if proto.cooperative and proto.assignment == ASSIGN_ADAPTIVE:
        scheduler = MicroDownloadScheduler(sim, proto, nodes, cellular)
    else:
        scheduler = StaticScheduler(sim, proto, nodes, cellular)
    # without cooperation a device with no cellular link never finishes
    targets = nodes if proto.cooperative else [nodes[d] for d in cellular]

    for node in nodes:
        sim.attach(node.device, node.receive)
        # receive drops scheduler traffic addressed to another device too,
        # so a node that ignores overheard traffic needs no call for it
        sim.overhears[node.device] = node_cls.overhears
    sim.schedule(0.0, scheduler.start)

    def report() -> str:
        lines = []
        for node in nodes:
            miss = node.missing()
            if miss:
                shown = ", ".join(str(s) for s in miss[:8])
                more = "..." if len(miss) > 8 else ""
                lines.append(f"device {node.device}: {len(miss)} segments "
                             f"missing ({shown}{more})")
        if getattr(scheduler, "unassigned", None):
            lines.append(f"scheduler: {len(scheduler.unassigned)} unassigned")
        return "\n".join(lines)

    # each target counts itself down once, on the event that finishes it,
    # and the last one stops the run
    unfinished = [len(targets)]

    def target_done() -> None:
        unfinished[0] -= 1
        if not unfinished[0]:
            sim.stop()

    for target in targets:
        target.on_done = target_done
    sim.stall_reporter = report
    status = sim.run()
    return RunResult(compute_metrics(sim, proto, nodes, targets), sim, nodes,
                     scheduler, status)


def compute_metrics(sim: Simulator, proto: ProtocolConfig, nodes,
                    targets) -> Metrics:
    """Metrics of a finished run; it is complete when every target is."""
    completion = [node.completion_time for node in nodes]
    finished = [c for c in completion if c is not None]
    complete = all(t.completion_time is not None for t in targets)
    bits = proto.file_bytes * 8
    rates = [0.0 if c is None else bits / c for c in completion]
    usable = [r for r in rates if r > 0]
    meter = sim.meter
    return Metrics(
        protocol=proto.protocol,
        completion_s=completion,
        complete=complete,
        duration_s=max(finished) if finished else sim.now,
        local_bytes=meter.local_bytes_total,
        local_data_bytes=meter.data_bytes,
        local_control_bytes=meter.control_bytes,
        bytes_by_kind=dict(meter.bytes_by_kind),
        count_by_kind=dict(meter.count_by_kind),
        avg_rate_bps=float(np.mean(usable)) if usable else 0.0,
    )
