"""Generation-based random linear network codec.

A segment of a file is one generation: m packets of n bytes. Coded
packets carry the m mixing coefficients next to the payload, receivers
run progressive Gaussian elimination, and any device holding part of a
generation can recode fresh combinations for its neighbors without
decoding first.
"""

from __future__ import annotations

import itertools
import struct
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gf256

_HEADER = struct.Struct("<IHH")  # segment_id, m, n
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class GenerationParams:
    m: int = 25  # packets per generation
    n: int = 900  # payload bytes per packet

    def __post_init__(self) -> None:
        if not (1 <= self.m <= 255):
            raise ValueError(f"generation size m={self.m} outside [1, 255]")
        if not (1 <= self.n <= 65535):
            raise ValueError(f"packet size n={self.n} outside [1, 65535]")

    @property
    def segment_bytes(self) -> int:
        return self.m * self.n

    @property
    def coded_wire_bytes(self) -> int:
        return HEADER_BYTES + self.m + self.n


@dataclass(frozen=True)
class PlainPacket:
    segment_id: int
    index: int
    payload: bytes


@dataclass(slots=True)
class CodedPacket:
    """One coded packet as the row a decoder works on: [coefficients | payload].

    The encoding vector travels in the packet header, so a received
    packet is already a row of the decoding matrix. Decoders read `row`
    and never write to it: an overheard packet reaches several of them.
    """

    segment_id: int
    row: np.ndarray  # (m + n,) uint8
    m: int

    @property
    def coefficients(self) -> np.ndarray:
        return self.row[: self.m]

    @property
    def payload(self) -> np.ndarray:
        return self.row[self.m :]

    def to_bytes(self) -> bytes:
        return (_HEADER.pack(self.segment_id, self.m, len(self.row) - self.m)
                + self.row.tobytes())

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CodedPacket":
        if len(buf) < HEADER_BYTES:
            raise ValueError("coded packet shorter than its fixed header")
        seg, m, n = _HEADER.unpack_from(buf)
        if len(buf) != HEADER_BYTES + m + n:
            raise ValueError(
                f"coded packet length {len(buf)} != header + m + n = {HEADER_BYTES + m + n}"
            )
        return cls(seg, np.frombuffer(buf, dtype=np.uint8, offset=HEADER_BYTES).copy(), m)


def split_segment(segment_id: int, data: bytes, params: GenerationParams) -> list[PlainPacket]:
    """Cut one segment's bytes into m plain packets, zero-padding the tail.

    The true byte length travels in file metadata, not in the packets.
    """
    if len(data) > params.segment_bytes:
        raise ValueError("segment data longer than m*n")
    padded = data + b"\x00" * (params.segment_bytes - len(data))
    return [
        PlainPacket(segment_id, k, padded[k * params.n : (k + 1) * params.n])
        for k in range(params.m)
    ]


def _payload_matrix(generation: Sequence[PlainPacket], params: GenerationParams) -> np.ndarray:
    """The generation's payloads as a read-only (m, n) matrix, row k = index k."""
    if len(generation) != params.m:
        raise ValueError(
            f"generation incomplete: {len(generation)} packets, expected {params.m}"
        )
    seg = generation[0].segment_id
    payloads: list = [None] * params.m
    for pkt in generation:
        if pkt.segment_id != seg:
            raise ValueError("generation mixes packets from different segments")
        if not (0 <= pkt.index < params.m) or payloads[pkt.index] is not None:
            raise ValueError(f"bad or duplicate packet index {pkt.index}")
        if len(pkt.payload) != params.n:
            raise ValueError(f"payload of packet {pkt.index} is not n={params.n} bytes")
        payloads[pkt.index] = pkt.payload
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(params.m, params.n)


def draw_coefficients(m: int, rng: np.random.Generator) -> np.ndarray:
    # all-zero draws are discarded and redrawn; comparing bytes costs a
    # fraction of c.any() on a short vector
    zero = bytes(m)
    while True:
        c = rng.integers(0, 256, m, dtype=np.uint8)
        if c.tobytes() != zero:
            return c


def encode_matrix(
    segment_id: int, matrix: np.ndarray, rng: np.random.Generator
) -> CodedPacket:
    m = matrix.shape[0]
    coeff = draw_coefficients(m, rng)
    return CodedPacket(segment_id,
                       np.concatenate((coeff, gf256.gf_dot(coeff, matrix))), m)


def encode(generation: Sequence[PlainPacket], rng: np.random.Generator,
           params: GenerationParams) -> CodedPacket:
    """Draw a uniform nonzero coefficient vector and mix the generation."""
    matrix = _payload_matrix(generation, params)
    return encode_matrix(generation[0].segment_id, matrix, rng)


class DecoderState:
    """Progressive Gauss-Jordan elimination for one generation.

    Invariant: the first `rank` rows ([coefficients | payload]) are fully
    reduced. Row `slot` has a 1 in its pivot column `_pivot_cols[slot]`
    and every held row has 0 in every other row's pivot column;
    `pivots` maps each pivot column back to its slot. Because of it, an
    insert is three batched row operations on the held rows instead of
    a loop over pivots: one GF(256) dot product eliminates the packet
    against all of them, one gather normalises it, and one outer-product
    gather clears its lead column from them. Each costs O(rank * (m + n))
    byte operations, so an insert is O(m(m + n)) and extraction is a
    read-off.

    At full rank every column is a pivot column, so the coefficient
    block is a permutation matrix: row `slot` is e_{_pivot_cols[slot]}.
    That allows two shortcuts. `insert` returns False straight after its
    checks, since nothing is innovative any more, and `recode` scatters
    its weights into the coefficient half of a new row
    (row[_pivot_cols] = w) and combines only the payload columns.

    A full-rank state never changes again, so when it is reached (in
    `insert`, `full` or `from_plain`) the state records once whether
    its payload block rows[:, m:] is all zero. Any combination of zero
    rows is zero, so `recode` from such a state returns a zero payload
    without a GF kernel call. The simulator's decoders carry a zero
    payload column, which makes this the common case there.
    """

    def __init__(self, segment_id: int, params: GenerationParams):
        self.segment_id = segment_id
        self.params = params
        self.rows = np.zeros((params.m, params.m + params.n), dtype=np.uint8)
        self.pivots: dict[int, int] = {}  # pivot column -> row slot
        self._pivot_cols = np.zeros(params.m, dtype=np.intp)  # row slot -> pivot column
        self._zero_payload = False  # set at full rank: rows[:, m:] is all zero

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def complete(self) -> bool:
        return len(self.pivots) == self.params.m

    @classmethod
    def full(cls, segment_id: int, params: GenerationParams) -> "DecoderState":
        """The full-rank state [I | 0]: every packet held, every payload zero."""
        m = params.m
        state = cls(segment_id, params)
        np.fill_diagonal(state.rows, 1)
        state.pivots = {k: k for k in range(m)}
        state._pivot_cols[:] = np.arange(m)
        state._zero_payload = True
        return state

    @classmethod
    def from_plain(cls, generation: Sequence[PlainPacket],
                   params: GenerationParams) -> "DecoderState":
        """Seed a full-rank state from the original packets.

        Rows are [e_k | payload_k]; recoding from this state draws the
        same distribution as encoding the generation afresh.
        """
        state = cls.full(generation[0].segment_id, params)
        payload = _payload_matrix(generation, params)
        state.rows[:, params.m:] = payload
        state._zero_payload = not payload.any()
        return state

    def insert(self, packet: CodedPacket) -> bool:
        """Reduce a packet against held rows; True iff it was innovative.

        The packet's row is read, never written: the reduction XORs into
        a new array.
        """
        m, n = self.params.m, self.params.n
        if packet.segment_id != self.segment_id:
            raise ValueError(
                f"packet for segment {packet.segment_id} fed to decoder of "
                f"segment {self.segment_id}"
            )
        work = packet.row
        if packet.m != m or len(work) != m + n:
            raise ValueError("coded packet shape does not match generation params")
        r = len(self.pivots)
        if r == m:
            return False
        held = self.rows[:r]
        if r:
            work = work ^ gf256.gf_dot(work.take(self._pivot_cols[:r]), held)
        # the first nonzero coefficient, by one scan of the coefficient bytes
        tail = work[:m].tobytes().lstrip(b"\0")
        if not tail:
            return False
        lead = m - len(tail)
        work = gf256.scale_row(gf256.INV[tail[0]], work)
        if r:
            held ^= gf256.scale_rows(held[:, lead], work)
        self.rows[r] = work
        self.pivots[lead] = r
        self._pivot_cols[r] = lead
        if r + 1 == m:
            self._zero_payload = not self.rows[:, m:].any()
        return True

    def extract(self) -> list[PlainPacket]:
        m, n = self.params.m, self.params.n
        if not self.complete:
            raise ValueError(
                f"segment {self.segment_id} not decodable yet: rank "
                f"{self.rank} of {m}"
            )
        out = []
        for k in range(m):
            row = self.rows[self.pivots[k]]
            out.append(PlainPacket(self.segment_id, k, row[m:].tobytes()))
        return out


def recode(state: DecoderState, rng: np.random.Generator) -> CodedPacket:
    """Uniform random combination of the rows a device currently holds."""
    m, r = state.params.m, len(state.pivots)
    if r == 0:
        raise ValueError("cannot recode from a decoder with no packets")
    w = draw_coefficients(r, rng)
    if r == m:  # permutation coefficient block, see DecoderState
        row = np.zeros(m + state.params.n, dtype=np.uint8)
        row[state._pivot_cols] = w
        if not state._zero_payload:
            row[m:] = gf256.gf_dot(w, state.rows[:, m:])
        return CodedPacket(state.segment_id, row, m)
    return CodedPacket(state.segment_id, gf256.gf_dot(w, state.rows[:r]), m)


# slices per phase. The m values take turns slice by slice, so a swing in
# host speed lasting seconds lands on every m alike, and the median slice
# ignores a burst of contention that slows a few of them.
_BENCH_SLICES = 10


def _rate(budget: float, step) -> float:
    """Calls of step() per second, calling it for budget seconds."""
    count = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        step()
        count += 1
    return count / (time.perf_counter() - t0)


def bench(m_values: Iterable[int], n: int, seconds: float,
          seed: int = 0) -> list[dict]:
    """Encode/decode throughput per generation size, payload megabits per second.

    Each m gets `seconds` of encoding and `seconds` of decoding, cut into
    _BENCH_SLICES slices that alternate across the m values; a rate is
    the median over its slices, and `*_q1_mbps`/`*_q3_mbps` are the
    slices' quartiles, which show how far host contention spread them.
    """
    # reject bad sizes before drawing: draw_coefficients(0) never returns
    generations = [GenerationParams(m=m, n=n) for m in m_values]
    if not 0 < seconds < float("inf"):
        raise ValueError(f"seconds={seconds} must be positive and finite")
    rng = np.random.default_rng(seed)
    setups = []
    for gen in generations:
        matrix = rng.integers(0, 256, (gen.m, gen.n), dtype=np.uint8)
        # pre-draw coded batches so decode timing excludes encoding
        batches = [[encode_matrix(0, matrix, rng) for _ in range(gen.m + 8)]
                   for _ in range(24)]
        setups.append((gen, matrix, itertools.cycle(batches)))

    budget = seconds / _BENCH_SLICES
    rates = [([], []) for _ in setups]  # generations/s per slice: encode, decode
    for _ in range(_BENCH_SLICES):
        for (params, matrix, batches), (enc, dec) in zip(setups, rates):
            def encode_generation():
                for _ in range(params.m):
                    encode_matrix(0, matrix, rng)

            def decode_generation():
                state = DecoderState(0, params)
                for pkt in next(batches):
                    if state.insert(pkt) and state.complete:
                        break
                state.extract()

            enc.append(_rate(budget, encode_generation))
            dec.append(_rate(budget, decode_generation))
    results = []
    for (params, _, _), (enc, dec) in zip(setups, rates):
        mbps = params.segment_bytes * 8 / 1e6
        row = {"m": params.m,
               "encode_mbps": float(np.median(enc)) * mbps,
               "decode_mbps": float(np.median(dec)) * mbps}
        for kind, per_slice in (("encode", enc), ("decode", dec)):
            q1, q3 = np.percentile(per_slice, (25, 75))
            row[f"{kind}_q1_mbps"], row[f"{kind}_q3_mbps"] = float(q1) * mbps, float(q3) * mbps
        results.append(row)
    return results
