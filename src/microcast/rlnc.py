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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import gf256

_HEADER = struct.Struct("<IHH")  # segment_id, m, n
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class GenerationParams:
    """m packets of n bytes; n = 0 is a math-only generation, which only a
    decoder takes (see DecoderState)."""

    m: int = 25  # packets per generation
    n: int = 900  # payload bytes per packet

    def __post_init__(self) -> None:
        if not (1 <= self.m <= 255):
            raise ValueError(f"generation size m={self.m} outside [1, 255]")
        if not (0 <= self.n <= 65535):
            raise ValueError(f"packet size n={self.n} outside [0, 65535]")

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
        if not n:
            raise ValueError("coded packet with n=0: a packet carries a payload")
        if len(buf) != HEADER_BYTES + m + n:
            raise ValueError(
                f"coded packet length {len(buf)} != header + m + n = {HEADER_BYTES + m + n}"
            )
        return cls(seg, np.frombuffer(buf, dtype=np.uint8, offset=HEADER_BYTES).copy(), m)


class Generation:
    """One segment's m plain packets, prepared once for encoding.

    It carries two read-only arrays: `matrix`, the (m, n) payloads over
    the segment's bytes, and `planes`, its `gf256.bit_planes` (8 bytes
    per payload byte, rounded up to whole words), so a coded packet is
    one select-and-XOR of 64-bit words.
    """

    __slots__ = ("segment_id", "params", "matrix", "planes")

    def __init__(self, segment_id: int, data: bytes, params: GenerationParams):
        if not params.n:
            raise ValueError("packet size n=0: a generation to encode needs a payload")
        self.segment_id, self.params = segment_id, params
        self.matrix = np.frombuffer(data, dtype=np.uint8).reshape(params.m, params.n)
        self.matrix.flags.writeable = False
        self.planes = gf256.bit_planes(self.matrix)


def split_segment(segment_id: int, data: bytes, params: GenerationParams) -> Generation:
    """Cut one segment's bytes into its prepared generation of m packets,
    zero-padding the tail.

    The true byte length travels in file metadata, not in the packets.
    """
    if len(data) > params.segment_bytes:
        raise ValueError("segment data longer than m*n")
    return Generation(segment_id, data + bytes(params.segment_bytes - len(data)), params)


def draw_coefficients(m: int, rng: np.random.Generator) -> np.ndarray:
    # all-zero draws are discarded and redrawn; comparing bytes costs a
    # fraction of c.any() on a short vector
    zero = bytes(m)
    while True:
        c = rng.integers(0, 256, m, dtype=np.uint8)
        if c.tobytes() != zero:
            return c


# bytes per refill of a CoefficientStream; a multiple of 4, because PCG64
# hands out uint8 draws four per 32-bit word and drops a call's leftover
# bytes, so blocks of whole words cut the generator's byte stream nowhere
BLOCK = 4096


class CoefficientStream:
    """A Generator's uniform byte stream, handed out one vector at a time.

    It stands in for the Generator in `draw_coefficients` and `recode`:
    `integers(0, 256, k, dtype=np.uint8)` returns the next k bytes of a
    read-only block. A refill is one `rng.integers` call for BLOCK bytes
    (or as many whole blocks as a long vector needs), and the short tail
    of the old block is carried into the new one. So the vectors are the
    generator's uint8 stream cut into consecutive slices, whatever BLOCK
    is, at one `integers` call per block instead of one per vector. Any
    other arguments raise ValueError.
    """

    __slots__ = ("rng", "_block", "_pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._block = np.empty(0, dtype=np.uint8)
        self._pos = 0

    def integers(self, low, high, size, dtype) -> np.ndarray:
        if (low != 0 or high != 256 or dtype is not np.uint8
                or not isinstance(size, (int, np.integer)) or size < 0):
            raise ValueError(
                "a coefficient stream draws only integers(0, 256, k, dtype=np.uint8), "
                f"not ({low!r}, {high!r}, {size!r}, {dtype!r})")
        pos, block = self._pos, self._block
        end = pos + size
        if end > len(block):
            short = end - len(block)
            fresh = self.rng.integers(0, 256, -(-short // BLOCK) * BLOCK, dtype=np.uint8)
            block = self._block = np.concatenate((block[pos:], fresh))
            block.flags.writeable = False
            pos, end = 0, size
        self._pos = end
        return block[pos:end]

    @property
    def state(self) -> tuple:
        """The generator's state and the bytes still buffered: two streams
        with equal states hand out the same vectors from here on."""
        return self.rng.bit_generator.state, self._block[self._pos:].tobytes()


def encode(generation: Generation, rng: np.random.Generator,
           params: GenerationParams) -> CodedPacket:
    """Draw a uniform nonzero coefficient vector and mix the generation."""
    if generation.params != params:
        raise ValueError(f"generation prepared for {generation.params}, not {params}")
    coeff = draw_coefficients(params.m, rng)
    payload = gf256.plane_dot(coeff, generation.planes, params.n)
    return CodedPacket(generation.segment_id, np.concatenate((coeff, payload)), params.m)


class DecoderState:
    """Progressive Gauss-Jordan elimination for one generation, on the
    coefficients alone.

    A packet's coefficient vector tells what it holds (Chou, Wu and
    Jain, "Practical Network Coding", 2003), so the m coefficient
    columns alone decide innovation and the pivots. A partial decoder
    eliminates on [coefficients | T] and keeps the payloads apart:

    - `_raw` holds the innovative packets' payloads as received, slot by
      slot, inside an append-only gather index that nothing XORs
      (`gf256.blank_index(m, n)`);
    - row k of T, m columns wide, records reduced row k as a combination
      of those raw payloads, so its payload would be T[k] · raw.

    Invariant: the first `rank` rows of [coefficients | T] are fully
    reduced. Row `slot` has a 1 in its pivot column `_pivot_cols[slot]`
    and every held row has 0 in every other row's pivot column, so the
    pivot columns `_pivot_cols[:rank]` are distinct; they are the only
    pivot map, and `extract` inverts it. Because of the invariant, an
    insert is three batched row operations on the held rows instead of
    a loop over pivots: one GF(256) dot product eliminates the packet
    against all of them, one gather normalises it, and one outer-product
    gather clears its lead column from them. Each costs O(rank * m)
    byte operations, whatever n is. The held rows live inside their own
    index: `_held` is the low bytes of `_index`, an (m, m + t)
    little-endian uint16 array (t = m, or 0 without a payload) whose
    high byte holds each slot's `slot << 8` from the start. The
    back-substitution XORs its uint8 outer product straight into it, so
    elimination and `recode` never build an index. A partial `recode`
    gathers [w · coefficients | w T] from `_index`, then its payload
    (w T) · raw from `_raw`.

    The insert that completes the decoder solves the payload block once:
    payload k is `gf256.plane_dot(T[k], planes, n)`, with the raw
    payloads' bit planes built once and read m times. A full-rank system
    has one solution, so these are the bytes that eliminating across the
    payload columns would give. The decoder then keeps only `rows`,
    [coefficients | payload] as C-contiguous uint8, and drops T, the raw
    payloads and the index; `full` builds this layout directly. Every
    column is now a pivot column, so the coefficient block is a
    permutation matrix: row `slot` is e_{_pivot_cols[slot]}. `insert`
    returns False straight after its checks, and `recode` scatters its
    weights into the coefficient half of a new row
    (row[_pivot_cols] = w) and combines only the payload columns.

    `rows` is the reduced [coefficients | payload] matrix at every rank,
    zero beyond it. While the rank is partial it is solved from T and the
    raw payloads on each read, which no hot path does.

    n = 0 is for math-only decoders, the simulator's: rank dynamics on
    the coefficients and no payload. T then has no columns and there are
    no raw payloads, so the same code runs with nothing to defer. Prepared
    generations and packets on the wire refuse n = 0.
    """

    def __init__(self, segment_id: int, params: GenerationParams):
        m, n = params.m, params.n
        self.segment_id = segment_id
        self.params = params
        self.rank = 0
        self._pivot_cols = np.zeros(m, dtype=np.intp)  # row slot -> pivot column
        self._index: np.ndarray | None = gf256.blank_index(m, 2 * m if n else m)
        self._held = self._index.view(np.uint8)[:, ::2]  # [coefficients | T]
        self._raw = gf256.blank_index(m, n) if n else None
        self._rows: np.ndarray | None = None  # set at full rank

    def __setstate__(self, state: dict) -> None:
        # copy and pickle rebuild each array apart; a copy's held rows
        # must view its own index again
        self.__dict__.update(state)
        if self._index is not None:
            self._held = self._index.view(np.uint8)[:, ::2]

    @property
    def complete(self) -> bool:
        return self.rank == self.params.m

    @property
    def rows(self) -> np.ndarray:
        """The reduced [coefficients | payload] rows, (m, m + n) uint8,
        zero beyond the rank."""
        if self._rows is not None:
            return self._rows
        m, n, r = self.params.m, self.params.n, self.rank
        rows = np.zeros((m, m + n), dtype=np.uint8)
        rows[:r, :m] = self._held[:r, :m]
        if r and n:
            planes = gf256.bit_planes(self._raw.view(np.uint8)[:r, ::2])
            for k, t in enumerate(self._held[:r, m:m + r]):
                rows[k, m:] = gf256.plane_dot(t, planes, n)
        return rows

    @classmethod
    def full(cls, segment_id: int, params: GenerationParams) -> "DecoderState":
        """The full-rank state [I | 0]: every packet held, every payload zero."""
        m = params.m
        state = cls.__new__(cls)
        state.segment_id, state.params, state.rank = segment_id, params, m
        state._rows = np.eye(m, m + params.n, dtype=np.uint8)
        state._index = state._held = state._raw = None
        state._pivot_cols = np.arange(m, dtype=np.intp)
        return state

    def insert(self, packet: CodedPacket) -> bool:
        """Reduce a packet against held rows; True iff it was innovative.

        The packet's row is read, never written or copied whole: the
        reduction XORs into a new array, and an innovative packet's
        payload is copied into its raw slot.
        """
        m, n = self.params.m, self.params.n
        if packet.segment_id != self.segment_id:
            raise ValueError(
                f"packet for segment {packet.segment_id} fed to decoder of "
                f"segment {self.segment_id}"
            )
        row = packet.row
        if packet.m != m or len(row) != m + n:
            raise ValueError("coded packet shape does not match generation params")
        r = self.rank
        if r == m:
            return False
        held = self._held
        # [coefficients | T] of the packet less its share of the held rows;
        # without a payload that is the row itself, still never written
        if r:
            work = gf256.gf_dot(row.take(self._pivot_cols[:r]), self._index[:r])
            if n:
                work[:m] ^= row[:m]
            else:
                work ^= row
        elif n:
            work = np.zeros(held.shape[1], dtype=np.uint8)
            work[:m] = row[:m]
        else:
            work = row
        # the first nonzero coefficient, by one scan of the coefficient bytes
        tail = work[:m].tobytes().lstrip(b"\0")
        if not tail:
            return False
        lead = m - len(tail)
        if n:
            work[m + r] = 1  # the packet itself is raw payload r
            self._raw.view(np.uint8)[r, ::2] = row[m:]
        work = gf256.scale_row(gf256.INV[tail[0]], work)
        if r:
            # uint8 into uint16: the low bytes change, the offsets stay
            self._index[:r] ^= gf256.scale_rows(held[:r, lead], work)
        held[r] = work
        self._pivot_cols[r] = lead
        self.rank = r + 1
        if r + 1 == m:  # solve the payloads once; keep only the rows
            self._rows = self.rows
            self._index = self._held = self._raw = None
        return True

    def extract(self) -> list[PlainPacket]:
        m = self.params.m
        if not self.complete:
            raise ValueError(
                f"segment {self.segment_id} not decodable yet: rank "
                f"{self.rank} of {m}"
            )
        slots = np.empty(m, dtype=np.intp)  # pivot column -> row slot
        slots[self._pivot_cols] = np.arange(m)
        return [PlainPacket(self.segment_id, k, self._rows[slot, m:].tobytes())
                for k, slot in enumerate(slots.tolist())]


def recode(state: DecoderState, rng: np.random.Generator) -> CodedPacket:
    """Uniform random combination of the rows a device currently holds."""
    m, n, r = state.params.m, state.params.n, state.rank
    if r == 0:
        raise ValueError("cannot recode from a decoder with no packets")
    w = draw_coefficients(r, rng)
    if r == m:  # permutation coefficient block, see DecoderState
        row = np.zeros(m + n, dtype=np.uint8)
        row[state._pivot_cols] = w
        if n:
            row[m:] = gf256.gf_dot(w, state._rows[:, m:])
        return CodedPacket(state.segment_id, row, m)
    row = gf256.gf_dot(w, state._index[:r])  # [w · coefficients | w T]
    if n:  # w T weighs the raw payloads; T's columns past r are zero
        row = np.concatenate((row[:m], gf256.gf_dot(row[m:m + r], state._raw[:r])))
    return CodedPacket(state.segment_id, row, m)


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
    Every m but the largest also gets `*_ratio_next`: the median over
    rounds of its rate over the next larger m's rate in the same round,
    so a slowdown that spans a round cancels out of the ratio.
    """
    # reject bad sizes before drawing: draw_coefficients(0) never returns
    generations = [GenerationParams(m=m, n=n) for m in m_values]
    if not 0 < seconds < float("inf"):
        raise ValueError(f"seconds={seconds} must be positive and finite")
    rng = np.random.default_rng(seed)
    setups = []
    for gen in generations:
        plain = split_segment(
            0, rng.integers(0, 256, (gen.m, gen.n), dtype=np.uint8).tobytes(), gen)
        # pre-draw coded batches so decode timing excludes encoding
        batches = [[encode(plain, rng, gen) for _ in range(gen.m + 8)]
                   for _ in range(24)]
        setups.append((gen, plain, itertools.cycle(batches)))

    budget = seconds / _BENCH_SLICES
    rates = [([], []) for _ in setups]  # generations/s per slice: encode, decode
    for _ in range(_BENCH_SLICES):
        for (params, plain, batches), (enc, dec) in zip(setups, rates):
            def encode_generation():
                for _ in range(params.m):
                    encode(plain, rng, params)

            def decode_generation():
                state = DecoderState(0, params)
                for pkt in next(batches):
                    if state.insert(pkt) and state.complete:
                        break
                state.extract()

            enc.append(_rate(budget, encode_generation))
            dec.append(_rate(budget, decode_generation))
    # (encode, decode) x slice, in Mbps; each m's next larger neighbour
    mbps = [np.array(both) * (params.segment_bytes * 8 / 1e6)
            for (params, _, _), both in zip(setups, rates)]
    by_m = sorted(range(len(setups)), key=lambda i: setups[i][0].m)
    next_m = dict(zip(by_m, by_m[1:]))
    results = []
    for i, (params, _, _) in enumerate(setups):
        row = {"m": params.m}
        for kind, per_slice in zip(("encode", "decode"), mbps[i]):
            q1, q2, q3 = np.percentile(per_slice, (25, 50, 75))
            row[f"{kind}_mbps"] = float(q2)
            row[f"{kind}_q1_mbps"], row[f"{kind}_q3_mbps"] = float(q1), float(q3)
        if i in next_m:
            ratios = np.median(mbps[i] / mbps[next_m[i]], axis=1)
            row["encode_ratio_next"], row["decode_ratio_next"] = ratios.tolist()
        results.append(row)
    return results
