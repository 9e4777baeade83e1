"""Codec behavior pinned by a brute-force rank oracle.

rank_ref() below re-runs Gaussian elimination from scratch over the
whole receive history on every call. It shares only the (separately
verified) product and inverse tables with the production decoder.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcast import gf256, rlnc
from microcast.rlnc import (
    CodedPacket,
    DecoderState,
    GenerationParams,
    encode,
    recode,
    split_segment,
)


def rank_ref(vectors) -> int:
    # fresh textbook elimination, no pivot bookkeeping shared with the codec
    rows = [list(int(x) for x in v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = int(gf256.INV[rows[rank][col]])
        rows[rank] = [int(gf256.MUL[inv, x]) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x ^ int(gf256.MUL[c, y]) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def make_generation(rng, params, segment_id=0):
    data = rng.integers(0, 256, params.segment_bytes, dtype=np.uint8).tobytes()
    return split_segment(segment_id, data, params), data


def test_roundtrip_byte_exact():
    rng = np.random.default_rng(1)
    for m, n in [(1, 4), (3, 7), (8, 32), (25, 60)]:
        params = GenerationParams(m=m, n=n)
        gen, data = make_generation(rng, params)
        state = DecoderState(0, params)
        while not state.complete:
            state.insert(encode(gen, rng, params))
        out = state.extract()
        assert b"".join(p.payload for p in out) == data
        assert [p.index for p in out] == list(range(m))


def test_insert_flag_matches_rank_oracle():
    rng = np.random.default_rng(2)
    params = GenerationParams(m=6, n=10)
    gen, _ = make_generation(rng, params)
    for _ in range(20):
        state = DecoderState(0, params)
        history = []
        seen = []
        while not state.complete or len(history) < params.m + 4:
            kind = rng.integers(0, 3)
            if kind == 2 and seen:
                pkt = seen[int(rng.integers(0, len(seen)))]  # exact duplicate
            elif kind == 1 and state.rank > 0:
                pkt = recode(state, rng)
            else:
                pkt = encode(gen, rng, params)
            seen.append(pkt)
            before = rank_ref(history)
            history.append(pkt.coefficients)
            innovative = state.insert(pkt)
            assert innovative == (rank_ref(history) > before)
            assert state.rank == rank_ref(history)


def test_duplicate_never_innovative():
    rng = np.random.default_rng(3)
    params = GenerationParams(m=4, n=8)
    gen, _ = make_generation(rng, params)
    state = DecoderState(0, params)
    pkt = encode(gen, rng, params)
    assert state.insert(pkt) is True
    assert state.insert(pkt) is False
    assert state.rank == 1


def test_recode_stays_in_span():
    rng = np.random.default_rng(4)
    params = GenerationParams(m=4, n=6)
    gen, _ = make_generation(rng, params)
    state = DecoderState(0, params)
    received = []
    while state.rank < 2:
        pkt = encode(gen, rng, params)
        received.append(pkt.coefficients)
        state.insert(pkt)
    base = rank_ref(received)
    for _ in range(40):
        extra = recode(state, rng)
        assert rank_ref(received + [extra.coefficients]) == base
        assert extra.coefficients.any()


class _ZeroFirstRng:
    """integers() yields an all-zero vector once, then defers to a real rng."""

    def __init__(self):
        self.calls = 0
        self.inner = np.random.default_rng(9)

    def integers(self, lo, hi, size, dtype):
        self.calls += 1
        if self.calls == 1:
            return np.zeros(size, dtype=dtype)
        return self.inner.integers(lo, hi, size, dtype=dtype)


def test_all_zero_coefficient_draw_is_redrawn():
    rng = _ZeroFirstRng()
    coeffs = rlnc.draw_coefficients(5, rng)
    assert rng.calls == 2
    assert coeffs.any()


def test_recode_from_partial_and_empty():
    rng = np.random.default_rng(5)
    params = GenerationParams(m=4, n=6)
    state = DecoderState(0, params)
    with pytest.raises(ValueError):
        recode(state, rng)
    gen, _ = make_generation(rng, params)
    state.insert(encode(gen, rng, params))
    pkt = recode(state, rng)
    assert len(pkt.coefficients) == 4 and len(pkt.payload) == 6


def test_segment_mismatch_rejected():
    rng = np.random.default_rng(6)
    params = GenerationParams(m=3, n=5)
    gen, _ = make_generation(rng, params, segment_id=1)
    state = DecoderState(0, params)
    with pytest.raises(ValueError, match="segment"):
        state.insert(encode(gen, rng, params))


def test_extract_before_complete_rejected():
    rng = np.random.default_rng(7)
    params = GenerationParams(m=3, n=5)
    gen, _ = make_generation(rng, params)
    state = DecoderState(0, params)
    state.insert(encode(gen, rng, params))
    with pytest.raises(ValueError, match="rank"):
        state.extract()


def test_generation_of_other_params_rejected():
    rng = np.random.default_rng(8)
    params = GenerationParams(m=4, n=5)
    gen, _ = make_generation(rng, params)
    drawn = copy.deepcopy(rng.bit_generator.state)
    for other in (GenerationParams(m=4, n=6), GenerationParams(m=3, n=5),
                  GenerationParams(m=5, n=4)):
        with pytest.raises(ValueError, match="generation prepared for"):
            encode(gen, rng, other)
    # the check comes before any draw
    assert rng.bit_generator.state == drawn


def test_from_plain_equals_decoded_state():
    # a full-rank state with a payload is what m inserts of the plain
    # packets reach; its recodes decode elsewhere
    rng = np.random.default_rng(10)
    params = GenerationParams(m=5, n=9)
    gen, data = make_generation(rng, params)
    state = _decode_with_pivots(range(params.m), rng, gen.matrix, params)
    assert state.complete and not state._zero_payload
    out = state.extract()
    assert b"".join(p.payload for p in out) == data
    # recoded packets from the seeded state decode elsewhere
    other = DecoderState(0, params)
    while not other.complete:
        other.insert(recode(state, rng))
    assert b"".join(p.payload for p in other.extract()) == data


@pytest.mark.parametrize("m, n", [(1, 1), (4, 1), (5, 9), (25, 1)])
def test_full_equals_from_plain_of_zero_packets(m, n):
    # `full` builds the state that m inserts of all-zero plain packets reach
    params = GenerationParams(m=m, n=n)
    full = DecoderState.full(0, params)
    ref = _decode_with_pivots(range(m), np.random.default_rng(m * n),
                              split_segment(0, b"", params).matrix, params)
    assert full.segment_id == ref.segment_id and full.params == ref.params
    assert np.array_equal(full.rows, ref.rows) and full.rows.dtype == ref.rows.dtype
    assert full.rows.flags.c_contiguous and ref.rows.flags.c_contiguous
    assert full._index is ref._index is None
    assert full.rank == ref.rank == m and type(full.rank) is int
    assert np.array_equal(full._pivot_cols, np.arange(m))
    assert np.array_equal(full._pivot_cols, ref._pivot_cols)
    assert full._pivot_cols.dtype == ref._pivot_cols.dtype
    assert full._zero_payload is ref._zero_payload is True


def test_wire_format_frozen_example():
    pkt = CodedPacket(7, np.array([1, 2, 9, 8, 7], dtype=np.uint8), 2)
    buf = pkt.to_bytes()
    assert buf == bytes([7, 0, 0, 0, 2, 0, 3, 0, 1, 2, 9, 8, 7])
    back = CodedPacket.from_bytes(buf)
    assert back.segment_id == 7
    assert np.array_equal(back.coefficients, pkt.coefficients)
    assert np.array_equal(back.payload, pkt.payload)


def test_wire_format_roundtrip_and_size():
    rng = np.random.default_rng(11)
    params = GenerationParams(m=25, n=900)
    gen, _ = make_generation(rng, params, segment_id=41)
    pkt = encode(gen, rng, params)
    buf = pkt.to_bytes()
    assert len(buf) == params.coded_wire_bytes == 8 + 25 + 900
    back = CodedPacket.from_bytes(buf)
    assert back.segment_id == 41
    assert np.array_equal(back.coefficients, pkt.coefficients)
    assert np.array_equal(back.payload, pkt.payload)


def _wire_packets(rng, params):
    """A packet from encode, a partial recode, and full-rank recodes with a
    zero and with a random payload."""
    gen, _ = make_generation(rng, params, segment_id=5)
    partial = DecoderState(5, params)
    partial.insert(encode(gen, rng, params))
    zero = DecoderState.full(5, params)
    return [encode(gen, rng, params), recode(partial, rng), recode(zero, rng),
            recode(_decode_with_pivots(range(params.m), rng, gen.matrix, params, 5), rng)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_wire_round_trip_keeps_the_row(m, n, seed):
    params = GenerationParams(m=m, n=n)
    for pkt in _wire_packets(np.random.default_rng(seed), params):
        assert pkt.row.dtype == np.uint8 and pkt.row.shape == (m + n,)
        buf = pkt.to_bytes()
        assert len(buf) == params.coded_wire_bytes
        back = CodedPacket.from_bytes(buf)
        assert (back.segment_id, back.m) == (pkt.segment_id, pkt.m) == (5, m)
        assert back.row.tobytes() == pkt.row.tobytes()


def _same_state(a, b):
    return (np.array_equal(a.rows, b.rows) and a.rank == b.rank
            and np.array_equal(a._pivot_cols, b._pivot_cols)
            and a._zero_payload is b._zero_payload)


def test_one_packet_reaches_three_decoders_unchanged():
    # under overhearing one packet object is inserted at several devices;
    # each must reduce it as it would a private copy and leave it unchanged
    rng = np.random.default_rng(12)
    params = GenerationParams(m=6, n=9)
    gen, _ = make_generation(rng, params)
    held = [encode(gen, rng, params) for _ in range(params.m)]
    for _ in range(20):
        decoders, twins = [], []
        for rank in (0, 3, 5):
            pair = DecoderState(0, params), DecoderState(0, params)
            for pkt in held:
                if pair[0].rank == rank:
                    break
                for state in pair:
                    state.insert(pkt)
            decoders.append(pair[0])
            twins.append(pair[1])
        pkt = encode(gen, rng, params)
        before = pkt.row.tobytes()
        for state, twin in zip(decoders, twins):
            private = CodedPacket(pkt.segment_id, pkt.row.copy(), pkt.m)
            assert state.insert(pkt) == twin.insert(private)
            assert pkt.row.tobytes() == before
            assert _same_state(state, twin)


def test_wire_format_rejects_bad_lengths():
    pkt = CodedPacket(1, np.array([1, 2, 3], dtype=np.uint8), 1)
    buf = pkt.to_bytes()
    with pytest.raises(ValueError):
        CodedPacket.from_bytes(buf[:-1])
    with pytest.raises(ValueError):
        CodedPacket.from_bytes(buf + b"\x00")
    with pytest.raises(ValueError):
        CodedPacket.from_bytes(buf[:4])


def encode_matrix_ref(segment_id, matrix, rng):
    # the reference: draw, then combine the raw payload matrix
    coeff = rlnc.draw_coefficients(matrix.shape[0], rng)
    return CodedPacket(segment_id, np.concatenate((coeff, gf256.gf_dot(coeff, matrix))),
                       matrix.shape[0])


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "zero", "one"]))
def test_prepared_generation_encodes_like_the_raw_matrix(m, n, seed, kind):
    rng = np.random.default_rng(seed)
    params = GenerationParams(m=m, n=n)
    data = _payload_data(kind, rng, params)
    gen = split_segment(4, data, params)
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(m, n)
    assert np.array_equal(gen.matrix, matrix)
    assert not gen.matrix.flags.writeable and not gen.planes.flags.writeable
    assert gen.planes.dtype == np.uint64 and gen.planes.shape == (8 * m, -(-n // 8))
    ref_rng = copy.deepcopy(rng)
    for _ in range(3):
        pkt = encode(gen, rng, params)
        ref = encode_matrix_ref(4, matrix, ref_rng)
        assert pkt.segment_id == 4 and pkt.m == m
        assert pkt.row.dtype == np.uint8 and pkt.row.tobytes() == ref.row.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_split_segment_pads_tail():
    params = GenerationParams(m=3, n=4)
    gen = split_segment(2, b"\x01\x02\x03\x04\x05", params)
    assert gen.segment_id == 2 and gen.params == params
    assert gen.matrix.tolist() == [[1, 2, 3, 4], [5, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError):
        split_segment(0, b"x" * 13, params)


def test_decode_cost_scales_with_generation():
    # one insert touches O(m) rows; a full decode is O(m^2) row ops.
    # smoke-check the progressive decoder stays reduced along the way.
    rng = np.random.default_rng(12)
    params = GenerationParams(m=8, n=16)
    gen, _ = make_generation(rng, params)
    state = DecoderState(0, params)
    while not state.complete:
        state.insert(encode(gen, rng, params))
        live = state.rows[: state.rank]
        cols = state._pivot_cols[: state.rank].tolist()
        assert len(set(cols)) == len(cols)
        for slot, col in enumerate(cols):
            assert live[slot][col] == 1
            others = [s for s in range(state.rank) if s != slot]
            assert all(live[s][col] == 0 for s in others)


def assert_fully_reduced(state):
    live = state.rows[: state.rank]
    cols = state._pivot_cols[: state.rank].tolist()
    assert len(set(cols)) == len(cols) and all(0 <= c < state.params.m for c in cols)
    for slot, col in enumerate(cols):
        expect = np.zeros(state.rank, dtype=np.uint8)
        expect[slot] = 1
        assert np.array_equal(live[:, col], expect), (col, slot)
    assert not state.rows[state.rank:].any()


OPS = st.lists(st.sampled_from(["encode", "relay", "self", "duplicate", "erase"]),
               max_size=30)


def run_op_mix(ops, state, gen, rng, params, deliver):
    # fresh encodes, recodes from a part-rank relay (often redundant),
    # recodes of the receiver's own rows (never innovative), exact
    # duplicates and erasures (drawn, then lost) in any order; then
    # fresh encodes until complete
    relay = DecoderState(0, params)
    for _ in range(max(1, params.m // 2)):
        relay.insert(encode(gen, rng, params))
    sent = []

    def send(pkt):
        sent.append(pkt)
        deliver(pkt)

    for op in ops:
        if op == "duplicate" and sent:
            send(sent[int(rng.integers(0, len(sent)))])
        elif op == "self" and state.rank:
            send(recode(state, rng))
        elif op == "relay":
            send(recode(relay, rng))
        else:
            pkt = encode(gen, rng, params)
            if op != "erase":
                send(pkt)
    while not state.complete:
        send(encode(gen, rng, params))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 10), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       ops=OPS)
def test_insert_matches_rank_oracle_property(m, n, seed, ops):
    rng = np.random.default_rng(seed)
    params = GenerationParams(m=m, n=n)
    gen, data = make_generation(rng, params)
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(m, n)
    state = DecoderState(0, params)
    history = []

    def deliver(pkt):
        before = rank_ref(history)
        history.append(pkt.coefficients)
        assert state.insert(pkt) == (rank_ref(history) > before)
        assert state.rank == rank_ref(history)
        assert_fully_reduced(state)
        for row in state.rows[: state.rank]:  # payload = coefficients . data
            assert np.array_equal(row[m:], gf256.gf_dot(row[:m], matrix))

    run_op_mix(ops, state, gen, rng, params, deliver)
    out = state.extract()
    assert b"".join(p.payload for p in out) == data
    assert [p.index for p in out] == list(range(m))


def assert_rows_in_their_index(state):
    # partial: rows are the low bytes of their own gather index, and a
    # blank slot holds only its offset; full rank: plain rows, no index
    m, w = state.params.m, state.params.m + state.params.n
    if state.complete:
        assert state._index is None
        assert state.rows.dtype == np.uint8 and state.rows.flags.c_contiguous
        assert state.rows.shape == (m, w) and state.rows.nbytes == m * w
        return
    index = state._index
    assert index.dtype == np.dtype("<u2") and index.shape == (m, w)
    assert np.shares_memory(state.rows, index)
    assert np.array_equal(index, gf256.gather_index(state.rows))
    blank = np.arange(state.rank, m, dtype=np.uint16)[:, None] << 8
    assert (index[state.rank:] == blank).all()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       ops=OPS)
def test_partial_rows_live_in_their_gather_index(m, n, seed, ops):
    rng = np.random.default_rng(seed)
    params = GenerationParams(m=m, n=n)
    gen, data = make_generation(rng, params)
    state = DecoderState(0, params)
    assert_rows_in_their_index(state)

    def deliver(pkt):
        state.insert(pkt)
        assert_rows_in_their_index(state)
        assert_fully_reduced(state)

    run_op_mix(ops, state, gen, rng, params, deliver)
    assert b"".join(p.payload for p in state.extract()) == data
    assert_rows_in_their_index(DecoderState.full(0, params))


def test_a_copied_state_keeps_its_rows_in_its_index():
    rng = np.random.default_rng(14)
    params = GenerationParams(m=5, n=7)
    gen, _ = make_generation(rng, params)
    state = DecoderState(0, params)
    for _ in range(2):
        state.insert(encode(gen, rng, params))
    copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
    while not state.complete:
        pkt = encode(gen, rng, params)
        state.insert(pkt)
        for twin in copies:
            twin.insert(pkt)
            assert_rows_in_their_index(twin)
            assert _same_state(twin, state)


def _decode_with_pivots(perm, rng, matrix, params, segment_id=0):
    # the packet for slot k is nonzero at perm[k] and random on perm[:k],
    # so after elimination its lead column, and slot k's pivot, is perm[k]
    state = DecoderState(segment_id, params)
    for k, col in enumerate(perm):
        coeff = np.zeros(params.m, dtype=np.uint8)
        coeff[list(perm[:k])] = rng.integers(0, 256, k, dtype=np.uint8)
        coeff[col] = rng.integers(1, 256, dtype=np.uint8)
        row = np.concatenate((coeff, gf256.gf_dot(coeff, matrix)))
        assert state.insert(CodedPacket(segment_id, row, params.m))
    assert state.complete and list(state._pivot_cols) == list(perm)
    return state


def _general_recode(state, rng):
    # reference: the general path, a full-width combination of the held rows
    while True:
        w = rng.integers(0, 256, state.rank, dtype=np.uint8)
        if w.any():
            break
    return gf256.gf_dot(w, state.rows[: state.rank])


def _recode_counting_kernel(state, rng):
    # recode, plus how many times it called the GF(256) kernel
    kernel, calls = gf256.gf_dot, []

    def counted(coeffs, matrix):
        calls.append(1)
        return kernel(coeffs, matrix)
    gf256.gf_dot = counted
    try:
        return recode(state, rng), len(calls)
    finally:
        gf256.gf_dot = kernel


def _payload_data(kind, rng, params):
    # random bytes, all zero, or all zero but one nonzero byte
    if kind == "random":
        return rng.integers(0, 256, params.segment_bytes, dtype=np.uint8).tobytes()
    data = bytearray(params.segment_bytes)
    if kind == "one":
        data[int(rng.integers(0, len(data)))] = int(rng.integers(1, 256))
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(mp=st.integers(1, 12).flatmap(
           lambda m: st.tuples(st.just(m), st.permutations(range(m)))),
       n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "zero", "one"]))
def test_full_rank_fast_paths_match_general_path(mp, n, seed, kind):
    m, perm = mp
    rng = np.random.default_rng(seed)
    params = GenerationParams(m=m, n=n)
    data = _payload_data(kind, rng, params)
    gen = split_segment(0, data, params)
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(m, n)
    states = [_decode_with_pivots(range(m), rng, matrix, params),
              _decode_with_pivots(perm, rng, matrix, params)]
    if kind == "zero":
        states.append(DecoderState.full(0, params))
    for state in states:
        # extract inverts the pivot permutation: slot k's row is plain
        # packet perm[k], not packet k
        out = state.extract()
        assert b"".join(p.payload for p in out) == data
        assert [p.index for p in out] == list(range(m))

        # recode: same bytes and same rng draws as the general formula;
        # the payload kernel is skipped exactly when every payload byte is 0
        for _ in range(3):
            ref_rng = copy.deepcopy(rng)
            pkt, kernel_calls = _recode_counting_kernel(state, rng)
            row = _general_recode(state, ref_rng)
            assert np.array_equal(pkt.coefficients, row[:m])
            assert np.array_equal(pkt.payload, row[m:])
            assert np.array_equal(pkt.payload, gf256.gf_dot(pkt.coefficients, matrix))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert kernel_calls == int(matrix.any())
        zero_first = _ZeroFirstRng()
        ref_rng = copy.deepcopy(zero_first.inner)
        pkt = recode(state, zero_first)
        assert zero_first.calls == 2
        assert np.array_equal(pkt.coefficients, _general_recode(state, ref_rng)[:m])

        # insert: never innovative, leaves the state alone, still checks
        before = (state.rows.copy(), state.rank, state._pivot_cols.copy())
        for pkt in (encode(gen, rng, params), recode(state, rng)):
            assert state.insert(pkt) is False
        assert np.array_equal(state.rows, before[0])
        assert state.rank == before[1]
        assert np.array_equal(state._pivot_cols, before[2])
        pkt = encode(gen, rng, params)
        with pytest.raises(ValueError, match="segment"):
            state.insert(CodedPacket(1, pkt.row, m))
        with pytest.raises(ValueError, match="shape"):
            state.insert(CodedPacket(0, pkt.row[:-1], m))   # payload one byte short
        longer = np.concatenate((np.append(pkt.coefficients, 1), pkt.payload))
        with pytest.raises(ValueError, match="shape"):
            state.insert(CodedPacket(0, longer, m + 1))


def test_bench_ratio_is_the_median_of_per_round_ratios(monkeypatch):
    # scripted generations/s, one per timed slice; each round times
    # m=4 encode, m=4 decode, m=2 encode, m=2 decode, in the order given
    script = np.random.default_rng(5).uniform(50, 150, (rlnc._BENCH_SLICES, 2, 2))
    calls = iter(script.ravel().tolist())
    monkeypatch.setattr(rlnc, "_rate", lambda budget, step: next(calls))
    four, two = rlnc.bench((4, 2), n=8, seconds=1.0)
    mbps = script * (np.array([4, 2]) * 8 * 8 / 1e6)[None, :, None]
    assert four["m"] == 4 and "encode_ratio_next" not in four
    assert two["m"] == 2
    for k, kind in enumerate(("encode", "decode")):
        assert two[f"{kind}_mbps"] == pytest.approx(np.median(mbps[:, 1, k]))
        assert four[f"{kind}_q3_mbps"] == pytest.approx(np.percentile(mbps[:, 0, k], 75))
        assert two[f"{kind}_ratio_next"] == pytest.approx(
            np.median(mbps[:, 1, k] / mbps[:, 0, k]))
