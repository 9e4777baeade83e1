"""Field arithmetic checked against a from-scratch oracle.

The oracle multiplies by shift-and-xor straight off the defining
polynomial, no tables, so a table construction bug cannot hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcast import gf256


def mul_ref(a: int, b: int) -> int:
    # schoolbook carry-less multiply, reduced mod 0x11d
    acc = 0
    for _ in range(8):
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return acc


def gf_mul(a: int, b: int) -> int:
    """a * b read off the product table, one scalar at a time."""
    return int(gf256.MUL[a, b])


def gf_inv(a: int) -> int:
    """a^-1 read off the inverse table."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return int(gf256.INV[a])


def gf_div(a: int, b: int) -> int:
    """a / b as a * b^-1."""
    if b == 0:
        raise ZeroDivisionError("division by 0 in GF(256)")
    return gf_mul(a, int(gf256.INV[b]))


def test_tables_match_oracle_exhaustively():
    for a in range(256):
        row = gf256.MUL[a]
        for b in range(256):
            assert row[b] == mul_ref(a, b), (a, b)


def test_frozen_products():
    # 0x80 * 0x02 wraps once: 0x100 ^ 0x11d
    assert gf_mul(0x80, 0x02) == 0x1D
    assert mul_ref(0x80, 0x02) == 0x1D
    assert gf_mul(0, 0xAB) == 0
    assert gf_mul(1, 0xAB) == 0xAB


def test_inverse_exhaustive():
    # sole inverse found by search must equal the table's
    for a in range(1, 256):
        found = [b for b in range(1, 256) if mul_ref(a, b) == 1]
        assert found == [gf_inv(a)], a


def test_frozen_inverse():
    # 2 * 0x8e = 0x11c, xor 0x11d = 1
    assert gf_inv(0x02) == 0x8E


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_div(5, 0)


def test_field_axioms_sampled():
    rng = np.random.default_rng(7)
    trips = rng.integers(0, 256, size=(4000, 3))
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
        # addition is xor
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_division_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(1, 256))
        assert gf_mul(gf_div(a, b), b) == a


def test_vector_helpers_match_scalar_ops():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k, w = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        coeffs = rng.integers(0, 256, k, dtype=np.uint8)
        mat = rng.integers(0, 256, (k, w), dtype=np.uint8)
        out = gf256.gf_dot(coeffs, mat)
        for col in range(w):
            want = 0
            for r in range(k):
                want ^= mul_ref(int(coeffs[r]), int(mat[r, col]))
            assert out[col] == want
    row = rng.integers(0, 256, 64, dtype=np.uint8)
    assert np.array_equal(gf256.scale_row(0, row), np.zeros(64, dtype=np.uint8))
    assert np.array_equal(gf256.scale_row(1, row), row)


def test_gf_dot_empty_is_zero():
    out = gf256.gf_dot(np.zeros(0, dtype=np.uint8), np.zeros((0, 5), dtype=np.uint8))
    assert out.shape == (5,) and not out.any()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gf_dot_and_scale_rows_match_scalar_reference(data):
    # widths down to 1 and zero-heavy coefficients, including k = 0; the
    # matrix is the tail columns of a wider one, a non-contiguous view
    # like a decoder's payload block rows[:, m:]
    k = data.draw(st.integers(0, 12), label="k")
    w = data.draw(st.integers(1, 48), label="w")
    skip = data.draw(st.integers(0, 3), label="skip")
    coeffs = np.array(
        data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 255)),
                           min_size=k, max_size=k), label="coeffs"),
        dtype=np.uint8)
    size = k * (skip + w)
    mat = np.frombuffer(data.draw(st.binary(min_size=size, max_size=size),
                                  label="matrix"), dtype=np.uint8).reshape(k, skip + w)
    mat = mat[:, skip:]
    want = [0] * w
    for r in range(k):
        for col in range(w):
            want[col] ^= mul_ref(int(coeffs[r]), int(mat[r, col]))
    out = gf256.gf_dot(coeffs, mat)
    assert out.dtype == np.uint8 and out.tolist() == want
    # the same combination read through the matrix's gather index, as
    # built for one call and as a generation keeps it
    index = gf256.gather_index(mat)
    assert index.shape == (k, w)
    for prepared in (index, index.astype(np.intp)):
        out = gf256.gf_dot(coeffs, prepared)
        assert out.dtype == np.uint8 and out.tolist() == want
    # one row broadcast against every coefficient: the outer product, its
    # coefficients a column of a matrix as in a decoder's held rows
    row = np.frombuffer(data.draw(st.binary(min_size=w, max_size=w), label="row"),
                        dtype=np.uint8)
    column = np.zeros((k, 3), dtype=np.uint8)
    column[:, 1] = coeffs
    for scale in (coeffs, column[:, 1]):
        outer = gf256.scale_rows(scale, row)
        assert outer.dtype == np.uint8 and outer.shape == (k, w)
        assert outer.tolist() == [[mul_ref(int(c), int(x)) for x in row] for c in coeffs]


# x^b * v for every byte v, off the shift-and-xor oracle: row b is plane b
XTIMES = np.array([[mul_ref(1 << b, v) for v in range(256)] for b in range(8)],
                  dtype=np.uint8)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bit_planes_and_plane_dot_match_gf_dot_and_scalar_reference(data):
    # k up to a full m=64 generation, widths on and off a multiple of 8,
    # zero-heavy coefficients and the all-zero vector
    k = data.draw(st.integers(1, 64), label="k")
    n = data.draw(st.integers(1, 40), label="n")
    mat = np.frombuffer(data.draw(st.binary(min_size=k * n, max_size=k * n),
                                  label="matrix"), dtype=np.uint8).reshape(k, n)
    planes = gf256.bit_planes(mat)
    words = -(-n // 8)
    assert planes.dtype == np.uint64 and planes.shape == (8 * k, words)
    assert not planes.flags.writeable
    # b-major: row b*k + i is x^b * mat[i], and the padding bytes are zero
    as_bytes = planes.view(np.uint8).reshape(8, k, 8 * words)
    assert not as_bytes[:, :, n:].any()
    for b in range(8):
        assert np.array_equal(as_bytes[b, :, :n], XTIMES[b][mat]), b
    zero_heavy = st.lists(st.one_of(st.just(0), st.integers(0, 255)), min_size=k, max_size=k)
    for coeffs in (data.draw(zero_heavy, label="coeffs"), [0] * k,
                   data.draw(st.lists(st.integers(1, 255), min_size=k, max_size=k),
                             label="dense")):
        coeffs = np.array(coeffs, dtype=np.uint8)
        want = [0] * n
        for r in range(k):
            for col in range(n):
                want[col] ^= mul_ref(int(coeffs[r]), int(mat[r, col]))
        out = gf256.plane_dot(coeffs, planes, n)
        assert out.dtype == np.uint8 and out.tolist() == want
        assert out.tolist() == gf256.gf_dot(coeffs, mat).tolist()
