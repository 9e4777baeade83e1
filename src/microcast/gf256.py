"""GF(2^8) arithmetic for random linear network coding.

Tables are built over the field defined by x^8 + x^4 + x^3 + x^2 + 1
(0x11d, the polynomial commonly used by Reed-Solomon codecs; 2 is a
primitive element). Addition is XOR. Multiplication goes through a
full 256x256 product table. A row operation gathers from the k x 256
row table of its coefficients, MUL.take(coeffs, axis=0), where
coeffs[i] * matrix[i, j] sits at offset (i << 8) | matrix[i, j]: that
index depends on the matrix alone, so a matrix combined many times
builds it once. A matrix that changes by XOR can live inside its index:
the matrix byte is the low byte, and XORing uint8 values into a uint16
index leaves the row offsets alone, so it stays an index (`blank_index`).

Multiplication is also linear over GF(2): c * x is the XOR of x * x^b
over the set bits b of c. So a matrix combined many times can keep its
eight x^b multiples instead (`bit_planes`), and each combination is a
select-and-XOR of whole 64-bit words with no gather (`plane_dot`); this
is the bit-matrix view behind XOR-based erasure codes. Each kernel is
used only where it is cheaper, and no object holds both forms:

- `plane_dot` encodes from a prepared generation, whose matrix never
  changes, so its planes are built once. It also solves a complete
  decoder's payload from its raw payloads, which never change once
  held: their planes are built once and read m times.
- `gf_dot` does everything else: decoder elimination, the
  back-substitution and both recode paths. A decoder's reduced rows
  change on every insert, and keeping their planes current would cost
  eight outer-product gathers per insert instead of one. A one-off
  combination does not pay for its planes either: building them takes
  about 65 us at k=25, n=900, against about 6 us for `gather_index`.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11D

# exp table doubled so a sum of two logs never needs a modulo
EXP = np.zeros(510, dtype=np.uint8)
LOG = np.zeros(256, dtype=np.int64)


def _build_tables() -> None:
    x = 1
    for i in range(255):
        EXP[i] = x
        LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= POLY
    EXP[255:] = EXP[:255]


_build_tables()

# 64 KiB product table: MUL[a, b] = a*b in the field
MUL = np.zeros((256, 256), dtype=np.uint8)
MUL[1:, 1:] = EXP[LOG[1:, None] + LOG[None, 1:]]
# i << 8 as uint16: 2-byte indices build faster, though `take` casts them
_ROW_OFFSET = np.arange(256, dtype=np.uint16) << 8

# INV[a] = a^-1 for a >= 1; INV[0] unused
INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[1:]]


# xtime on 8 packed bytes: the high bits leave, the 0x1D carry comes in.
# numpy scalars throughout, since a Python int would promote the shifts
# to float under NumPy 1.24's value-based casting
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_ONES = np.uint64(0x0101010101010101)
_CARRY = np.uint64(0x1D)
_ONE, _SEVEN = np.uint64(1), np.uint64(7)


def bit_planes(matrix: np.ndarray) -> np.ndarray:
    """The eight x^b multiples of a matrix: (k, n) uint8 -> (8k, w/8) uint64.

    Row b*k + i holds x^b * matrix[i] (b-major, so each plane is one
    contiguous block), with w = n rounded up to a multiple of 8 and the
    padding bytes zero. The result is read-only. xtime cannot carry
    across bytes, so byte order does not matter.
    """
    k, n = matrix.shape
    words = -(-n // 8)
    planes = np.zeros((8, k, words), dtype=np.uint64)
    planes[0].view(np.uint8)[:, :n] = matrix
    high = np.empty((k, words), dtype=np.uint64)
    for b in range(7):
        p, nxt = planes[b], planes[b + 1]
        np.right_shift(p, _SEVEN, out=high)
        np.bitwise_and(high, _ONES, out=high)
        np.multiply(high, _CARRY, out=high)
        np.bitwise_and(p, _LOW7, out=nxt)
        np.left_shift(nxt, _ONE, out=nxt)
        np.bitwise_xor(nxt, high, out=nxt)
    planes = planes.reshape(8 * k, words)
    planes.flags.writeable = False
    return planes


def plane_dot(coeffs: np.ndarray, planes: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeffs[k] * matrix[k, :] over GF(256), read from `bit_planes(matrix)`.

    coeffs: (k,) uint8; returns (n,) uint8. Bit b of coeffs[i] selects
    plane row b*k + i: unpacking the (1, k) coefficients little-endian
    along axis 0 gives an (8, k) mask, b-major like the planes.
    """
    mask = np.unpackbits(coeffs[None], axis=0, bitorder="little").view(bool).ravel()
    return np.bitwise_xor.reduce(planes.compress(mask, axis=0), axis=0).view(np.uint8)[:n]


def gather_index(matrix: np.ndarray) -> np.ndarray:
    """Where each product lies in a row table: (k, w) uint8 -> (k, w) uint16.

    Entry (i, j) is (i << 8) | matrix[i, j], the offset of
    c_i * matrix[i, j] in the flattened row table of any k coefficients.
    """
    return _ROW_OFFSET[: len(matrix), None] | matrix


def blank_index(k: int, w: int) -> np.ndarray:
    """The gather index of k zero rows of width w, writable and "<u2".

    Little-endian puts each entry's matrix byte first, so the uint8 view
    `blank_index(k, w).view(np.uint8)[:, ::2]` reads the rows on any host.
    """
    index = np.empty((k, w), dtype="<u2")
    index[:] = _ROW_OFFSET[:k, None]
    return index


def scale_row(c: int, row: np.ndarray) -> np.ndarray:
    """c * row elementwise; row is a uint8 vector."""
    return MUL[c].take(row)


def scale_rows(coeffs: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The outer product: entry (k, j) is coeffs[k] * row[j] over GF(256).

    coeffs: (k,) uint8; row: (w,) uint8, the gather index whatever k is;
    returns (k, w) uint8.
    """
    return MUL.take(coeffs, axis=0).take(row, axis=1)


def gf_dot(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Linear combination sum_k coeffs[k] * matrix[k, :] over GF(256).

    coeffs: (k,) uint8; matrix: (k, w) uint8, or its `gather_index`
    built once for many combinations; returns (w,) uint8. An empty
    combination is the zero vector (XOR's identity).
    """
    index = gather_index(matrix) if matrix.itemsize == 1 else matrix
    return np.bitwise_xor.reduce(MUL.take(coeffs, axis=0).take(index), axis=0)
