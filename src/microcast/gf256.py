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
