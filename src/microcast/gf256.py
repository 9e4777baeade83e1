"""GF(2^8) arithmetic for random linear network coding.

Tables are built over the field defined by x^8 + x^4 + x^3 + x^2 + 1
(0x11d, the polynomial commonly used by Reed-Solomon codecs; 2 is a
primitive element). Addition is XOR. Multiplication goes through a
full 256x256 product table. Row operations read it flattened: the
product a*b sits at offset (a << 8) | b of the 64 KiB table, so scaling
k rows by k coefficients is one index build and one `take` gather, and
a linear combination adds one XOR-reduce over the scaled rows.
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
_FLAT = MUL.ravel()  # a view: _FLAT[(a << 8) | b] == MUL[a, b]
# a << 8 as uint16: 2-byte gather indices build and read faster than intp
_ROW_OFFSET = np.arange(256, dtype=np.uint16) << 8

# INV[a] = a^-1 for a >= 1; INV[0] unused
INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[1:]]


def gf_mul(a: int, b: int) -> int:
    """a * b: a scalar reference kept for the tests; no result calls it."""
    return int(MUL[a, b])


def gf_inv(a: int) -> int:
    """a^-1: a scalar reference kept for the tests; no result calls it."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return int(INV[a])


def gf_div(a: int, b: int) -> int:
    """a / b: a scalar reference kept for the tests; no result calls it."""
    if b == 0:
        raise ZeroDivisionError("division by 0 in GF(256)")
    return int(MUL[a, INV[b]])


def scale_row(c: int, row: np.ndarray) -> np.ndarray:
    """c * row elementwise; row is a uint8 vector."""
    return MUL[c].take(row)


def scale_rows(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row k of the result is coeffs[k] * matrix[k, :] over GF(256).

    coeffs: (k,) uint8; matrix: (k, w) uint8, or one (w,) row that every
    coefficient scales (an outer product); returns (k, w) uint8.
    """
    return _FLAT.take(_ROW_OFFSET.take(coeffs)[:, None] | matrix)


def gf_dot(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Linear combination sum_k coeffs[k] * matrix[k, :] over GF(256).

    coeffs: (k,) uint8; matrix: (k, w) uint8; returns (w,) uint8.
    An empty combination is the zero vector (XOR's identity).
    """
    return np.bitwise_xor.reduce(scale_rows(coeffs, matrix), axis=0)
