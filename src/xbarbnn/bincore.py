"""Packed binary tensors and the XNOR/popcount arithmetic used everywhere else.

Bit value 1 stands for signed +1 and bit value 0 for signed -1, so a signed
dot product of two {-1,+1} vectors of length n equals
2 * popcount(xnor(a, b)) - n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Per-byte popcount lookup; payload is uint8-packed so this covers everything.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def _pack(bits: np.ndarray) -> np.ndarray:
    packed = np.packbits(bits.astype(np.uint8, copy=False).ravel(), bitorder="little")
    packed.flags.writeable = False
    return packed


@dataclass(frozen=True)
class BinaryTensor:
    """Immutable bit tensor, row-major, one bit per element.

    Padding bits in the last payload byte are always zero.
    """

    shape: tuple[int, ...]
    packed: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.size
        if self.packed.dtype != np.uint8 or self.packed.shape != ((n + 7) // 8,):
            raise ValueError("payload does not match shape")
        if n % 8:
            tail = int(self.packed[-1]) if n else 0
            if tail >> (n % 8):
                raise ValueError("padding bits must be zero")

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __len__(self) -> int:
        return self.size

    @classmethod
    def from_bits(cls, bits, shape=None) -> "BinaryTensor":
        arr = np.asarray(bits)
        if shape is None:
            shape = arr.shape
        arr = arr.ravel()
        if arr.size != math.prod(shape):
            raise ValueError("bit count does not match shape")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("bits must be 0 or 1")
        return cls(tuple(int(s) for s in shape), _pack(arr))

    def bits(self) -> np.ndarray:
        """Unpacked 0/1 array in the tensor's shape."""
        flat = np.unpackbits(self.packed, count=self.size, bitorder="little")
        return flat.reshape(self.shape)

    def signed(self) -> np.ndarray:
        """Signed view: bit b maps to 2b - 1."""
        return self.bits().astype(np.int16) * 2 - 1


def xnor(a: BinaryTensor, b: BinaryTensor) -> BinaryTensor:
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    words = np.bitwise_xor(a.packed, b.packed)
    np.bitwise_not(words, out=words)
    if a.size % 8:  # clear padding so it stays zero
        words[-1] &= (1 << (a.size % 8)) - 1
    words.flags.writeable = False
    return BinaryTensor(a.shape, words)


def popcount(a: BinaryTensor) -> int:
    return int(_POPCOUNT8[a.packed].sum())


def xnor_popcount_dot(a: BinaryTensor, b: BinaryTensor) -> int:
    """Signed dot product of the +-1 vectors encoded by a and b."""
    return 2 * popcount(xnor(a, b)) - a.size


def golden_activation(a: BinaryTensor, b: BinaryTensor) -> int:
    """Reference activation bit: 1 iff the match count strictly exceeds n/2,
    so a tie (signed dot 0) reads 0, as the sense amplifier does."""
    return 1 if 2 * popcount(xnor(a, b)) > a.size else 0
