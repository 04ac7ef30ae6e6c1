"""Bit-packing helpers for the packed simulation engine.

The packed engine stores 64 test patterns per ``np.uint64`` word: pattern
``p`` lives in bit ``p % 64`` of word ``p // 64`` (little-endian bit order,
so pattern 0 is the least-significant bit of word 0).  The last word of a
row is zero-padded beyond ``n_patterns``; every cell kernel preserves a
well-defined (if not necessarily zero) tail, and :func:`unpack_patterns`
discards it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "n_words_for",
    "tail_mask",
    "pack_patterns",
    "unpack_patterns",
    "rows_to_ints",
    "int_to_bits",
]

#: Patterns per packed word.
WORD_BITS = 64


def n_words_for(n_patterns: int) -> int:
    """Packed words needed to hold ``n_patterns`` patterns (at least 1)."""
    return max(1, (n_patterns + WORD_BITS - 1) // WORD_BITS)


def tail_mask(n_patterns: int) -> np.uint64:
    """Mask of the valid bits in the *last* word of a packed row."""
    rem = n_patterns % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


def pack_patterns(values: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last (pattern) axis into uint64 words.

    Args:
        values: uint8/bool array of shape ``(..., n_patterns)`` holding 0/1.

    Returns:
        uint64 array of shape ``(..., n_words)`` with zeroed tail bits.
    """
    values = np.ascontiguousarray(values, dtype=np.uint8)
    n_pat = values.shape[-1]
    n_words = n_words_for(n_pat)
    pad = n_words * WORD_BITS - n_pat
    if pad:
        width = [(0, 0)] * (values.ndim - 1) + [(0, pad)]
        values = np.pad(values, width)
    packed_bytes = np.packbits(values, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def unpack_patterns(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Unpack uint64 words back to one uint8 value per pattern.

    Inverse of :func:`pack_patterns`; tail bits beyond ``n_patterns`` are
    dropped regardless of their content.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little", count=None)
    return np.ascontiguousarray(bits[..., :n_patterns])


def rows_to_ints(words: np.ndarray) -> list:
    """Convert each packed uint64 row to one arbitrary-precision Python int.

    Big-int rows are the word type of the per-fault cone re-simulation: a
    whole row's bitwise op is a single C-level call, with none of numpy's
    per-call dispatch overhead on 4-word arrays.  Bit ``p`` of the int is
    pattern ``p``, matching the :func:`pack_patterns` layout.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    if words.shape[-1] == 1:
        return words[:, 0].tolist()
    row_bytes = words.shape[-1] * 8
    blob = words.tobytes()
    return [
        int.from_bytes(blob[i : i + row_bytes], "little")
        for i in range(0, len(blob), row_bytes)
    ]


def int_to_bits(value: int, n_patterns: int) -> np.ndarray:
    """Unpack a big-int packed row to one uint8 value per pattern."""
    n_bytes = n_words_for(n_patterns) * 8
    as_bytes = np.frombuffer(value.to_bytes(n_bytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little", count=n_patterns)
    return bits
