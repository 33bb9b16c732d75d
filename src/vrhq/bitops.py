"""Helpers for arbitrary-width integer bitsets."""

from itertools import compress, count

_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask):
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dense_bits(mask, items=None):
    """An iterator over the positions of set bits in ascending order, read
    off the binary digits at C speed: faster than `iter_bits` on dense
    masks, slower on masks with few bits set among many.  With `items`, a
    sequence indexed by position, bit i yields items[i] instead of i."""
    return compress(count() if items is None else items,
                    bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS))


def mask_of(indices):
    """Pack an iterable of bit positions into a single integer bitset."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m
