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


def halfspace_patterns(n, width=None):
    """For each index bit b < n, the bitset of positions j in [0, width)
    whose b-th bit is zero: 2^b ones, 2^b zeros, repeated.  `width`
    defaults to 2^n; a wider one serves bitsets of 2^n-bit blocks laid end
    to end.  Each pattern is doubled by shift-or up to the width, so the
    work is linear in it, not quadratic as a big-integer division would be."""
    width = 1 << n if width is None else width
    patterns = []
    for b in range(n):
        p, period = (1 << (1 << b)) - 1, 2 << b
        while period < width:
            p |= p << period
            period <<= 1
        patterns.append(p & ((1 << width) - 1))
    return patterns


def xor_translate(row, v, patterns):
    """`row` with its bit positions permuted by j -> j XOR v, one half-space
    swap per set bit of v; `patterns` are `halfspace_patterns` covering the
    row and every bit of v.  On blocks laid end to end, each block moves
    alone."""
    while v:
        low = v & -v
        p = patterns[low.bit_length() - 1]
        row = ((row & p) << low) | ((row >> low) & p)
        v ^= low
    return row


def mask_of(indices):
    """Pack an iterable of bit positions into a single integer bitset."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m
