"""Bitmask helpers for point sets (points are small nonnegative ints)."""

from __future__ import annotations


def bits(mask: int):
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def runs(mask: int):
    """Yield (start, stop) for each run of consecutive set bits, ascending:
    the set bits are range(start, stop) over the runs in turn.

    Adding the lowest set bit carries through its run, clearing it and
    setting the bit at ``stop``, so each run costs a few int operations
    however long it is. On a mask of isolated bits that is more work per
    bit than ``bits``.
    """
    while mask:
        low = mask & -mask
        carried = mask + low
        yield low.bit_length() - 1, (mask ^ carried).bit_length() - 1
        mask &= carried


def min_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def mask_of(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def to_frozenset(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))
