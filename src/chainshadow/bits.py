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


def _translation_runs(fmap) -> list[tuple[int, int]]:
    """(run mask, shift) for each maximal run of consecutive points y on
    which f(y) - y is one constant shift, in ascending order."""
    out = []
    start = 0
    for y in range(1, len(fmap) + 1):
        if y == len(fmap) or fmap[y] - y != fmap[start] - start:
            out.append(((1 << y) - (1 << start), fmap[start] - start))
            start = y
    return out


def _bit_map(pairs, point_masks):
    """The map on bitmasks that sends each point y to ``point_masks[y]``
    and moves each pair's run mask by the pair's shift s (left for s >= 0):
    M goes to the OR of the shifted (M & run) when M has more points than
    there are pairs, a few word-level operations per pair, and to the OR
    of its points' masks otherwise."""
    left = [(run, s) for run, s in pairs if s >= 0]
    right = [(run, -s) for run, s in pairs if s < 0]
    pair_count = len(pairs)

    def apply(mask: int) -> int:
        out = 0
        if mask.bit_count() > pair_count:
            for run, s in left:
                out |= (mask & run) << s
            for run, s in right:
                out |= (mask & run) >> s
            return out
        while mask:
            low = mask & -mask
            out |= point_masks[low.bit_length() - 1]
            mask ^= low
        return out

    return apply
