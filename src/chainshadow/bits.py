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
    and moves each pair's run mask by the pair's shift s (left for s >= 0).

    M goes to the OR of the shifted (M & run) when M has more points than
    there are pairs, a few word-level operations per pair. Otherwise it
    goes to the OR of one entry per nonzero byte of M, read from M's
    lowest to its highest set byte: byte c of M holds the points 8c..8c+7,
    and the entry for byte value b at c is the OR of the masks of b's
    points. Each entry is built on first use and kept with the map, in one
    dict per byte position, so the map holds at most 255 entries per 8
    points (the Four Russians method for a boolean matrix-vector product).
    """
    left = [(run, s) for run, s in pairs if s >= 0]
    right = [(run, -s) for run, s in pairs if s < 0]
    pair_count = len(pairs)
    chunks = [point_masks[i : i + 8] for i in range(0, len(point_masks), 8)]
    memos = [{} for _ in chunks]

    def entry(c: int, byte: int) -> int:
        out = 0
        for j, mask in enumerate(chunks[c]):
            if byte >> j & 1:
                out |= mask
        memos[c][byte] = out
        return out

    def apply(mask: int) -> int:
        out = 0
        if mask.bit_count() > pair_count:
            for run, s in left:
                out |= (mask & run) << s
            for run, s in right:
                out |= (mask & run) >> s
            return out
        lo = min_bit(mask) >> 3 if mask else 0
        data = (mask >> 8 * lo).to_bytes((mask.bit_length() + 7 >> 3) - lo, "little")
        for c, byte in enumerate(data, lo):
            if byte:
                image = memos[c].get(byte)
                out |= entry(c, byte) if image is None else image
        return out

    return apply
