"""Bitmask helpers: ``runs`` against ``bits``."""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from chainshadow.bits import bits, runs


@st.composite
def run_masks(draw):
    """Masks laid out as alternating gaps and runs, so that long runs,
    single bits and runs across CPython's 30-bit digits all occur (a gap of
    0 joins two runs into one)."""
    mask = pos = 0
    for gap, length in draw(
        st.lists(st.tuples(st.integers(0, 70), st.integers(1, 70)), max_size=8)
    ):
        pos += gap
        mask |= ((1 << length) - 1) << pos
        pos += length
    return mask


def edge_examples(test):
    """0, 1, 2**k - 1 and 2**k at CPython's digit edges, an alternating
    mask and a single high bit."""
    for k in (29, 30, 31, 60, 61):
        test = example(2**k - 1)(example(2**k)(test))
    test = example(int("10" * 200, 2))(test)
    test = example(1 << 4095)(test)
    return example(0)(example(1)(test))


class TestRuns:
    @given(st.one_of(run_masks(), st.integers(0, 2**200)))
    @edge_examples
    def test_ranges_joined_are_the_bits(self, mask):
        joined = [j for start, stop in runs(mask) for j in range(start, stop)]
        assert joined == list(bits(mask))

    @given(st.one_of(run_masks(), st.integers(0, 2**200)))
    @edge_examples
    def test_runs_are_nonempty_maximal_and_ascending(self, mask):
        found = list(runs(mask))
        for start, stop in found:
            assert 0 <= start < stop
            # maximal: the bits on either side of the run are clear
            assert (start == 0 or not mask >> (start - 1) & 1) and not mask >> stop & 1
            assert mask >> start & ((1 << (stop - start)) - 1) == (1 << (stop - start)) - 1
        for (_, stop), (start, _) in zip(found, found[1:]):
            assert start > stop
