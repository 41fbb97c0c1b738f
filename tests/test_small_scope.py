"""Every map on at most three points, against the brute-force oracle."""

from __future__ import annotations

import pytest

from small_scope import invariant_domains, small_scope, tables


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_map_agrees_with_the_oracle(n):
    assert small_scope(n) > 0


def test_the_scope():
    assert tables(3) == {
        "equal": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        # Point 0 between points 1 and 2: at eps 2 its ball holds every
        # point, and the ball of point 1 does not.
        "growing": [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
        "shrinking": [[0, 2, 3], [2, 0, 1], [3, 1, 0]],
        "ultrametric": [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    }
    # 0 -> 1 -> 1, 2 -> 0: {1} and {0, 1} are invariant, {0} and {2} are not.
    assert invariant_domains((1, 1, 0)) == [None, frozenset({1}), frozenset({0, 1})]
