"""Every rotation on at most 12 points: the orbit search against the plain BFS."""

from __future__ import annotations

from rotation_scope import pairs, rotation_scope

from chainshadow import rotation


def test_every_rotation_agrees_with_the_plain_bfs():
    assert rotation_scope(12) > 0


def test_the_grid():
    def strings(system):
        return [(str(delta), str(eps)) for delta, eps in pairs(system)]

    # Distances 1/8, 1/4, 3/8 and 1/2 on eight points.
    assert strings(rotation(8, 3)) == [
        ("0", "1/8"),
        ("1/8", "1/8"),
        ("1/8", "1/2"),
        ("1/4", "1/8"),
        ("1/4", "1/2"),
    ]
    # One distance stands in for d_2 and d_4; one point has none.
    assert strings(rotation(3, 1)) == [("0", "1/3"), ("1/3", "1/3")]
    assert strings(rotation(1, 0)) == [("0", "0")]
