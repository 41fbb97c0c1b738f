"""The built-in corpus that the harness and acceptance tests run over."""

from __future__ import annotations

from chainshadow import (
    FiniteMetricSystem,
    cantor_identity,
    doubling,
    make_system,
    north_south,
    parallel_cycles,
    rotation,
    tent,
)


def far_two_cycles() -> FiniteMetricSystem:
    """Two 2-cycles of internal distance 1 separated by distance 4."""
    rows = [
        [0, 1, 4, 4],
        [1, 0, 4, 4],
        [4, 4, 0, 1],
        [4, 4, 1, 0],
    ]
    return make_system(rows, (1, 0, 3, 2), invertible=True)


def standard_corpus() -> tuple[tuple[str, FiniteMetricSystem], ...]:
    """Ten small named systems, of two to eight points."""
    return (
        ("cantor-identity:1", cantor_identity(1)),
        ("cantor-identity:2", cantor_identity(2)),
        ("cantor-identity:3", cantor_identity(3)),
        ("rotation:4:1", rotation(4, 1)),
        ("rotation:6:2", rotation(6, 2)),
        ("north-south:6", north_south(6)),
        ("parallel-cycles", parallel_cycles()),
        ("doubling:6", doubling(6)),
        ("tent:6", tent(6)),
        ("far-two-cycles", far_two_cycles()),
    )
