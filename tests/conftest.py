"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from chainshadow import (
    PseudoOrbit,
    build_delta_graph,
    make_system,
    north_south,
    parallel_cycles,
)
from corpus import far_two_cycles, shortest_path_metric


def sweep_values(system) -> list[Fraction]:
    """The acceptance grid: every pairwise distance, halved and doubled."""
    values: set[Fraction] = set()
    for v in system.distance_values:
        values.update((v / 2, v, 2 * v))
    return sorted(values)


@pytest.fixture(scope="session")
def parallel():
    return parallel_cycles()


@pytest.fixture(scope="session")
def ns6():
    return north_south(6)


@pytest.fixture(scope="session")
def far_cycles():
    return far_two_cycles()


@pytest.fixture(scope="session")
def path_system():
    """a -> b -> c -> c with all distances 1."""
    rows = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    return make_system(rows, (1, 2, 2))


@st.composite
def metric_systems(draw, max_n: int = 7, bijective: bool = False):
    """Random valid systems: shortest-path-completed random weights plus a
    random total map, a permutation when ``bijective``; the completion
    makes the triangle inequality hold by construction."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for i in range(n):
        for j in range(i):
            w = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 3)))
            edges.append((j, i, w))
    dist = shortest_path_metric(n, edges)
    if bijective:
        fmap = tuple(draw(st.permutations(range(n))))
    else:
        fmap = tuple(draw(st.integers(0, n - 1)) for _ in range(n))
    return make_system(dist, fmap, invertible=len(set(fmap)) == n)


def widest_table(bits=1024, n=10):
    """Rows d(i, j) = 1 + k / 2**(bits - 1), one odd k per pair, and a map:
    the table's least common denominator is 2**(bits - 1), ``bits`` bits
    wide, so at 1024 bits it is the widest a system accepts. Every entry
    lies in (1, 2), so the triangle inequality holds."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i)]
    for k, (i, j) in enumerate(pairs):
        dist[i][j] = dist[j][i] = 1 + Fraction(2 * k + 1, 2 ** (bits - 1))
    return dist, [(3 * p + 1) % n for p in range(n)]


@st.composite
def system_and_scales(draw, max_n: int = 6):
    system = draw(metric_systems(max_n=max_n))
    pool = [Fraction(0)] + sweep_values(system)
    return system, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@st.composite
def system_and_chain(draw, max_n: int = 6, max_len: int = 6):
    """A system, scales, and a valid delta chain drawn as a graph walk."""
    system, delta, eps = draw(system_and_scales(max_n=max_n))
    graph = build_delta_graph(system, delta)
    points = [draw(st.integers(0, system.n - 1))]
    for _ in range(draw(st.integers(0, max_len - 1))):
        points.append(draw(st.sampled_from(graph.succ[points[-1]])))
    return system, delta, eps, PseudoOrbit.plain(points, delta)
