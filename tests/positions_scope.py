"""Differential scope: answers read off sorted positions against the table.

The positioned generators (``rotation``, ``tent``, ``doubling``,
``cantor-identity`` and ``north-south``) keep their points' positions and
build their integer table only when something reads it. This script builds
each of them at the sizes asked for (``cantor-identity`` at every depth
whose 2**depth points fit), puts the same system on the table path (below),
and asks that its ``_Positions`` metric answer each query as the ``_Table``
metric does, and both systems alike:

- the metrics' ``distance_ints`` and ``shift_invariant()``; the systems'
  ``min_gap``, ``diameter``, ``functional_threshold`` and
  ``_rotation_step``, and equal systems with equal hashes (``min_gap`` and
  ``functional_threshold`` read each metric's separations of one-point
  classes, so ``tests/test_system.py`` also checks them against pairwise
  minima);
- at radius 0, at every distance value v, at v / 2 and at 3v / 2, and past
  the diameter: every point's ball mask and the successor tuples of the
  two systems' delta graphs;
- the separations of the classes of the delta graph at each of those
  radii, while its edges number at most 64 per point, and of three seeded
  random labellings of the points, with the Hausdorff distance between
  the first two classes of each labelling.

Every system of at most ``VALIDATED`` points is rebuilt through
``validate_system`` (``make_system`` with its exact axiom check, which
also recomputes the integer table from the spec's strings). A larger one,
where that O(n**3) check takes minutes, is given the positions' own table
view, the one the smaller sizes check. Past ``EVERY_VALUE`` distance
values, ``SAMPLED`` of them spread from the least to the largest stand in
for all.

``test_positions_scope.py`` runs every size up to 32, and ``compare`` on
seeded random positions on the line and the circle (``random_positions``). Run it as a script,
with the package installed or ``src`` on ``PYTHONPATH``, for every size up
to N (``python tests/positions_scope.py 64``) or at given sizes only
(``python tests/positions_scope.py --only 255 256 1023 1024``).
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from chainshadow import (
    build_delta_graph,
    cantor_identity,
    decompose,
    doubling,
    hausdorff_distance,
    north_south,
    rotation,
    tent,
)
from chainshadow.system import FiniteMetricSystem, _Positions, _Table, validate_system

VALIDATED = 1024
EVERY_VALUE = 100
SAMPLED = 6
EDGES_PER_POINT = 64
QUERIES = ("min_gap", "diameter", "functional_threshold", "_rotation_step")
USAGE = "usage: python tests/positions_scope.py N | --only SIZE [SIZE ...]"


def systems(n: int):
    """Yield (name, system) for each positioned generator with n points:
    the rotation by every k < n up to 12 points, and past that by 1. Each
    is built as it is reached, so the tables of the ones before it can be
    freed."""
    for k in range(n) if n <= 12 else (1,):
        yield f"rotation:{n}:{k}", rotation(n, k)
    yield f"tent:{n}", tent(n)
    yield f"doubling:{n}", doubling(n)
    if n >= 3:
        yield f"north-south:{n}", north_south(n)
    depth = n.bit_length() - 1
    if n == 2**depth and depth <= 10:
        yield f"cantor-identity:{depth}", cantor_identity(depth)


def random_positions(rng: random.Random, n: int, circle: bool) -> tuple[list[int], int]:
    """n distinct positions over a denominator, shuffled, and the
    denominator. 0 and 1 are among them, so the table's least common
    denominator is the denominator; on the line, so is the denominator
    itself, the point 1 of [0, 1]."""
    if circle:
        unit = rng.randint(n, 4 * n)
        fixed = [0, 1]
    else:
        unit = 1 if n == 2 else rng.randint(n - 1, 4 * n)
        fixed = sorted({0, 1, unit})
    positions = fixed + rng.sample(range(2, unit), n - len(fixed))
    rng.shuffle(positions)
    return positions, unit


def on_the_table(system) -> FiniteMetricSystem:
    """The same system on the table path: rebuilt from its spec up to
    ``VALIDATED`` points, and past that given the positions' own table."""
    if system.n <= VALIDATED:
        return validate_system(system.to_spec())
    return FiniteMetricSystem(
        system.n, map=system.map, invertible=system.invertible,
        quantization=system.quantization,
        _metric=_Table(system._metric.rows, system._metric.denominator),
    )


def radii(system) -> list[Fraction]:
    """0, each distance value v (or a sample of them), v / 2, 3v / 2, and a
    radius past the diameter. Only the values used become Fractions:
    ``north-south:4095`` has about n**2 / 4 distance values."""
    ints = system._metric.distance_ints
    if len(ints) > EVERY_VALUE:
        last = len(ints) - 1
        ints = [ints[last * i // (SAMPLED - 1)] for i in range(SAMPLED)]
    scaled = {Fraction(0), system.diameter + 1}
    for v in map(system._values.__getitem__, ints):
        scaled.update((v / 2, v, 3 * v / 2))
    return sorted(scaled)


def labellings(system, rng: random.Random):
    """Three random (class_index, k): 2 classes, 3 classes and n // 2
    classes, with about one point in five in no class."""
    n = system.n
    for k in (2, 3, max(2, n // 2)):
        yield [None if rng.random() < 0.2 else rng.randrange(k) for _ in range(n)], k


def separations(metric, class_index, k: int) -> list:
    """The metric's least distance from each of the k classes to another,
    inf for a class with none."""
    least = [math.inf] * k
    metric.separations(class_index, least)
    return least


def compare(name: str, system, table) -> int:
    """Check every answer of ``system`` and its metric against ``table`` and
    its metric, and return the number compared; the first difference raises
    AssertionError."""
    ours, theirs = system._metric, table._metric
    assert isinstance(ours, _Positions) and isinstance(theirs, _Table), name
    compared = 0
    for query in QUERIES:
        _require(getattr(system, query) == getattr(table, query), f"{query} on {name}")
        compared += 1
    _require(ours.distance_ints == theirs.distance_ints, f"distance_ints on {name}")
    _require(ours.shift_invariant() == theirs.shift_invariant(), f"shift_invariant on {name}")
    _require(system == table and hash(system) == hash(table), f"equality on {name}")
    compared += 3
    rng = random.Random(name)
    for class_index, k in labellings(system, rng):
        where = f"a random labelling on {name}"
        _require(
            separations(ours, class_index, k) == separations(theirs, class_index, k),
            f"separations of {where}",
        )
        compared += 1
        a, b = ({p for p, i in enumerate(class_index) if i == c} for c in (0, 1))
        if a and b:
            _require(
                hausdorff_distance(system, a, b) == hausdorff_distance(table, a, b),
                f"Hausdorff distance on {where}",
            )
            compared += 1
    for r in radii(system):
        where = f"{name} at radius {r}"
        # Equal systems have one denominator, so one bound serves both metrics.
        bound = system._bound(r)
        for p in system.points:
            _require(ours.ball(p, bound) == theirs.ball(p, bound), f"ball of {p} on {where}")
        graph = build_delta_graph(system, r)
        succ = graph.succ
        _require(succ == build_delta_graph(table, r).succ, f"successors on {where}")
        compared += system.n + 1
        if sum(map(len, succ)) <= EDGES_PER_POINT * system.n:
            dec = decompose(graph)
            k = len(dec.classes)
            expected = table._separations(dec.class_index, k)
            _require(dec.separation == expected, f"separations on {where}")
            compared += 1
    return compared


def positions_scope(sizes) -> int:
    """Compare every positioned generator at each of ``sizes`` points with
    its table, and return the number of answers compared."""
    compared = 0
    for n in sizes:
        for name, system in systems(n):
            compared += compare(name, system, on_the_table(system))
    return compared


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise AssertionError(message)


if __name__ == "__main__":
    args = sys.argv[1:]
    only = args[:1] == ["--only"]
    numbers = args[1:] if only else args
    if not numbers or not all(a.isdecimal() for a in numbers) or len(numbers) > 1 and not only:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    sizes = [int(a) for a in numbers] if only else range(1, int(numbers[0]) + 1)
    print(f"{positions_scope(sizes)} answers from positions agree with the table")
