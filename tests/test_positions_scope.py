"""Every positioned generator on at most 32 points, and seeded random
positions on the line and the circle: the answers read off the sorted
positions against a table."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from positions_scope import compare, positions_scope, radii, random_positions, systems

from chainshadow import make_system, rotation
from chainshadow.system import _points_system

RANDOM_SYSTEMS = 100


def test_every_positioned_generator_agrees_with_its_table():
    assert positions_scope(range(1, 33)) > 0


@pytest.mark.parametrize("circle", [False, True], ids=["line", "circle"])
def test_random_positions_agree_with_their_table(circle):
    rng = random.Random(f"random positions, circle={circle}")
    compared = 0
    for _ in range(RANDOM_SYSTEMS):
        n = rng.randint(2, 24)
        positions, unit = random_positions(rng, n, circle)
        fmap = rng.sample(range(n), n) if rng.random() < 0.3 else rng.choices(range(n), k=n)
        system = _points_system(positions, unit, circle, fmap)

        def distance(x: int, y: int) -> Fraction:
            gap = abs(x - y)
            return Fraction(min(gap, unit - gap) if circle else gap, unit)

        rows = [[distance(x, y) for y in positions] for x in positions]
        table = make_system(rows, fmap, invertible=len(set(fmap)) == n)
        assert table._metric.denominator == unit
        compared += compare(f"{positions} over {unit}", system, table)
    assert compared > 0


def test_the_systems_and_radii():
    assert [name for name, _ in systems(4)] == [
        "rotation:4:0", "rotation:4:1", "rotation:4:2", "rotation:4:3",
        "tent:4", "doubling:4", "north-south:4", "cantor-identity:2",
    ]
    assert [name for name, _ in systems(13)][:2] == ["rotation:13:1", "tent:13"]
    # Distances 1/4 and 1/2 on four points, halved and times 3/2, and 3/2
    # past the diameter.
    assert radii(rotation(4, 1)) == [
        Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2),
        Fraction(3, 4), Fraction(3, 2),
    ]
