"""Every positioned generator on at most 32 points: the answers read off its
sorted positions against its table."""

from __future__ import annotations

from fractions import Fraction

from positions_scope import positions_scope, radii, systems

from chainshadow import rotation


def test_every_positioned_generator_agrees_with_its_table():
    assert positions_scope(range(1, 33)) > 0


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
