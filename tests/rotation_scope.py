"""Differential scope: the orbit-representative search against the plain BFS.

On the whole of ``rotation:n:k`` the checks search one state per orbit of
the shift i -> i + 1 (``shadow._explore_orbits``). This script checks every
rotation with n <= N and 0 <= k < n at a grid of (delta, eps) drawn from 0
and the distance values, and for each of ``check_shadowing_property``,
``check_slimit_property`` and the joint search of both (``both_properties``)
asks:

- the verdict JSON bytes, ``states_explored`` included, are those of the
  plain BFS, the search every other system takes, reached here by hiding
  ``FiniteMetricSystem._rotation_step``;
- so is the outcome, a verdict or the ``Inconclusive`` text, at the state
  caps on both sides of the cumulative count of every BFS level up to the
  last verdict.

``test_rotation_scope.py`` runs it for n <= 12. Run it for a larger N as a
script, with the package installed or ``src`` on ``PYTHONPATH``:
``python tests/rotation_scope.py 48``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from unittest import mock

from chainshadow import (
    Inconclusive,
    check_shadowing_property,
    check_slimit_property,
    rotation,
)
from chainshadow.bits import bits
from chainshadow.shadow import _decide
from chainshadow.system import FiniteMetricSystem

USAGE = "usage: python tests/rotation_scope.py N  (compare every rotation with at most N points)"


def pairs(system) -> list[tuple[Fraction, Fraction]]:
    """Up to five (delta, eps) from 0 and the distance values
    d_1 < d_2 < ...: exact orbits at eps d_1, and delta d_1 and d_2 each at
    eps d_1 and d_4. A value past the last one is the last one."""
    values = [Fraction(0), *system.distance_values]
    d1, d2, _, d4 = (values + values[-1:] * 4)[1:5]
    return list(dict.fromkeys([(values[0], d1), (d1, d1), (d1, d4), (d2, d1), (d2, d4)]))


def both_properties(system, delta, eps, *, state_cap):
    """The slimit and the shadowing verdict of the whole system from one
    exact BFS, the search the harness runs for each grid entry."""
    return _decide(system, delta, eps, None, state_cap, ("slimit", "shadowing"))


def answer(check, system, delta, eps, cap) -> str:
    """The JSON bytes of the check's verdicts, or its ``Inconclusive`` text."""
    try:
        verdicts = check(system, delta, eps, state_cap=cap)
    except Inconclusive as exc:
        return f"inconclusive: {exc}"
    if not isinstance(verdicts, tuple):
        verdicts = (verdicts,)
    return json.dumps([v.to_json() for v in verdicts])


def agree(check, system, delta, eps, caps, where: str) -> list[str]:
    """The check's answer at each cap, once it is found to be the plain
    BFS's, reached by hiding ``FiniteMetricSystem._rotation_step``: with no
    rotation step the checks take it on any system."""
    ours = [answer(check, system, delta, eps, cap) for cap in caps]
    with mock.patch.object(FiniteMetricSystem, "_rotation_step", property(lambda self: None)):
        theirs = [answer(check, system, delta, eps, cap) for cap in caps]
    for cap, a, b in zip(caps, ours, theirs):
        _require(a == b, f"{check.__name__} on {where}, cap {cap}")
    return ours


def level_counts(system, delta, eps, limit: int) -> list[int]:
    """The cumulative state count at the end of each level of the BFS over
    states (p, Y), while it is below ``limit``, and the first count that is
    not. Level 0 holds (p, ball(p, eps)) for every p; the children of (p, Y)
    are (q, f(Y) & ball(q, eps)) for q in ball(f(p), delta)."""
    fmap = system.map
    balls = [system.ball(p, eps) for p in system.points]
    succ = [tuple(bits(system.ball(fmap[p], delta))) for p in system.points]
    level = {(p, balls[p]) for p in system.points}
    seen = set(level)
    counts = [len(seen)]
    while level and counts[-1] < limit:
        nxt = set()
        for p, y in level:
            image = sum(1 << fmap[x] for x in bits(y))
            for q in succ[p]:
                child = (q, image & balls[q])
                if child not in seen:
                    seen.add(child)
                    nxt.add(child)
        level = nxt
        counts.append(len(seen))
    return counts


def both_sides(counts) -> list[int]:
    """The caps c - 1 and c for each count c, ascending."""
    return sorted({cap for count in counts for cap in (count - 1, count)})


def rotation_scope(top: int) -> int:
    """Compare the two searches on every rotation with at most ``top``
    points, and return the number of answers compared. The first
    disagreement raises AssertionError, naming the check, system,
    (delta, eps) and cap."""
    compared = 0
    for n in range(1, top + 1):
        for k in range(n):
            system = rotation(n, k)
            for delta, eps in pairs(system):
                where = f"rotation:{n}:{k} at ({delta}, {eps})"
                (joint,) = agree(both_properties, system, delta, eps, [None], where)
                last = max(v["states_explored"] for v in json.loads(joint))
                caps = both_sides(level_counts(system, delta, eps, last))
                agree(both_properties, system, delta, eps, caps, where)
                for check in (check_slimit_property, check_shadowing_property):
                    agree(check, system, delta, eps, [None, *caps], where)
                compared += 3 * (1 + len(caps))
    return compared


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise AssertionError(message)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdecimal():
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    top = int(sys.argv[1])
    print(f"n <= {top}: {rotation_scope(top)} answers agree with the plain BFS")
