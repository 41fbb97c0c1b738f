"""Exhaustive small-scope check: every map on n points against the oracle.

Every self-map of n points is checked on three line tables and one
ultrametric, at every (delta, eps) drawn from 0, the distance values and
their halves, and on every forward-invariant domain:

- each decider agrees with ``brute_force_oracle`` by the rule of
  ``test_agreement_on_random_systems``: a failing verdict whose witness
  fits in the oracle's length guard has the oracle's witness, and a pass
  or a longer witness meets an oracle pass;
- the joint search of both properties (``shadow._decide``) returns the
  two single verdicts;
- the harness's shadowing answer (``verify._Answers.verdict``, which
  passes some domains without a search) is ``check_shadowing_property``'s
  verdict, or the same ``Inconclusive`` text and count, at state caps
  None, |domain| - 1 and |domain|;
- each merge set of ``merge_sets`` holds the points whose orbit meets
  the point's orbit without leaving eps first, found by walking the pair
  of orbits;
- ``run_harness`` over those (delta, eps) never reports ``fails`` for
  ``slimit_implies_shadowing``.

``test_small_scope.py`` runs it for n <= 3. Run it for a larger n as a
script, with the package installed or ``src`` on ``PYTHONPATH``:
``python tests/small_scope.py 4``.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from chainshadow import (
    Inconclusive,
    brute_force_oracle,
    check_shadowing_property,
    check_slimit_property,
    make_system,
    merge_sets,
    run_harness,
)
from chainshadow import shadow as shadow_mod
from chainshadow.verify import FAILS, SLIMIT_IMPLIES_SHADOWING, _Answers

USAGE = "usage: python tests/small_scope.py N  (check every map on N points)"


def tables(n: int) -> dict[str, list[list[int]]]:
    """Line tables with equal gaps and with gaps that double and halve
    along the line, and the ultrametric d(i, j) = bit length of i ^ j."""
    lines = {
        "equal": range(n),
        "growing": [2**i - 1 for i in range(n)],
        "shrinking": [2 ** (n - 1) - 2 ** (n - 1 - i) for i in range(n)],
    }
    out = {name: [[abs(a - b) for b in xs] for a in xs] for name, xs in lines.items()}
    out["ultrametric"] = [[(i ^ j).bit_length() for j in range(n)] for i in range(n)]
    return out


def invariant_domains(fmap) -> list[frozenset[int] | None]:
    """Every nonempty forward-invariant point set; None stands for all
    points."""
    domains: list[frozenset[int] | None] = [None]
    for size in range(1, len(fmap)):
        for points in itertools.combinations(range(len(fmap)), size):
            if all(fmap[p] in points for p in points):
                domains.append(frozenset(points))
    return domains


def small_scope(n: int) -> int:
    """Run every check on every map of n points, and return the number of
    verdicts compared with the oracle or with the harness's answers. The
    first disagreement raises AssertionError, naming the table, map,
    domain and (delta, eps)."""
    guard = shadow_mod._ORACLE_LENGTH_GUARD
    compared = 0
    for name, rows in tables(n).items():
        for fmap in itertools.product(range(n), repeat=n):
            system = make_system(rows, fmap, invertible=len(set(fmap)) == n)
            values = system.distance_values
            scales = sorted({Fraction(0), *values, *(v / 2 for v in values)})
            pairs = list(itertools.product(scales, repeat=2))
            for domain in invariant_domains(fmap):
                points = range(n) if domain is None else sorted(domain)
                for eps in scales:
                    tracks = merge_sets(system, eps, domain).tracks
                    for p in points:
                        merging = frozenset(x for x in points if _merges(system, x, p, eps))
                        _require(
                            tracks[p] == merging,
                            f"merge set of {p} at eps {eps}: {name} table, map {fmap}, "
                            f"domain {domain}",
                        )
                for delta, eps in pairs:
                    where = f"{name} table, map {fmap}, domain {domain}, ({delta}, {eps})"
                    singles = []
                    for prop, check in (
                        ("slimit", check_slimit_property),
                        ("shadowing", check_shadowing_property),
                    ):
                        verdict = check(system, delta, eps, domain)
                        oracle = brute_force_oracle(
                            system, delta, eps, prop, max_len=guard, domain=domain
                        )
                        if verdict.passed or len(verdict.witness.points) > guard:
                            _require(oracle.passed, f"{prop} passes only in the oracle: {where}")
                        else:
                            _require(
                                oracle.witness == verdict.witness,
                                f"{prop} witness differs from the oracle's: {where}",
                            )
                        singles.append(verdict)
                        compared += 1
                    props = ("slimit", "shadowing")
                    cap = shadow_mod.DEFAULT_STATE_CAP
                    both = shadow_mod._decide(system, delta, eps, domain, cap, props)[1]
                    _require(both == tuple(singles), f"joint check differs: {where}")
                    size = len(points)
                    for cap in (None, size - 1, size):
                        answer = _outcome(
                            _Answers(system, cap).verdict, "shadowing", delta, eps, domain
                        )
                        searched = _outcome(
                            check_shadowing_property, system, delta, eps, domain, state_cap=cap
                        )
                        _require(
                            answer == searched,
                            f"harness shadowing answer differs at cap {cap}: {where}",
                        )
                        compared += 1
            report = run_harness(system, grid=[(system.diameter, d, e) for d, e in pairs])
            for bundle in report.results:
                for result in bundle:
                    if result.theorem == SLIMIT_IMPLIES_SHADOWING:
                        _require(
                            result.status != FAILS,
                            f"slimit without shadowing: {name} table, map {fmap}, "
                            f"{result.params}",
                        )
    return compared


def _merges(system, x: int, p: int, eps) -> bool:
    """Whether the orbits of x and p meet with every pair before that
    within eps."""
    seen = set()
    while x != p:
        if (x, p) in seen or system.dist[x][p] > eps:
            return False
        seen.add((x, p))
        x, p = system.map[x], system.map[p]
    return True


def _outcome(decide, *args, **kwargs):
    """The verdict of a call, or the text and count of its Inconclusive."""
    try:
        return decide(*args, **kwargs)
    except Inconclusive as exc:
        return str(exc), exc.states_explored


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise AssertionError(message)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdecimal():
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    n = int(sys.argv[1])
    print(f"n = {n}: {small_scope(n)} verdicts agree with the oracle or the search")
