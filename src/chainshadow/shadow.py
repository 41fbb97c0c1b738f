"""Pseudo-orbits and exact shadowing decisions.

Finite-scale semantics of a vanishing error sequence: on a finite metric
space any positive step error is bounded below by the minimum gap, so a
pseudo-orbit whose errors tend to zero is one whose errors are eventually
exactly zero. Eventually-exact orbits (a bounded-error prefix followed by
the exact orbit of the last prefix point) therefore model limit-style
pseudo-orbits without loss.

The system-level checks run a determinized automaton over states
(pseudo-point p, candidate set Y): Y is exactly the set of current
positions of true orbits tracking the prefix within eps. Emptiness of Y
certifies an unshadowable prefix; on a finite space nonemptiness along
every reachable state yields shadows for arbitrarily long pseudo-orbits,
because the tracker sets for a fixed infinite pseudo-orbit form a
decreasing chain of nonempty finite sets.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple

from .bits import bits, mask_of, min_bit
from .errors import (
    BadParams,
    DomainNotInvariant,
    EmptyDomain,
    Inconclusive,
    KindMismatch,
    TooLarge,
)
from .rational import check_collection, check_int, format_rational, parse_nonnegative
from .system import FiniteMetricSystem, check_points

PLAIN = "plain"
EVENTUALLY_EXACT = "eventually_exact"

DEFAULT_MAX_LEN = 8
# States a check may visit before it gives up with Inconclusive, unless the
# caller passes another cap (None for no cap).
DEFAULT_STATE_CAP = 1_000_000
_ORACLE_POINT_GUARD = 12
_ORACLE_LENGTH_GUARD = 8


@dataclass(frozen=True)
class PseudoOrbit:
    """A stored finite pseudo-orbit.

    ``tail_start=None`` means a plain orbit: every step error bounded by
    delta. Otherwise the orbit is eventually exact: errors bounded by
    delta before ``tail_start`` and exactly zero from it on, and the
    sequence is read as continuing forever along the exact orbit of
    ``points[tail_start]``.
    """

    points: tuple[int, ...]
    delta: Fraction
    tail_start: int | None = None

    def __post_init__(self):
        points = check_collection("pseudo-orbit points", self.points)
        for p in points:
            check_int("pseudo-orbit point", p, 0)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "delta", parse_nonnegative(self.delta))
        if not self.points:
            raise BadParams("a pseudo-orbit needs at least one point")
        if self.tail_start is not None:
            check_int("tail_start", self.tail_start, 0, len(self.points) - 1)

    @classmethod
    def plain(cls, points, delta) -> "PseudoOrbit":
        return cls(points, delta, None)

    @classmethod
    def eventually_exact(cls, points, delta, tail_start: int) -> "PseudoOrbit":
        return cls(points, delta, tail_start)

    @property
    def kind(self) -> str:
        return PLAIN if self.tail_start is None else EVENTUALLY_EXACT

    def errors(self, system: FiniteMetricSystem) -> tuple[Fraction, ...]:
        """Step errors d(f(x_i), x_{i+1}) along the stored sequence; BadParams
        unless every point is a point of ``system``."""
        check_points(system, self.points)
        pts = self.points
        return tuple(system.d(system.map[x], y) for x, y in zip(pts, pts[1:]))

    def to_json(self) -> dict:
        out = {
            "points": list(self.points),
            "kind": self.kind,
            "delta": format_rational(self.delta),
        }
        if self.tail_start is not None:
            out["tail_start"] = self.tail_start
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PseudoOrbit":
        if not isinstance(data, Mapping):
            raise BadParams("a pseudo-orbit must be a JSON object")
        for key in ("points", "delta"):
            if key not in data:
                raise BadParams(f"a pseudo-orbit needs {key!r}")
        if not isinstance(data["points"], list):
            raise BadParams("pseudo-orbit points must be a list")
        kind = data.get("kind", PLAIN)
        if kind not in (PLAIN, EVENTUALLY_EXACT):
            raise BadParams(f"unknown pseudo-orbit kind {kind!r}")
        tail = data.get("tail_start")
        if kind == PLAIN:
            if tail is not None:
                raise BadParams("plain orbits take no tail_start")
            return cls.plain(data["points"], data["delta"])
        if tail is None:
            raise BadParams("eventually_exact orbits need a tail_start")
        return cls.eventually_exact(data["points"], data["delta"], tail)


class OrbitViolation(NamedTuple):
    position: int
    error: Fraction
    bound: Fraction


def first_violation(system: FiniteMetricSystem, po: PseudoOrbit) -> OrbitViolation | None:
    """First step breaking the orbit's own error bounds, if any."""
    zero = Fraction(0)
    for i, err in enumerate(po.errors(system)):
        if po.tail_start is not None and i >= po.tail_start:
            if err != 0:
                return OrbitViolation(i, err, zero)
        elif err > po.delta:
            return OrbitViolation(i, err, po.delta)
    return None


def validate_pseudo_orbit(system: FiniteMetricSystem, po: PseudoOrbit) -> bool:
    return first_violation(system, po) is None


@dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of a system-level shadowing or slimit check."""

    prop: str
    delta: Fraction
    eps: Fraction
    passed: bool
    witness: PseudoOrbit | None
    states_explored: int

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "delta": format_rational(self.delta),
            "eps": format_rational(self.eps),
            "pass": self.passed,
            "witness": None if self.witness is None else self.witness.to_json(),
            "states_explored": self.states_explored,
        }


# ---------------------------------------------------------------------------
# per-orbit checks


def is_shadowed(system, po: PseudoOrbit, eps, domain=None) -> int | None:
    """A concrete point tracking a plain pseudo-orbit within eps, if any.

    Reconstruction walks the candidate sets backwards picking the smallest
    index at every choice, so the answer is deterministic.
    """
    if po.kind != PLAIN:
        raise KindMismatch("is_shadowed expects a plain pseudo-orbit")
    eps, dmask = _orbit_inputs(system, po, eps, domain)
    masks = _shadow_masks(system, po.points, eps, dmask)
    if any(m == 0 for m in masks):
        return None
    return _backtrack(system, masks)


def is_limit_shadowed(system, po: PseudoOrbit, eps, domain=None) -> int | None:
    """A point eps-tracking the whole orbit and merging into its tail."""
    if po.kind != EVENTUALLY_EXACT:
        raise KindMismatch("is_limit_shadowed expects an eventually-exact pseudo-orbit")
    eps, dmask = _orbit_inputs(system, po, eps, domain)
    t = po.tail_start
    masks = _shadow_masks(system, po.points[: t + 1], eps, dmask)
    if any(m == 0 for m in masks):
        return None
    final = masks[t] & _asymp_masks(system, system._balls(eps, dmask, dmask))[po.points[t]]
    if final == 0:
        return None
    masks[t] = final
    return _backtrack(system, masks)


# ---------------------------------------------------------------------------
# system-level checks


def check_shadowing_property(
    system, delta, eps, domain=None, *, state_cap=DEFAULT_STATE_CAP
) -> ShadowVerdict:
    """Decide whether every delta pseudo-orbit is eps-shadowed.

    Explores the determinized automaton breadth-first; fails exactly when
    some reachable state has an empty candidate set, and then reports the
    lexicographically smallest shortest failing prefix as witness.
    """
    return _decide(system, delta, eps, domain, state_cap, ("shadowing",))[0]


def check_slimit_property(
    system, delta, eps, domain=None, *, state_cap=DEFAULT_STATE_CAP
) -> ShadowVerdict:
    """Decide whether every eventually-exact delta pseudo-orbit is
    eps-limit shadowed.

    Any reachable state (p, Y) extends to the pseudo-orbit that follows
    the realizing prefix and then the exact orbit of p, so the check
    requires a candidate in Y that merges into p's orbit. Failures are
    reported as the prefix plus tail marker.
    """
    return _decide(system, delta, eps, domain, state_cap, ("slimit",))[0]


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass(frozen=True)
class OracleVerdict:
    """Result of exhaustive bounded-length enumeration."""

    prop: str
    delta: Fraction
    eps: Fraction
    passed: bool
    witness: PseudoOrbit | None
    nodes_explored: int


def brute_force_oracle(
    system,
    delta,
    eps,
    prop: str = "shadowing",
    max_len: int = DEFAULT_MAX_LEN,
    domain=None,
) -> OracleVerdict:
    """Enumerate every delta chain of up to ``max_len`` points and test it
    against all candidate shadow points directly from the distance table.

    Kept deliberately separate from the automaton code path: candidate
    survivors are carried as plain sets, merging is decided by walking
    pair orbits, and the search is a depth-first iterative deepening over
    the chain tree. Shortest failing chains are found first; within a
    length, the lexicographically smallest. Guards refuse instances that
    are too large to enumerate at desk scale.
    """
    if prop not in ("shadowing", "slimit"):
        raise BadParams(f"unknown property {prop!r}")
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    check_int("max_len", max_len, 2)
    if system.n > _ORACLE_POINT_GUARD:
        raise TooLarge(f"{system.n} points exceeds the oracle guard {_ORACLE_POINT_GUARD}")
    if max_len > _ORACLE_LENGTH_GUARD:
        raise TooLarge(f"max_len {max_len} exceeds the oracle guard {_ORACLE_LENGTH_GUARD}")
    pts = sorted(bits(_domain_mask(system, domain)))
    dist = system.dist
    fmap = system.map
    balls = {p: frozenset(q for q in pts if dist[p][q] <= eps) for p in pts}
    succ = {p: tuple(q for q in pts if dist[fmap[p]][q] <= delta) for p in pts}

    merge_memo: dict[tuple[int, int], bool] = {}

    def merges(x: int, p: int) -> bool:
        walked: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        cx, cp = x, p
        while True:
            if cx == cp:
                result = True
                break
            key = (cx, cp)
            cached = merge_memo.get(key)
            if cached is not None:
                result = cached
                break
            if key in seen or dist[cx][cp] > eps:
                result = False
                break
            seen.add(key)
            walked.append(key)
            cx, cp = fmap[cx], fmap[cp]
        for key in walked:
            merge_memo[key] = result
        return result

    if prop == "shadowing":
        def fails(p: int, survivors: frozenset[int]) -> bool:
            return not survivors
    else:
        def fails(p: int, survivors: frozenset[int]) -> bool:
            return not any(merges(y, p) for y in survivors)

    memo: dict[tuple[int, frozenset[int]], int] = {}
    nodes = 0
    witness_points: tuple[int, ...] | None = None

    def extend(p: int, survivors: frozenset[int], path: list[int], limit: int) -> bool:
        nonlocal nodes, witness_points
        nodes += 1
        remaining = limit - len(path)
        key = (p, survivors)
        if memo.get(key, -1) >= remaining:
            return False
        if remaining == 0:
            if fails(p, survivors):
                witness_points = tuple(path)
                return True
            memo[key] = 0
            return False
        for q in succ[p]:
            step = frozenset(
                fmap[y] for y in survivors if dist[fmap[y]][q] <= eps
            )
            path.append(q)
            if extend(q, step, path, limit):
                return True
            path.pop()
        if remaining > memo.get(key, -1):
            memo[key] = remaining
        return False

    for limit in range(2, max_len + 1):
        for x0 in pts:
            if extend(x0, balls[x0], [x0], limit):
                witness = (
                    PseudoOrbit.plain(witness_points, delta)
                    if prop == "shadowing"
                    else PseudoOrbit.eventually_exact(
                        witness_points, delta, len(witness_points) - 1
                    )
                )
                return OracleVerdict(prop, delta, eps, False, witness, nodes)
    return OracleVerdict(prop, delta, eps, True, None, nodes)


# ---------------------------------------------------------------------------
# internals


def _orbit_inputs(system, po: PseudoOrbit, eps, domain) -> tuple[Fraction, int]:
    """eps and the mask of ``domain``, once ``po`` is found to keep its bounds."""
    eps = parse_nonnegative(eps)
    hit = first_violation(system, po)
    if hit is not None:
        raise BadParams(
            f"pseudo-orbit breaks its bound at position {hit.position}: "
            f"error {hit.error} > {hit.bound}"
        )
    return eps, _domain_mask(system, domain)


def _domain_mask(system: FiniteMetricSystem, domain) -> int:
    if domain is None:
        return (1 << system.n) - 1
    pts = check_points(system, domain)
    if not pts:
        raise EmptyDomain("domain must contain at least one point")
    for p in pts:
        if system.map[p] not in pts:
            raise DomainNotInvariant(
                f"domain is not forward-invariant: f({p}) = {system.map[p]} leaves it"
            )
    return mask_of(pts)


def _shadow_masks(system, points, eps: Fraction, dmask: int) -> list[int]:
    image = system._image
    balls = system._balls(eps, mask_of(points), dmask)
    masks = [balls[points[0]]]
    for x in points[1:]:
        masks.append(image(masks[-1]) & balls[x])
    return masks


def _backtrack(system, masks: list[int]) -> int:
    preimage = system._preimage
    chosen = min_bit(masks[-1])
    for mask in reversed(masks[:-1]):
        chosen = min_bit(mask & preimage(1 << chosen))
    return chosen


def _asymp_masks(system, balls: dict[int, int]) -> list[int]:
    """masks[p] holds every x merging exactly into p's orbit while staying
    within eps beforehand: the least family with p in masks[p] and x in
    masks[p] whenever x is in the eps ball balls[p] and f(x) is in
    masks[f(p)].

    masks[p] reads only masks[f(p)], so the family is solved along the
    orbits of f. From each unsolved point of the domain (the keys of
    ``balls``), walk f until a solved point or a point of this walk. A
    cycle c_0 -> ... -> c_{m-1} -> c_0 closed by the walk starts at
    masks[c_0] = {c_0} and is swept against the map (c_{m-1}, ..., c_0),
    each point set to {c} | balls[c] & f^-1(masks[f(c)]); after that one
    sweep the sweep goes on around the cycle with only the bits the last
    point gained, until a point gains none. The rest of the walk is then
    solved nearest the cycle first, each point once, by that same
    equation. Each point costs one preimage, and a cycle one more per
    further step of its sweep; a fixed point is a cycle of one.
    """
    fmap = system.map
    preimage = system._preimage
    masks = [0] * system.n
    walked = bytearray(system.n)
    for start in balls:
        if walked[start]:
            continue
        walked[start] = 1
        p = fmap[start]
        walk = [start]
        while not walked[p]:
            walked[p] = 1
            walk.append(p)
            p = fmap[p]
        if not masks[p]:
            # p is on this walk, so the walk closed a cycle at p.
            at = walk.index(p)
            cycle = walk[at:]
            del walk[at:]
            masks[p] = 1 << p
            for c in reversed(cycle):
                masks[c] = (1 << c) | balls[c] & preimage(masks[fmap[c]])
            gained = masks[p] ^ (1 << p)
            if gained:
                for c in itertools.cycle(cycle[::-1]):
                    gained = balls[c] & preimage(gained) & ~masks[c]
                    if not gained:
                        break
                    masks[c] |= gained
        for p in reversed(walk):
            masks[p] = (1 << p) | balls[p] & preimage(masks[fmap[p]])
    return masks


def _decide(system, delta, eps, domain, state_cap, props, exact=True):
    """The verdicts of ``props`` (one or both of "slimit" and "shadowing"),
    in that order, from one BFS over one ball table per radius. The balls
    come from the system's own memo (``system._balls``), so a ball built by
    an earlier search or delta graph on the same system is read, not
    rebuilt. The BFS reads the delta table only at the images f(p), so it
    is taken only there; at delta = eps it reads the eps table's cached
    balls.
    ``exact=False`` is ``_explore``'s witness mode: the same verdicts,
    witnesses and cap outcomes, but a failing verdict counts the states
    visited where the search stopped. The orbit search below is
    always exact.

    A check of the whole of a system that the shift i -> i + 1 maps onto
    itself (``system._rotation_step``) runs ``_explore_orbits`` instead,
    with the same verdicts, counts and cap outcomes.

    Where ``_forced_count`` counts the states, no search runs, and every
    verdict passes with that count."""
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    dmask = _domain_mask(system, domain)
    count = _forced_count(system, delta, eps, dmask, state_cap)
    if count is not None:
        return tuple(ShadowVerdict(prop, delta, eps, True, None, count) for prop in props)
    step = system._rotation_step if dmask == (1 << system.n) - 1 else None
    if step is not None:
        count, found = _explore_orbits(system, step, delta, eps, props, state_cap)
    else:
        balls = system._balls(eps, dmask, dmask)
        succ_balls = system._balls(delta, system._image(dmask), dmask)
        failing, screen = _predicates(system, balls, props)
        states, found = _explore(system, succ_balls, balls, failing, state_cap, exact, screen)
        count = len(states)
    verdicts = []
    for prop, hit in zip(props, found):
        if hit is None:
            verdicts.append(ShadowVerdict(prop, delta, eps, True, None, count))
        else:
            visited, path = hit
            tail = len(path) - 1 if prop == "slimit" else None
            witness = PseudoOrbit(path, delta, tail)
            verdicts.append(ShadowVerdict(prop, delta, eps, False, witness, visited))
    return tuple(verdicts)


def _predicates(system, balls: dict[int, int], props) -> tuple[tuple, list[int]]:
    """``_explore``'s failing predicates for ``props`` over the eps balls
    ``balls``, and its screen: (p, Y) fails shadowing when Y is empty and
    slimit when Y misses p's merge set. An empty Y misses every merge set
    too, so where slimit is asked the merge sets screen for both; for
    shadowing alone the screen is all ones."""
    asymp = _asymp_masks(system, balls) if "slimit" in props else None
    tests = {"shadowing": lambda p, y: y == 0, "slimit": lambda p, y: y & asymp[p] == 0}
    screen = [-1] * system.n if asymp is None else asymp
    return tuple(tests[prop] for prop in props), screen


def _forced_count(system, delta, eps, dmask: int, state_cap) -> int | None:
    """The number of states ``_explore`` visits on the domain C of
    ``dmask`` where one of two rules forces both properties to pass, else
    None. Past the state cap it raises ``Inconclusive(cap + 1)``, as
    ``_explore`` does.

    (a) delta and eps below the least distance: every ball is {p}, so the
    states are the (p, {p}), the only child of (p, {p}) is (f(p), {f(p)}),
    and p lies in its own merge set. The count is |C|.

    (b) C inside the eps ball of each of its points (read lowest point
    first, up to the first ball that C leaves): every state at BFS level k
    is then (q, f^k(C)), and its children are the (q', f^(k+1)(C)) for q'
    in ball(f(q), delta) & C. Each f^k(C) holds the cycles of f in C, which
    f permutes, so it meets the merge set of every point. The sets f^k(C)
    shrink, so a level whose set is new has visited none of its states.
    Each level counts its new points and reaches the delta balls of their
    images, once per distinct set of new points; below the least distance
    the reach is the image. When f(C) = C no delta ball is read."""
    cap = _checked_cap(state_cap)
    least = system._least_distance
    centres = least is None or system._bound(delta) < least
    if centres and (least is None or system._bound(eps) < least):
        count = dmask.bit_count()
        if count > cap:
            raise Inconclusive(cap + 1, state_cap)
        return count
    balls = system._balls
    if any(balls(eps, 1 << p, -1)[p] & dmask != dmask for p in bits(dmask)):
        return None
    image = system._image
    reached: dict[int, int] = {}
    y = new = visited = dmask
    count = 0
    while new:
        count += new.bit_count()
        if count > cap:
            raise Inconclusive(cap + 1, state_cap)
        child = image(y)
        if child != y:
            visited = 0
        elif visited == dmask:
            break
        reach = reached.get(new)
        if reach is None:
            targets = image(new)
            if not centres:
                targets = reduce(or_, balls(delta, targets, -1).values(), 0) & dmask
            reach = reached[new] = targets
        new = reach & ~visited
        visited |= new
        y = child
    return count


def _checked_cap(state_cap) -> int:
    """The state cap as an int, ``sys.maxsize`` for None."""
    return sys.maxsize if state_cap is None else check_int("state_cap", state_cap, 0)


def _explore_orbits(system, step, delta, eps, props, state_cap):
    """(count, found) for ``props`` on the whole of a system with
    f(i) = i + ``step`` mod n whose table the shift s: i -> i + 1 maps onto
    itself: ``found`` as ``_explore`` gives it, and ``count`` the number of
    states ``_explore`` visits.

    s is an isometry that commutes with f, so it maps each level of
    ``_explore``'s BFS onto itself, and it moves the point of every state,
    so each level is a union of orbits of exactly n states, each with one
    state at point 0. The search visits those states (0, Y) alone, keyed by
    Y. The child of (0, Y) at q, for q in the delta ball of f(0) = step,
    is (q, f(Y) & ball(q)), whose orbit holds
    (0, rot(Y, step - q) & ball(0)). f is a bijection, so no other orbit
    merges into 0's: the merge set asymp[0] is {0}, and (0, Y) fails
    slimit when 0 is not in Y.

    Every count is n times the number of sets visited. ``_explore``
    inserts whole levels and checks the cap per state, so it raises
    Inconclusive(cap + 1) in the first level whose count passes the cap;
    this search raises it at the first set that takes n times its count
    past the cap, in that same level.
    """
    n = system.n
    cap = _checked_cap(state_cap)
    ball = system._balls(eps, 1, -1)[0]
    # rot(Y, step - q) & ball(0) is (Y | Y << n) >> right & ball(0).
    rights = {q: n - (step - q) % n for q in bits(system._balls(delta, 1 << step, -1)[step])}
    tests = {"shadowing": lambda y: y == 0, "slimit": lambda y: not y & 1}
    failing = [tests[prop] for prop in props]
    level_of = {ball: 0}
    if n > cap:
        raise Inconclusive(cap + 1, state_cap)
    level = [ball]
    depth = 0
    found = [None] * len(props)
    while level:
        for i, fails in enumerate(failing):
            if found[i] is None and any(map(fails, level)):
                walk = _least_failing_walk(n, ball, rights, level_of, depth, fails)
                found[i] = (n * len(level_of), walk)
        if None not in found:
            break
        depth += 1
        nxt = []
        for y in level:
            doubled = y | y << n
            for right in rights.values():
                child = doubled >> right & ball
                if child not in level_of:
                    level_of[child] = depth
                    nxt.append(child)
                    if n * len(level_of) > cap:
                        raise Inconclusive(cap + 1, state_cap)
        level = nxt
    return n * len(level_of), found


def _least_failing_walk(n, ball, rights, level_of, length, fails) -> tuple[int, ...]:
    """The witness ``_explore`` reports for ``fails`` at level ``length``
    on the system ``_explore_orbits`` searches: the lexicographically least
    walk x_0, ..., x_length whose last state fails. Shifting a walk by
    -x_0 keeps it failing, so that walk starts at 0.

    An iterative depth-first search tries the successors of each point in
    ascending order and returns the first failing walk. A child is followed
    only at its own level: one that ``_explore_orbits`` reached in fewer
    steps would lead to a failing state before level ``length``. So the
    level of a set fixes the steps left from it, and ``dead`` keys each
    (set, steps left) pair that reaches no failing state by the set alone.
    Each set is expanded at most once.
    """
    dead = set()
    path: list[int] = []
    stack = [(None, iter([(0, ball)]))]
    while True:
        for q, child in stack[-1][1]:
            if level_of.get(child) != len(path) or child in dead:
                continue
            if len(path) == length:
                if fails(child):
                    return (*path, q)
                continue
            path.append(q)
            stack.append((child, _orbit_children(n, ball, rights, q, child)))
            break
        else:
            dead.add(stack.pop()[0])
            path.pop()


def _orbit_children(n, ball, rights, x, y):
    """(q, Y') for each successor q of the point x, ascending, where the
    child of the state (x, rot(y, x)) at q is (q, rot(Y', q))."""
    doubled = y | y << n
    for r in sorted(rights, key=lambda r: (x + r) % n):
        yield (x + r) % n, doubled >> rights[r] & ball


def _successor_row(m: int, balls: dict[int, int], parents: dict) -> tuple:
    """``_explore``'s row for the successor mask m: (q, balls[q],
    parents[q]) for each q in m, ascending."""
    return tuple((q, balls[q], parents[q]) for q in bits(m))


def _explore(system, succ_balls, balls, failing, state_cap, exact=True, screen=None):
    """Level-synchronized BFS over determinized states, for one or more
    failing predicates.

    Returns (states, found). ``states`` lists every discovered state in
    discovery order. ``found[i]`` is None when ``failing[i]`` holds on no
    reachable state, and otherwise is the visited count and the
    reconstructed path of the first state, in level order, where it holds
    on the first level where it holds at all. Level order is the
    lexicographic order of the recorded shortest prefixes, so that path is
    the lexicographically smallest shortest failing prefix. Each open
    predicate is tested once per level, before the level is expanded, on
    the states of that level that passed the screen; the search stops once
    every predicate has held or no state is left. ``state_cap`` (None, or
    an int >= 0) is checked on every inserted state.

    ``screen`` (one mask per point, or None to screen nothing) must pass
    every state where a predicate can hold: a state (q, Y) can fail only
    if Y & screen[q] == 0. Each new state is screened as it is inserted,
    and only those it passes, kept in insertion order, reach the
    predicates; the first level is tested in full. Every failing state
    passes and the kept list keeps level order, so the first failing
    state, its path and its count are those of the unscreened search.
    The exact search still tests at every level boundary, with an empty
    list where nothing passed.

    With ``exact=False`` (witness mode) the open predicates are tested on
    the children of each state as soon as it is expanded, and the search
    stops inside the level being built once every predicate has held and
    the parents left in that level, at most one child per domain point
    each, could not take the count past ``state_cap``; otherwise the level
    is finished as in the exact search. Children are inserted in level
    order, so each predicate's first failing state, its path and every
    ``Inconclusive`` are the exact search's; only the count of a failing
    predicate is smaller, and ``states`` stops with the search.

    The children of a state (p, Y) are the states (q, image(Y) & balls[q])
    for q in p's successor mask succ_balls[f(p)], over the eps ball table
    of the domain and the delta table of its images, so they depend on the
    pair (Y, successor mask) alone. Once one state with that pair has been
    expanded, every child of a later state with the same pair is already
    visited, and expanding it again would insert nothing. So such a state
    is skipped, and no visited state, parent, discovery order, count,
    witness or cap outcome changes.
    Only the points whose successor mask another point shares keep a set
    of expanded Y; where every point has its own mask, as on rotations,
    nothing is kept or probed. A point's entry (row, expanded sets) is
    built when its first state is expanded, and each row of successors
    when the first point with that mask is, not before the search.

    Far fewer candidate sets than states are reachable (32 sets for 2,048
    states on north-south:64 at delta 1/16, eps 1/2), so each set's image
    is computed once by ``system._image`` (a translation run at a time
    where the map has fewer runs than Y has points, else a byte of Y at a
    time from the system's byte memo) and kept for the rest of this call.
    ``parents[q]`` maps each visited Y at point q to its BFS parent, so a
    child costs one AND and one int-keyed probe, and its tuple is built
    only when it is new.
    """
    cap = _checked_cap(state_cap)
    fmap = system.map
    domain = list(balls)
    parents: dict[int, dict[int, tuple[int, int] | None]] = {p: {} for p in domain}
    sharers = Counter(succ_balls[fmap[p]] for p in domain)
    rows: dict[int, tuple] = {}
    succ: list[tuple | None] = [None] * len(fmap)
    image = system._image
    images: dict[int, int] = {}
    # A zero mask passes every state.
    if screen is None:
        screen = [0] * len(fmap)

    states: list[tuple[int, int]] = []
    for p in domain:
        parents[p][balls[p]] = None
        states.append((p, balls[p]))
        if len(states) > cap:
            raise Inconclusive(len(states), state_cap)
    found = [None] * len(failing)
    start = 0
    screened = states[:]
    while start < len(states):
        level = states[start:]
        # Witness mode has tested every later level as it was built.
        if exact or not start:
            _first_failing(failing, found, screened, parents, len(states))
        start = len(states)
        screened = []
        if None not in found:
            break
        for expanded, state in enumerate(level, 1):
            p, y = state
            entry = succ[p]
            if entry is None:
                m = succ_balls[fmap[p]]
                entry = rows.get(m)
                if entry is None:
                    row = _successor_row(m, balls, parents)
                    entry = rows[m] = (row, set() if sharers[m] > 1 else None)
                succ[p] = entry
            row, done = entry
            if done is not None:
                if y in done:
                    continue
                done.add(y)
            iy = images.get(y)
            if iy is None:
                iy = images[y] = image(y)
            for q, ball, seen in row:
                child = iy & ball
                if child not in seen:
                    seen[child] = state
                    new = (q, child)
                    states.append(new)
                    if len(states) > cap:
                        raise Inconclusive(len(states), state_cap)
                    if not child & screen[q]:
                        screened.append(new)
            if not exact:
                if screened and None in found:
                    _first_failing(failing, found, screened, parents, len(states))
                    screened = []
                if None not in found:
                    if len(states) + (len(level) - expanded) * len(domain) <= cap:
                        return states, found
    return states, found


def _first_failing(failing, found, states, parents, count) -> None:
    """Record in ``found`` (as ``_explore`` gives it, with ``count``) the
    first of ``states`` where each predicate not yet found holds.
    ``_explore`` passes the states that its screen let through since the
    last call, in insertion order: the whole first level, then, in the
    exact search, one level's at each level boundary, even none, so this
    runs once per level; in witness mode, the children of a parent after
    its expansion, where the screen passed any."""
    for i, fails in enumerate(failing):
        if found[i] is None:
            bad = next((s for s in states if fails(*s)), None)
            if bad is not None:
                found[i] = (count, _path_to(parents, bad))


def _path_to(parents, state) -> tuple[int, ...]:
    points = []
    while state is not None:
        p, y = state
        points.append(p)
        state = parents[p][y]
    return tuple(reversed(points))
