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
- ``shadow._decide``, which answers some checks without a search, returns
  the verdicts that its BFS (``_explore``, or ``_explore_orbits`` on the
  whole of a shift-invariant system) returns when run directly on the
  same ball tables, in exact and in witness mode, or the same
  ``Inconclusive`` text and count, at state caps None, |domain| - 1 and
  |domain|, and, where the domain lies inside every eps ball, at the
  uncapped count - 1 and count;
- each level of ``refine_ladder`` over 0, every distance value, its
  half and the midpoint to the next, in decreasing order, is the
  decomposition of that delta's graph on its own, and each refinement
  entry names the coarse class holding the fine class: a ladder reuses a
  level whose graph equals the one before, as graphs in one regime of
  delta do;
- ``decompose`` gives every graph on the n points (each point's
  successors any subset of the points) the classes, class masks and
  separations read off its transitive closure;
- each merge set (``shadow._asymp_masks``) holds the points whose orbit
  meets the point's orbit without leaving eps first, found by walking the
  pair of orbits;
- ``run_harness`` over those (delta, eps) never reports ``fails`` for
  ``slimit_implies_shadowing``;
- each shadowing verdict on a domain keeps the two laws of ``CoreLaws``,
  read off the whole system's verdicts at the same (delta, eps): (S),
  where slimit passes, on every domain inside the recurrent set, and (I),
  where shadowing passes, on every class core whose separation exceeds
  eps. The harness's class checks state these laws instead of searching;
- for each bijective map f, at each of those deltas, the terminal classes
  of the inverse map's delta graph are f's initial classes, and f maps
  each class onto itself: the identity that the harness's
  ``inverse_cross_check`` records without computing it.

The "growing" line lists point 1 first and point 0 second, so point 0 lies
strictly inside the line: from three points on, a domain can lie inside
the ball of its lowest point and leave the ball of another.

``test_small_scope.py`` runs it for n <= 3. Run it for a larger n as a
script, with the package installed or ``src`` on ``PYTHONPATH``:
``python tests/small_scope.py 4``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import fields, replace
from fractions import Fraction

from chainshadow import (
    Inconclusive,
    PseudoOrbit,
    ShadowVerdict,
    brute_force_oracle,
    build_delta_graph,
    check_shadowing_property,
    check_slimit_property,
    decompose,
    invariant_core,
    make_system,
    refine_ladder,
    run_harness,
)
from chainshadow import shadow as shadow_mod
from chainshadow.bits import bits, to_frozenset
from chainshadow.chain import DeltaGraph
from chainshadow.verify import FAILS, SLIMIT_IMPLIES_SHADOWING

USAGE = "usage: python tests/small_scope.py N  (check every map on N points)"

# (props, exact) of each call of ``shadow._decide`` that ``same_decisions``
# compares: both properties in exact mode, as the public checks run them,
# and in the harness's witness mode.
DECISIONS = ((("slimit", "shadowing"), True), (("slimit", "shadowing"), False))


def tables(n: int) -> dict[str, list[list[int]]]:
    """Line tables with equal gaps and with gaps that double and halve
    along the line, and the ultrametric d(i, j) = bit length of i ^ j. The
    growing line puts point 0 at 1 and point 1 at 0."""
    growing = [2**i - 1 for i in range(n)]
    growing[:2] = growing[1::-1]
    lines = {
        "equal": range(n),
        "growing": growing,
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
    """Run every check on every map of n points and every graph on them,
    and return the number of answers compared with the oracle, the search
    or the closure. The first disagreement raises AssertionError, naming
    the table, map, domain and (delta, eps), or the graph."""
    guard = shadow_mod._ORACLE_LENGTH_GUARD
    compared = 0
    for name, rows in tables(n).items():
        for fmap in itertools.product(range(n), repeat=n):
            system = make_system(rows, fmap, invertible=len(set(fmap)) == n)
            values = system.distance_values
            scales = sorted({Fraction(0), *values, *(v / 2 for v in values)})
            pairs = list(itertools.product(scales, repeat=2))
            laws = {delta: CoreLaws(system, delta) for delta in scales}
            whole = {}  # (delta, eps): the whole system's verdicts, domain None first
            for domain in invariant_domains(fmap):
                points = range(n) if domain is None else sorted(domain)
                for eps in scales:
                    tracks = merge_sets(system, eps, domain)
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
                    both = shadow_mod._decide(system, delta, eps, domain, cap, props)
                    _require(both == tuple(singles), f"joint check differs: {where}")
                    if domain is None:
                        whole[delta, eps] = both
                    for law in laws[delta].laws(whole[delta, eps], domain, eps):
                        _require(singles[1].passed, f"shadowing breaks {law}: {where}")
                        compared += 1
                    compared += same_decisions(system, delta, eps, domain, where)
            compared += ladder_law(system, f"{name} table, map {fmap}")
            if system.invertible:
                for delta in scales:
                    _require(
                        inverse_identity(system, delta),
                        f"inverse identity: {name} table, map {fmap}, delta {delta}",
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
    return compared + graph_scope(n)


class CoreLaws:
    """The laws that make the harness's class checks theorems, at one
    delta of one system. Given the whole system's slimit and shadowing
    verdicts at (delta, eps), shadowing passes at (delta, eps) on a
    forward-invariant domain K:

    - (S) if whole-system slimit passes and K lies inside the
      delta-chain-recurrent set (so on every class core);
    - (I) if whole-system shadowing passes and K is the invariant core of
      a class whose separation exceeds eps.

    Neither law holds without its hypothesis (``tests/test_verify.py``,
    ``TestCoreLaws``)."""

    def __init__(self, system, delta):
        dec = decompose(build_delta_graph(system, delta))
        self.points = frozenset(system.points)
        self.recurrent = frozenset().union(*dec.classes)
        cores = (invariant_core(system, cls) for cls in dec.classes)
        # A class core and the separation of its class; None: no other class.
        self.separation = {core: sep for core, sep in zip(cores, dec.separation) if core}

    def laws(self, whole, domain, eps) -> list[str]:
        """The laws whose hypotheses hold on ``domain`` (None for every
        point) at eps, given ``whole``, the whole system's slimit and
        shadowing verdicts at (delta, eps)."""
        slimit, shadowing = whole
        points = self.points if domain is None else domain
        laws = []
        if slimit.passed and points <= self.recurrent:
            laws.append("(S)")
        if shadowing.passed and points in self.separation:
            separation = self.separation[points]
            if separation is None or separation > eps:
                laws.append("(I)")
        return laws


def law_counterexamples(system, delta, eps, law: str) -> list[frozenset[int] | None]:
    """Every forward-invariant domain on which ``check_shadowing_property``
    fails at (delta, eps) although the hypotheses of ``law``, "(S)" or
    "(I)" of ``CoreLaws``, hold there."""
    laws = CoreLaws(system, delta)
    whole = (check_slimit_property(system, delta, eps), check_shadowing_property(system, delta, eps))
    return [
        domain
        for domain in invariant_domains(system.map)
        if law in laws.laws(whole, domain, eps)
        and not check_shadowing_property(system, delta, eps, domain).passed
    ]


def inverse_classes(system, delta):
    """At ``delta``, for a bijective map f: the terminal classes of the
    inverse map's delta graph, f's initial classes, and f's classes, each
    a set of point sets."""
    # Sorting the points by their image inverts a bijection.
    inverse = tuple(sorted(system.points, key=system.map.__getitem__))
    forward = decompose(build_delta_graph(system, delta))
    backward = decompose(build_delta_graph(replace(system, map=inverse), delta))
    terminal = {backward.classes[i] for i in backward.terminal_classes()}
    initial = {forward.classes[i] for i in forward.initial_classes()}
    return terminal, initial, set(forward.classes)


def inverse_identity(system, delta) -> bool:
    """Whether, at ``delta``, the terminal classes of the inverse map's
    delta graph are f's initial classes and f maps each class onto itself."""
    terminal, initial, classes = inverse_classes(system, delta)
    onto = all(frozenset(map(system.map.__getitem__, cls)) == cls for cls in classes)
    return terminal == initial and onto


def ladder_law(system, where: str) -> int:
    """Compare each level of ``refine_ladder`` over 0, every distance
    value, its half and the midpoint to the next, in decreasing order,
    with its delta's graph decomposed on its own, field by field, and each
    refinement entry with the coarse class of the fine class's least
    point; return the number of levels compared."""
    values = system.distance_values
    mids = ((a + b) / 2 for a, b in zip(values, values[1:]))
    deltas = sorted({Fraction(0), *values, *(v / 2 for v in values), *mids}, reverse=True)
    ladder = refine_ladder(system, deltas)
    for delta, level in zip(deltas, ladder.levels):
        alone = decompose(build_delta_graph(system, delta))
        _require(
            _fields(level) == _fields(alone),
            f"ladder level at {delta} differs from its graph decomposed: {where}",
        )
    for coarse, fine, mapping in zip(ladder.levels, ladder.levels[1:], ladder.refinement):
        parents = [coarse.class_index[min(cls)] for cls in fine.classes]
        inside = all(cls <= coarse.classes[i] for cls, i in zip(fine.classes, mapping))
        _require(
            list(mapping) == parents and inside,
            f"ladder refinement at {fine.delta} differs: {where}",
        )
    return len(deltas)


def _fields(dec) -> list:
    """Every field of a decomposition, ``delta`` included."""
    return [getattr(dec, f.name) for f in fields(dec)]


def explored(system, delta, eps, domain, failing, state_cap, exact=True):
    """``shadow._explore`` run directly for ``failing`` over the eps balls
    of the domain and the delta balls of its images: (states, found)."""
    dmask = shadow_mod._domain_mask(system, domain)
    balls = system._balls(Fraction(eps), dmask, dmask)
    succ_balls = system._balls(Fraction(delta), system._image(dmask), dmask)
    return shadow_mod._explore(system, succ_balls, balls, failing, state_cap, exact)


def reachable_states(system, delta, eps, domain=None, state_cap=shadow_mod.DEFAULT_STATE_CAP):
    """Every state (p, Y) of that BFS, Y as a mask, in discovery order:
    ``explored`` with a predicate that never holds."""
    return explored(system, delta, eps, domain, (lambda p, y: False,), state_cap)[0]


def level_ends(system, delta, eps, domain=None) -> list[int]:
    """The state count at the end of each level of the plain BFS
    (``reachable_states`` with no cap), read off its discovery order: a
    state's level is one past the level of the first listed state that
    has it as a child."""
    states = reachable_states(system, delta, eps, domain, None)
    dmask = shadow_mod._domain_mask(system, domain)
    balls = system._balls(Fraction(eps), dmask, dmask)
    succ_balls = system._balls(Fraction(delta), system._image(dmask), dmask)
    level = dict.fromkeys(states[: len(balls)], 0)
    for p, y in states:
        image = system._image(y)
        for q in bits(succ_balls[system.map[p]]):
            level.setdefault((q, image & balls[q]), level[p, y] + 1)
    depths = [level[state] for state in states]
    _require(depths == sorted(depths), "the plain BFS does not list its states in level order")
    return [i for i in range(1, len(states)) if depths[i] != depths[i - 1]] + [len(states)]


def merge_sets(system, eps, domain=None) -> tuple[frozenset[int], ...]:
    """Per point, its merge set over the eps balls of the domain, as the
    slimit check reads it (``shadow._asymp_masks``)."""
    dmask = shadow_mod._domain_mask(system, domain)
    masks = shadow_mod._asymp_masks(system, system._balls(Fraction(eps), dmask, dmask))
    return tuple(map(to_frozenset, masks))


def searched(system, delta, eps, domain, state_cap, props, exact=True):
    """What ``shadow._decide`` returns, from its BFS run directly and with
    no verdict forced: ``_explore_orbits`` on the whole of a system that
    the shift maps onto itself, else ``explored``. ``explored`` passes no
    screen, so every new state reaches the predicates, and comparing with
    ``_decide``, which screens them, tests that screen too."""
    delta, eps = Fraction(delta), Fraction(eps)
    dmask = shadow_mod._domain_mask(system, domain)
    step = system._rotation_step if dmask == (1 << system.n) - 1 else None
    if step is not None:
        count, found = shadow_mod._explore_orbits(system, step, delta, eps, props, state_cap)
    else:
        balls = system._balls(eps, dmask, dmask)
        asymp = shadow_mod._asymp_masks(system, balls) if "slimit" in props else None
        tests = {"shadowing": lambda p, y: y == 0, "slimit": lambda p, y: y & asymp[p] == 0}
        failing = tuple(tests[prop] for prop in props)
        states, found = explored(system, delta, eps, domain, failing, state_cap, exact)
        count = len(states)
    verdicts = []
    for prop, hit in zip(props, found):
        if hit is None:
            verdicts.append(ShadowVerdict(prop, delta, eps, True, None, count))
        else:
            visited, path = hit
            witness = PseudoOrbit(path, delta, len(path) - 1 if prop == "slimit" else None)
            verdicts.append(ShadowVerdict(prop, delta, eps, False, witness, visited))
    return tuple(verdicts)


def same_decisions(system, delta, eps, domain, where: str) -> int:
    """Compare ``shadow._decide`` with ``searched`` for each of
    ``DECISIONS`` at state caps None, |domain| - 1 and |domain|, and return
    the number of answers compared; the first difference raises
    AssertionError, after ``where``. Where the domain lies inside every eps
    ball, which ``_decide`` then answers without a search, they are also
    compared at the uncapped search's count - 1 and count."""
    size = system.n if domain is None else len(domain)
    caps = [None, size - 1, size]
    points = range(system.n) if domain is None else domain
    if all(system.dist[p][q] <= eps for p in points for q in points):
        count = searched(system, delta, eps, domain, None, ("shadowing",))[0].states_explored
        caps += [count - 1, count]
    compared = 0
    for cap in dict.fromkeys(caps):
        for props, exact in DECISIONS:
            args = (system, delta, eps, domain, cap, props, exact)
            _require(
                _outcome(shadow_mod._decide, *args) == _outcome(searched, *args),
                f"decision differs from its search at cap {cap}, {props}, exact={exact}: {where}",
            )
            compared += 1
    return compared


def graph_scope(n: int) -> int:
    """Compare ``decompose`` with the closure of every graph on n points
    of the equal-gap line, and return the number of graphs compared."""
    system = make_system(tables(n)["equal"], range(n))
    rows = [tuple(q for q in range(n) if row >> q & 1) for row in range(1 << n)]
    compared = 0
    for succ in itertools.product(rows, repeat=n):
        graph = DeltaGraph(system, Fraction(0), succ)
        dec = decompose(graph)
        got = (dec.classes, dec.class_index, dec.class_reach, dec.class_covers, dec.class_above)
        _require(got + (dec.separation,) == _closure_decomposition(graph), f"graph {succ}")
        compared += 1
    return compared


def _closure_decomposition(graph) -> tuple:
    """(classes, class_index, class_reach, class_covers, class_above,
    separation) read off the transitive closure of ``graph``."""
    n = graph.system.n
    reach = [set(row) for row in graph.succ]  # reach[p]: the ends of walks from p
    for k in range(n):
        for p in range(n):
            if k in reach[p]:
                reach[p] |= reach[k]
    cr = [p for p in range(n) if p in reach[p]]
    mutual = {frozenset(q for q in cr if q in reach[p] and p in reach[q]) for p in cr}
    classes = sorted(mutual, key=min)
    index = tuple(next((i for i, cls in enumerate(classes) if p in cls), None) for p in range(n))
    k = len(classes)

    def reaches(i, j):
        return i != j and any(q in reach[p] for p in classes[i] for q in classes[j])

    below = [[j for j in range(k) if reaches(i, j)] for i in range(k)]
    covers = [[j for j in js if not any(reaches(m, j) for m in js)] for js in below]
    above = [[j for j in range(k) if reaches(j, i)] for i in range(k)]
    dist = graph.system.dist
    separation = tuple(
        min((dist[p][q] for p in cls for q in range(n) if index[q] not in (None, i)), default=None)
        for i, cls in enumerate(classes)
    )
    masks = (tuple(sum(1 << j for j in js) for js in each) for each in (below, covers, above))
    return (tuple(classes), index, *masks, separation)


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
    agree = "agree with the oracle, the search, the closure, the inverse map or a core law"
    print(f"n = {n}: {small_scope(n)} answers {agree}")
