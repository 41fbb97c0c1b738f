"""Pseudo-orbits, per-orbit checks, system-level checks, and the oracle."""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainshadow import (
    BadParams,
    DomainNotInvariant,
    EmptyDomain,
    FiniteMetricSystem,
    GridEntry,
    Inconclusive,
    KindMismatch,
    PseudoOrbit,
    TooLarge,
    brute_force_oracle,
    cantor_identity,
    check_shadowing_property,
    check_slimit_property,
    default_grid,
    doubling,
    first_violation,
    is_limit_shadowed,
    is_shadowed,
    make_system,
    north_south,
    parse_generator_string,
    rotation,
    run_harness,
    tent,
    validate_pseudo_orbit,
)
from chainshadow import shadow as shadow_mod
from chainshadow import system as system_mod
from chainshadow import verify as verify_mod
from chainshadow.bits import _translation_runs, bits, mask_of, to_frozenset
from chainshadow.cli import main as cli_main
from conftest import (
    metric_systems,
    sweep_values,
    system_and_chain,
    system_and_scales,
    widest_table,
)
from small_scope import (
    _outcome,
    level_ends,
    merge_sets,
    reachable_states,
    same_decisions,
    searched,
)
from small_scope import invariant_domains as every_invariant_domain


def _both(system, delta, eps, domain=None, *, state_cap=shadow_mod.DEFAULT_STATE_CAP):
    """The slimit and the shadowing verdict from one exact BFS, as the two
    public checks give them one after the other."""
    return shadow_mod._decide(system, delta, eps, domain, state_cap, ("slimit", "shadowing"))


def _shadow_sets(system, orbit, eps):
    """The candidate position sets Y_i along ``orbit`` that ``is_shadowed``
    reads: Y_0 is the eps-ball around the first point, and each later Y
    the image of the one before it intersected with the next point's ball."""
    masks = shadow_mod._shadow_masks(system, orbit.points, Fraction(eps), (1 << system.n) - 1)
    return [to_frozenset(m) for m in masks]


def reference_explore(system, succ_balls, balls, failing, state_cap):
    """The subset-automaton BFS before image memoisation and the skip of
    repeated (candidate set, successor mask) pairs: every state is
    expanded, the image of a candidate set is recomputed bit by bit for
    every state that holds it, every child goes through one ``insert``
    call into one dict keyed by (p, Y) tuples, and paths are read back
    through that dict. It reads the ball tables ``_explore`` receives:
    ``balls`` (eps, keyed by the domain) and ``succ_balls`` (delta), and
    only the map of ``system``."""
    domain = list(balls)
    succ = {p: tuple(bits(succ_balls[system.map[p]])) for p in domain}

    def image(mask):
        out = 0
        for y in bits(mask):
            out |= 1 << system.map[y]
        return out

    visited = {}

    def insert(state, parent):
        if state in visited:
            return False
        visited[state] = parent
        if state_cap is not None and len(visited) > state_cap:
            raise Inconclusive(len(visited), state_cap)
        return True

    def path_to(state):
        points = []
        while state is not None:
            points.append(state[0])
            state = visited[state]
        return tuple(reversed(points))

    level = []
    for p in domain:
        state = (p, balls[p])
        if insert(state, None):
            level.append(state)
    while level:
        bad = [s for s in level if failing(*s)]
        if bad:
            return visited, min(path_to(s) for s in bad)
        nxt = []
        for state in level:
            p, y = state
            iy = image(y)
            for q in succ[p]:
                child = (q, iy & balls[q])
                if insert(child, state):
                    nxt.append(child)
        level = nxt
    return visited, None


def reference_per_predicate(
    system, succ_balls, balls, failing, state_cap, exact=True, screen=None
):
    """``_explore``'s interface for a tuple of failing predicates, served by
    one ``reference_explore`` run per predicate. ``exact`` and ``screen``
    are taken and not read: each run tests every state, and finishes the
    level where its predicate first holds, as the exact search does."""
    runs = [reference_explore(system, succ_balls, balls, fails, state_cap) for fails in failing]
    found = [None if path is None else (len(visited), path) for visited, path in runs]
    return max((visited for visited, _ in runs), key=len), found


def reference_image_fn(system):
    """``system._image`` before translation runs: f(Y) ORs one bit per
    point of Y."""
    def image(mask):
        out = 0
        for y in bits(mask):
            out |= 1 << system.map[y]
        return out

    return image


def reference_backtrack(system, masks):
    """``_backtrack`` before it read the map's preimage function: a scan of
    each earlier candidate set for the smallest point that the map sends to
    the point chosen after it."""
    chosen = min(bits(masks[-1]))
    for mask in reversed(masks[:-1]):
        chosen = min(y for y in bits(mask) if system.map[y] == chosen)
    return chosen


def reference_asymp_masks(system, balls):
    """``_asymp_masks`` before the orbit-ordered solve: a worklist of
    (t, bits just added to masks[t]); their preimages are the only new
    candidates for masks[p] at each p with f(p) = t."""
    domain = list(balls)
    pre = [0] * system.n
    for x in domain:
        pre[system.map[x]] |= 1 << x
    masks = [0] * system.n
    for p in domain:
        masks[p] = 1 << p
    work = [(p, masks[p]) for p in domain]
    while work:
        t, new = work.pop()
        sources = 0
        for y in bits(new):
            sources |= pre[y]
        for p in bits(pre[t]):
            gain = sources & balls[p] & ~masks[p]
            if gain:
                masks[p] |= gain
                work.append((p, gain))
    return masks


def pair_walk_merge_sets(system, eps, domain):
    """Merge sets read off pair orbits: x is in p's set when the orbits of
    x and p meet before they leave eps of each other or repeat a pair."""
    points = system.points if domain is None else domain

    def walks_to_merge(x, p):
        seen = set()
        while (x, p) not in seen:
            if x == p:
                return True
            if system.dist[x][p] > eps:
                return False
            seen.add((x, p))
            x, p = system.map[x], system.map[p]
        return False

    return [
        {x for x in points if walks_to_merge(x, p)} if p in points else set()
        for p in system.points
    ]


@st.composite
def image_cases(draw):
    """A system on n circle points with a drawn map, and a few masks. The
    map is built from runs, each a translation by a positive, negative
    or zero shift that either wraps mod n or is clamped into the points, or
    it is a random or a constant map. The masks are dense or have at most
    three points."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["runs", "random", "constant"]))
    if kind == "random":
        fmap = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elif kind == "constant":
        fmap = [draw(st.integers(0, n - 1))] * n
    else:
        fmap = []
        while len(fmap) < n:
            start = len(fmap)
            stop = draw(st.integers(start + 1, n))
            shift = draw(st.one_of(st.just(0), st.integers(-n, n)))
            if draw(st.booleans()):
                fmap += [(y + shift) % n for y in range(start, stop)]
            else:
                fmap += [min(max(y + shift, 0), n - 1) for y in range(start, stop)]
    sparse = st.sets(st.integers(0, n - 1), max_size=3).map(mask_of)
    masks = draw(st.lists(st.one_of(st.integers(0, (1 << n) - 1), sparse), max_size=4))
    system = replace(rotation(n, 0), map=tuple(fmap), invertible=len(set(fmap)) == n)
    return system, masks


def invariant_domains(draw, system):
    """None, or the forward closure of a few random points of ``system``."""
    if not draw(st.booleans()):
        return None
    domain = set(draw(st.lists(st.integers(0, system.n - 1), min_size=1, max_size=3)))
    frontier = list(domain)
    while frontier:
        image = system.map[frontier.pop()]
        if image not in domain:
            domain.add(image)
            frontier.append(image)
    return domain


@st.composite
def shared_successor_checks(draw):
    """A system, scales and a forward-invariant domain (or None) where many
    points tend to share one successor mask ball(f(p), delta): identity and
    constant maps, and delta at or past the diameter, beside random maps
    and scales."""
    base = draw(metric_systems(max_n=6))
    n = base.n
    shape = draw(st.sampled_from(("identity", "constant", "random")))
    if shape == "identity":
        fmap = tuple(range(n))
    elif shape == "constant":
        fmap = (draw(st.integers(0, n - 1)),) * n
    else:
        fmap = base.map
    system = make_system(base.dist, fmap, invertible=len(set(fmap)) == n)
    pool = [Fraction(0), *sweep_values(system)]
    wide = [system.diameter, 2 * system.diameter]
    delta = draw(st.one_of(st.sampled_from(wide), st.sampled_from(pool)))
    eps = draw(st.sampled_from(pool))
    return system, delta, eps, invariant_domains(draw, system)


@st.composite
def capped_checks(draw):
    """A system, scales, a forward-invariant domain (or None) and a small
    state cap (or None)."""
    system, delta, eps = draw(system_and_scales())
    domain = invariant_domains(draw, system)
    cap = draw(st.one_of(st.none(), st.integers(0, 12)))
    return system, delta, eps, domain, cap


class TestPseudoOrbit:
    def test_kinds(self):
        plain = PseudoOrbit.plain((0, 1), 1)
        tailed = PseudoOrbit.eventually_exact((0, 1), 1, 1)
        assert plain.kind == "plain" and tailed.kind == "eventually_exact"

    def test_shape_errors(self):
        with pytest.raises(BadParams):
            PseudoOrbit.plain((), 1)
        with pytest.raises(BadParams):
            PseudoOrbit.eventually_exact((0, 1), 1, 2)
        with pytest.raises(BadParams):
            PseudoOrbit.plain((0,), -1)
        for data in (
            [[0], "1"],
            "points",
            None,
            {"delta": "1"},
            {"points": [0]},
            {"points": "01", "delta": "1"},
            {"points": 0, "delta": "1"},
        ):
            with pytest.raises(BadParams):
                PseudoOrbit.from_json(data)

    def test_json_round_trip(self):
        orbit = PseudoOrbit.eventually_exact((0, 4), Fraction(1), 1)
        assert PseudoOrbit.from_json(orbit.to_json()) == orbit
        plain = PseudoOrbit.plain((3,), Fraction(1, 2))
        assert PseudoOrbit.from_json(plain.to_json()) == plain
        with pytest.raises(BadParams):
            PseudoOrbit.from_json({"points": [0], "kind": "wavy", "delta": "1"})
        with pytest.raises(BadParams):
            PseudoOrbit.from_json({"points": [0], "kind": "eventually_exact", "delta": "1"})
        for kind in ({}, {"kind": "plain"}):
            with pytest.raises(BadParams, match="plain orbits take no tail_start"):
                PseudoOrbit.from_json({"points": [0], "delta": "1", "tail_start": 0, **kind})


class TestValidation:
    def test_true_orbit_is_valid(self, parallel):
        orbit = PseudoOrbit.plain(parallel.orbit(0, 3), 0)
        assert validate_pseudo_orbit(parallel, orbit)

    def test_single_jump(self, parallel):
        assert validate_pseudo_orbit(parallel, PseudoOrbit.plain((0, 4), 1))
        bad = PseudoOrbit.plain((0, 3), 1)  # error d(c2, e1) = 4
        assert not validate_pseudo_orbit(parallel, bad)
        hit = first_violation(parallel, bad)
        assert hit == (0, Fraction(4), Fraction(1))

    def test_tail_must_be_exact(self, parallel):
        good = PseudoOrbit.eventually_exact((0, 4, 3), 1, 1)
        assert validate_pseudo_orbit(parallel, good)
        bad = PseudoOrbit.eventually_exact((0, 4, 1), 1, 1)
        hit = first_violation(parallel, bad)
        assert hit is not None and hit.position == 1 and hit.bound == 0


class TestShadowSets:
    def test_identity_single_point(self):
        system = cantor_identity(2)
        orbit = PseudoOrbit.plain((1,), 0)
        sets = _shadow_sets(system, orbit, Fraction(2, 9))
        assert sets == [frozenset({0, 1})]  # the 2/9-ball around 2/9

    def test_parallel_cycles_walk(self, parallel):
        orbit = PseudoOrbit.plain((0, 4, 3), 1)
        assert _shadow_sets(parallel, orbit, 1) == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({1}),
        ]

    def test_huge_eps_never_empties(self, parallel):
        orbit = PseudoOrbit.plain((0, 4, 3, 4, 3), 1)
        sets = _shadow_sets(parallel, orbit, parallel.diameter)
        assert all(sets)

    def test_invalid_orbit_rejected(self, parallel):
        with pytest.raises(BadParams):
            is_shadowed(parallel, PseudoOrbit.plain((0, 3), 1), 1)

    @given(system_and_chain())
    @settings(max_examples=50)
    def test_exactness_against_enumeration(self, data):
        system, _, eps, orbit = data
        sets = _shadow_sets(system, orbit, eps)
        orbits = {x: system.orbit(x, len(orbit.points)) for x in system.points}
        for i in range(len(orbit.points)):
            expected = {
                orbits[x][i]
                for x in system.points
                if all(
                    system.dist[orbits[x][j]][orbit.points[j]] <= eps
                    for j in range(i + 1)
                )
            }
            assert sets[i] == expected


class TestIsShadowed:
    def test_true_orbit_zero_eps(self, parallel):
        orbit = PseudoOrbit.plain(parallel.orbit(3, 4), 0)
        assert is_shadowed(parallel, orbit, 0) == 3

    def test_backtrack_smallest(self, parallel):
        orbit = PseudoOrbit.plain((0, 4, 3), 1)
        shadow = is_shadowed(parallel, orbit, 1)
        assert shadow == 0
        positions = parallel.orbit(shadow, 3)
        assert all(
            parallel.dist[positions[i]][orbit.points[i]] <= 1 for i in range(3)
        )

    def test_certified_impossible(self, parallel):
        orbit = PseudoOrbit.plain((0, 4), 1)
        assert is_shadowed(parallel, orbit, Fraction(1, 2)) is None

    def test_kind_mismatch(self, parallel):
        tailed = PseudoOrbit.eventually_exact((0, 4), 1, 1)
        with pytest.raises(KindMismatch):
            is_shadowed(parallel, tailed, 1)


class TestBacktrack:
    @given(system_and_chain(), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_map_scan(self, data, last):
        """On the nonempty prefix of a pseudo-orbit's candidate sets, with
        the last set cut down to a nonempty part as the slimit check does,
        the preimage walk picks the scan's point."""
        system, _, eps, po = data
        full = (1 << system.n) - 1
        masks = shadow_mod._shadow_masks(system, po.points, eps, full)
        masks = masks[: next((i for i, m in enumerate(masks) if m == 0), len(masks))]
        masks[-1] = masks[-1] & last or masks[-1]
        chosen = shadow_mod._backtrack(system, masks)
        assert chosen == reference_backtrack(system, masks)
        assert all(m >> x & 1 for m, x in zip(masks, system.orbit(chosen, len(masks))))


class TestMergeSets:
    def test_identity_never_merges(self):
        system = cantor_identity(2)
        tracks = merge_sets(system, Fraction(1, 10))
        assert all(tracks[p] == {p} for p in system.points)

    def test_parallel_cycles(self, parallel):
        tracks = merge_sets(parallel, 1)
        assert [sorted(tracks[p]) for p in parallel.points] == [
            [0, 1], [0, 1], [2], [3], [4],
        ]

    def test_sink_with_vacuous_tracking(self, ns6):
        tracks = merge_sets(ns6, ns6.diameter)
        sink = 3
        assert tracks[sink] == set(ns6.points) - {0}  # the source never arrives

    def test_monotone_in_eps(self, parallel):
        small = merge_sets(parallel, Fraction(1, 2))
        large = merge_sets(parallel, 4)
        assert all(small[p] <= large[p] for p in parallel.points)

    def test_restricted_domain(self, parallel):
        tracks = merge_sets(parallel, 1, domain={1, 2})
        assert tracks[1] == {1} and tracks[2] == {2}

    @given(st.data())
    @settings(max_examples=60)
    def test_against_pair_walk(self, data):
        system, _, eps = data.draw(system_and_scales())
        domain = invariant_domains(data.draw, system)
        tracks = merge_sets(system, eps, domain)
        assert list(tracks) == pair_walk_merge_sets(system, eps, domain)


@st.composite
def merge_cases(draw):
    """A system of points on a line, an eps and a forward-invariant domain
    (or None) for the merge-set fixpoint. The map has several cycles with
    tails hung on them, one long tail into a cycle, few image points (many
    points map to each), translation runs that wrap or are clamped, or is
    random. eps is 0, a distance value, or past the diameter."""
    n = draw(st.integers(1, 14))
    positions = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    dist = [[abs(a - b) for b in positions] for a in positions]
    shape = draw(st.sampled_from(["cycles", "tail", "many-to-one", "runs", "random"]))
    fmap = [0] * n
    if shape == "cycles":
        order = draw(st.permutations(range(n)))
        k = draw(st.integers(1, n))
        cuts = sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
        for lo, hi in zip([0, *cuts], [*cuts, k]):
            cycle = order[lo:hi]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                fmap[a] = b
        for i in range(k, n):
            fmap[order[i]] = order[draw(st.integers(0, i - 1))]
    elif shape == "tail":
        order = draw(st.permutations(range(n)))
        for a, b in zip(order, order[1:]):
            fmap[a] = b
        fmap[order[-1]] = order[draw(st.integers(0, n - 1))]
    elif shape == "many-to-one":
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        fmap = [draw(st.sampled_from(targets)) for _ in range(n)]
    elif shape == "runs":
        fmap = []
        while len(fmap) < n:
            start = len(fmap)
            stop = draw(st.integers(start + 1, n))
            shift = draw(st.integers(-n, n))
            if draw(st.booleans()):
                fmap += [(y + shift) % n for y in range(start, stop)]
            else:
                fmap += [min(max(y + shift, 0), n - 1) for y in range(start, stop)]
    else:
        fmap = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    system = make_system(dist, fmap)
    eps = draw(st.sampled_from([Fraction(0), *system.distance_values, system.diameter + 1]))
    return system, eps, invariant_domains(draw, system)


class TestOrbitOrderedMergeSets:
    """``_asymp_masks`` solves the merge-set equations along the orbits of
    the map; the worklist it replaced and the pair-orbit walk are the
    references."""

    @given(merge_cases())
    @example((north_south(6), Fraction(0), None))
    @example((rotation(7, 3), Fraction(3, 7), {0, 1, 2, 3, 4, 5, 6}))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_worklist_and_the_pair_walk(self, data):
        system, eps, domain = data
        dmask = shadow_mod._domain_mask(system, domain)
        balls = system._balls(eps, dmask, dmask)
        masks = shadow_mod._asymp_masks(system, balls)
        assert masks == reference_asymp_masks(system, balls)
        expected = pair_walk_merge_sets(system, eps, domain)
        assert list(merge_sets(system, eps, domain)) == expected
        assert [set(bits(m)) for m in masks] == expected

    @pytest.mark.parametrize("over", [0, 1], ids=["diameter", "past-diameter"])
    def test_north_south_at_the_diameter(self, over):
        """Every orbit but the source's reaches the sink, and at eps past
        every distance nothing stops a point from merging on the way."""
        system = north_south(1024)
        full = (1 << system.n) - 1
        masks = shadow_mod._asymp_masks(system, system._balls(system.diameter + over, full, full))
        assert masks[0] == 1
        assert all(m == full ^ 1 for m in masks[1:])

    def test_at_most_two_preimages_per_point(self):
        """One preimage per point, and one per further step of the sink's
        sweep: 383 on north_south(256) at eps 1/2."""
        system = north_south(256)
        full = (1 << system.n) - 1
        balls = system._balls(Fraction(1, 2), full, full)
        calls = []
        real = system._preimage

        def counting(mask):
            calls.append(mask)
            return real(mask)

        # The system is frozen; its cached preimage function sits in __dict__.
        vars(system)["_preimage"] = counting
        masks = shadow_mod._asymp_masks(system, balls)
        assert len(calls) <= 2 * system.n
        assert masks == reference_asymp_masks(system, balls)

    @given(image_cases())
    @settings(max_examples=200)
    def test_preimage_matches_the_bit_loop(self, data):
        """f^-1(M) by translation runs (M with more points than the map has
        runs) and by preimage masks (the rest) both match the plain loop."""
        system, drawn = data
        n = system.n
        runs = _translation_runs(system.map)
        lowest = [(1 << k) - 1 for k in (len(runs), len(runs) + 1) if k <= n]
        preimage = system._preimage
        for mask in [0, (1 << n) - 1, *lowest, *drawn]:
            expected = mask_of(x for x in range(n) if mask >> system.map[x] & 1)
            assert preimage(mask) == expected, mask


class TestIsLimitShadowed:
    def test_true_orbit(self, parallel):
        orbit = PseudoOrbit.eventually_exact(parallel.orbit(1, 3), 0, 0)
        assert is_limit_shadowed(parallel, orbit, 0) == 1

    def test_jump_blocks_merging(self, parallel):
        orbit = PseudoOrbit.eventually_exact((0, 4), 1, 1)
        assert is_limit_shadowed(parallel, orbit, 1) is None
        assert is_limit_shadowed(parallel, orbit, 4) == 3

    def test_kind_mismatch(self, parallel):
        with pytest.raises(KindMismatch):
            is_limit_shadowed(parallel, PseudoOrbit.plain((0, 4), 1), 1)


class TestSystemChecks:
    def test_rotation_exact_orbits(self):
        system = rotation(4, 1)
        assert check_shadowing_property(system, 0, Fraction(1, 4)).passed
        assert check_slimit_property(system, 0, Fraction(1, 4)).passed
        assert not check_slimit_property(system, Fraction(1, 4), Fraction(1, 4)).passed

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_cantor_below_min_gap(self, depth):
        system = cantor_identity(depth)
        scale = Fraction(1, 3**depth)  # below the min gap 2/3**depth
        assert check_shadowing_property(system, scale, scale).passed
        assert check_slimit_property(system, scale, scale).passed

    def test_parallel_cycles_strictness(self, parallel):
        shadowing = check_shadowing_property(parallel, 1, 1)
        slimit = check_slimit_property(parallel, 1, 1)
        assert shadowing.passed and shadowing.witness is None
        assert not slimit.passed
        assert slimit.witness.points == (0, 4)
        assert slimit.witness.tail_start == 1

    def test_shadowing_failure_witness(self, parallel):
        verdict = check_shadowing_property(parallel, 1, Fraction(1, 2))
        assert not verdict.passed
        witness = verdict.witness
        assert witness.points == (0, 4) and witness.kind == "plain"
        assert validate_pseudo_orbit(parallel, witness)
        assert is_shadowed(parallel, witness, Fraction(1, 2)) is None

    def test_slimit_witness_rejected_by_checker(self, parallel):
        witness = check_slimit_property(parallel, 1, 1).witness
        assert validate_pseudo_orbit(parallel, witness)
        assert is_limit_shadowed(parallel, witness, 1) is None

    def test_north_south_scales(self, ns6):
        gap = Fraction(1, 24)
        failing = check_slimit_property(ns6, gap, gap)
        assert not failing.passed and failing.witness.points == (0, 1)
        assert check_slimit_property(ns6, gap, Fraction(1, 2)).passed

    def test_state_cap(self, parallel):
        with pytest.raises(Inconclusive):
            check_shadowing_property(parallel, 1, 1, state_cap=2)

    @pytest.mark.parametrize("cap", [1, 100, 1000])
    def test_state_cap_checked_per_state(self, cap):
        """The cap stops the search at its first excess state, not at the
        end of the BFS level that crosses it."""
        system = rotation(64, 5)
        for check in (check_shadowing_property, check_slimit_property):
            with pytest.raises(Inconclusive) as caught:
                check(system, Fraction(1, 64), Fraction(1, 8), state_cap=cap)
            assert caught.value.states_explored == cap + 1
        with pytest.raises(Inconclusive) as caught:
            reachable_states(system, Fraction(1, 64), Fraction(1, 8), state_cap=cap)
        assert caught.value.states_explored == cap + 1

    @pytest.mark.parametrize("cap", [True, False, 1.5, "3", -1, Fraction(2)], ids=repr)
    def test_bad_state_cap_is_refused(self, parallel, cap):
        for call in (
            check_shadowing_property,
            check_slimit_property,
            lambda system, *_, state_cap: run_harness(system, state_cap=state_cap),
        ):
            with pytest.raises(BadParams, match="state_cap"):
                call(parallel, 1, 1, state_cap=cap)

    def test_zero_state_cap_stops_at_the_first_state(self, parallel):
        with pytest.raises(Inconclusive) as caught:
            check_shadowing_property(parallel, 1, 1, state_cap=0)
        assert (caught.value.states_explored, caught.value.cap) == (1, 0)

    def test_state_cap_keeps_verdicts_within_it(self, parallel, ns6):
        for system, delta, eps in ((parallel, 1, 1), (ns6, Fraction(1, 24), Fraction(1, 24))):
            for check in (check_shadowing_property, check_slimit_property):
                verdict = check(system, delta, eps)
                capped = check(system, delta, eps, state_cap=verdict.states_explored)
                assert capped == verdict
                with pytest.raises(Inconclusive):
                    check(system, delta, eps, state_cap=verdict.states_explored - 1)

    def test_domain_errors(self, parallel):
        with pytest.raises(EmptyDomain):
            check_shadowing_property(parallel, 1, 1, domain=())
        with pytest.raises(DomainNotInvariant):
            check_shadowing_property(parallel, 1, 1, domain={0})

    def test_restricted_subsystem(self, parallel):
        verdict = check_shadowing_property(
            parallel, Fraction(1, 2), Fraction(1, 2), domain={1, 2}
        )
        assert verdict.passed

    @given(system_and_scales(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_slimit_implies_shadowing(self, data):
        system, delta, eps = data
        slimit = check_slimit_property(system, delta, eps)
        shadowing = check_shadowing_property(system, delta, eps)
        if slimit.passed:
            assert shadowing.passed
        # Both run the same BFS, and slimit's failing test holds wherever
        # shadowing's does, so slimit stops no later.
        assert slimit.states_explored <= shadowing.states_explored

    def test_monotonicity_on_grid(self, parallel):
        values = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
        for check in (check_shadowing_property, check_slimit_property):
            verdicts = {
                (d, e): check(parallel, d, e).passed for d in values for e in values
            }
            for (d, e), ok in verdicts.items():
                if not ok:
                    continue
                for d2 in values:
                    for e2 in values:
                        if d2 <= d and e2 >= e:
                            assert verdicts[(d2, e2)], (d, e, d2, e2)


def _relabeled(system, new_name):
    """``system`` with each point i renamed ``new_name[i]``."""
    n = system.n
    old_name = sorted(range(n), key=new_name.__getitem__)
    return make_system(
        [[system.dist[old_name[i]][old_name[j]] for j in range(n)] for i in range(n)],
        tuple(new_name[system.map[old_name[i]]] for i in range(n)),
        system.invertible,
    )


_SCALES = [Fraction(3), Fraction(1, 7), Fraction(10, 3), Fraction(2**61 - 1, 2**40)]


class TestMetamorphicLaws:
    @given(system_and_scales(max_n=5), st.sampled_from(_SCALES))
    @settings(max_examples=60, deadline=None)
    def test_scaling_the_metric_delta_and_eps(self, data, c):
        """Multiplying every distance, delta and eps by one c > 0 changes
        the table's common denominator but no verdict, witness or count."""
        system, delta, eps = data
        scaled = make_system(
            [[c * v for v in row] for row in system.dist], system.map, system.invertible
        )
        for check in (check_shadowing_property, check_slimit_property):
            ours, theirs = check(system, delta, eps), check(scaled, c * delta, c * eps)
            assert ours.passed == theirs.passed
            assert ours.states_explored == theirs.states_explored
            if not ours.passed:
                assert ours.witness.points == theirs.witness.points
                assert ours.witness.kind == theirs.witness.kind
                assert ours.witness.tail_start == theirs.witness.tail_start

    @given(system_and_scales(max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_the_points(self, data, more):
        """Renaming the points by a permutation keeps every verdict and
        count. Witnesses agree only up to the lexicographic tie-break, so the
        renamed witness, read back in the old names, must have the same
        length and still be a valid pseudo-orbit that nothing shadows."""
        system, delta, eps = data
        n = system.n
        new_name = more.draw(st.permutations(range(n)))
        old_name = sorted(range(n), key=new_name.__getitem__)
        relabeled = _relabeled(system, new_name)
        for check in (check_shadowing_property, check_slimit_property):
            ours, theirs = check(system, delta, eps), check(relabeled, delta, eps)
            assert ours.passed == theirs.passed
            assert ours.states_explored == theirs.states_explored
            if ours.passed:
                continue
            renamed = theirs.witness
            back = PseudoOrbit(
                tuple(old_name[p] for p in renamed.points), delta, renamed.tail_start
            )
            assert len(back.points) == len(ours.witness.points)
            assert back.kind == ours.witness.kind
            assert validate_pseudo_orbit(system, back)
            tracker = is_shadowed if back.tail_start is None else is_limit_shadowed
            assert tracker(system, back, eps) is None

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_delta_and_eps(self, data):
        """A pass at (delta, eps) stays a pass at any smaller delta and any
        larger eps, for both properties."""
        system = data.draw(metric_systems(max_n=5))
        values = st.sampled_from([Fraction(0), *sweep_values(system)])
        pool = st.lists(values, min_size=1, max_size=4, unique=True)
        deltas, epss = sorted(data.draw(pool)), sorted(data.draw(pool))
        for check in (check_shadowing_property, check_slimit_property):
            passed = {(d, e): check(system, d, e).passed for d in deltas for e in epss}
            for (d, e), ok in passed.items():
                if ok:
                    assert all(passed[d2, e2] for d2, e2 in passed if d2 <= d and e2 >= e)


def _outcomes(system, delta, eps, domain, cap):
    """What every public search answers, an ``Inconclusive`` included."""
    def run(fn, render):
        try:
            return render(fn(system, delta, eps, domain, state_cap=cap))
        except Inconclusive as exc:
            return ("inconclusive", exc.states_explored, str(exc))

    to_json = shadow_mod.ShadowVerdict.to_json
    return (
        run(reachable_states, list),
        run(check_shadowing_property, to_json),
        run(check_slimit_property, to_json),
        run(_both, lambda verdicts: [to_json(v) for v in verdicts]),
    )


def _against_reference(system, delta, eps, domain, cap):
    """Our outcomes and the reference BFS's, which also answers the checks
    that a rotation-invariant system would take to ``_explore_orbits``."""
    ours = _outcomes(system, delta, eps, domain, cap)
    with mock.patch.object(shadow_mod, "_explore", reference_per_predicate), mock.patch.object(
        FiniteMetricSystem, "_rotation_step", property(lambda self: None)
    ):
        theirs = _outcomes(system, delta, eps, domain, cap)
    return ours, theirs


WIDE = make_system(*widest_table())


@st.composite
def ball_queries(draw):
    """A system (now and then the one whose common denominator is 1024
    bits, the widest accepted), a radius (0, a sweep value or past the
    diameter) and a forward-invariant domain (or None)."""
    system = draw(st.one_of(metric_systems(), st.just(WIDE)))
    radii = [Fraction(0), *sweep_values(system), 2 * system.diameter + 1]
    return system, draw(st.sampled_from(radii)), invariant_domains(draw, system)


class TestBallTables:
    @given(ball_queries())
    @example((WIDE, WIDE.distance_values[20], {0, 1, 3, 4}))
    @example((WIDE, WIDE.distance_values[20], None))
    @settings(max_examples=150)
    def test_balls_match_ball(self, data):
        """A fresh system, and one that already holds every full ball at
        the radius, restrict each ball to the domain, keyed by the domain
        and by the images of the domain; ``ball`` reads the same masks.
        ``replace`` copies a system without its cached tables."""
        system, r, domain = data
        dmask = shadow_mod._domain_mask(system, domain)
        images = mask_of(system.map[p] for p in bits(dmask))
        whole = (1 << system.n) - 1
        expected = [
            mask_of(q for q in system.points if system.dist[p][q] <= r) for p in system.points
        ]
        warm = replace(system)
        assert warm._balls(r, whole, whole) == dict(enumerate(expected))
        for keys in (dmask, images):
            for copy in (replace(system), warm):
                table = copy._balls(r, keys, dmask)
                assert list(table) == list(bits(keys))
                assert table == {p: expected[p] & dmask for p in bits(keys)}
        fresh = replace(system)
        assert [fresh.ball(p, r) for p in system.points] == expected
        assert [warm.ball(p, r) for p in system.points] == expected

    @staticmethod
    def _record_ball_masks(monkeypatch):
        """The (point, bound) of each ball that a metric builds."""
        calls = []
        for metric in (system_mod._Table, system_mod._Positions):

            def recording(self, p, bound, real=metric.ball):
                calls.append((p, bound))
                return real(self, p, bound)

            monkeypatch.setattr(metric, "ball", recording)
        return calls

    def test_one_ball_per_point_and_radius(self, monkeypatch):
        """At delta = eps the successor masks, the BFS's balls and the merge
        sets' balls are one table. Below the least distance the verdicts
        are forced, and no ball is built at all."""
        system = cantor_identity(4)
        calls = self._record_ball_masks(monkeypatch)
        values = sweep_values(system)
        assert values[0] < system.min_gap
        for v in values:
            calls.clear()
            _both(system, v, v)
            built = [] if v < system.min_gap else [(p, system._bound(v)) for p in system.points]
            assert sorted(calls) == built, v

    def test_delta_balls_only_at_the_images(self, monkeypatch):
        """At delta != eps the search reads the delta balls only at the
        images f(p), so it builds them there and nowhere else."""
        system = tent(16)
        delta, eps = Fraction(1, 32), Fraction(1, 8)
        calls = self._record_ball_masks(monkeypatch)
        check_slimit_property(system, delta, eps)
        bound = system._bound
        assert sorted(p for p, b in calls if b == bound(delta)) == sorted(set(system.map))
        assert sorted(p for p, b in calls if b == bound(eps)) == list(system.points)
        assert len(set(system.map)) < system.n

    def _harness_ball_builds(self, monkeypatch, system, grid=None, runs=1):
        """The balls built in each of ``runs`` calls of ``run_harness`` on
        ``system``, the balls that its decisions and delta graphs read, those
        that both read, and each run's report bytes. A graph at delta reads
        the delta balls of the images f(p). A decision below the least
        distance is forced and reads no ball. Any other reads the eps balls
        of its domain C. A search reads the delta balls of the images f(C)
        too; a decision with C inside every eps ball runs none, and reads
        them when f(C) != C and delta is at least the least distance."""
        calls = self._record_ball_masks(monkeypatch)
        real = shadow_mod._decide
        real_graph = verify_mod.build_delta_graph
        decided = set()
        graphs = set()
        searches = []
        for name in ("_explore", "_explore_orbits"):
            searches.append(mock.Mock(wraps=getattr(shadow_mod, name)))
            monkeypatch.setattr(shadow_mod, name, searches[-1])

        def recording(system, delta, eps, domain, *rest):
            points = system.points if domain is None else domain
            before = sum(search.call_count for search in searches)
            out = real(system, delta, eps, domain, *rest)
            images = {system.map[p] for p in points}
            if max(delta, eps) >= system.min_gap:
                decided.update((p, system._bound(eps)) for p in points)
                searched = sum(search.call_count for search in searches) > before
                if searched or delta >= system.min_gap and images != set(points):
                    decided.update((t, system._bound(delta)) for t in images)
            return out

        def recording_graph(system, delta):
            graphs.update((t, system._bound(delta)) for t in system.map)
            return real_graph(system, delta)

        # The harness's joint searches call verify's own reference to it.
        monkeypatch.setattr(shadow_mod, "_decide", recording)
        monkeypatch.setattr(verify_mod, "_decide", recording)
        monkeypatch.setattr(verify_mod, "build_delta_graph", recording_graph)
        made = []
        reports = []
        for _ in range(runs):
            calls.clear()
            reports.append(json.dumps(run_harness(system, "system", grid).to_json()))
            made.append(list(calls))
        return made, decided | graphs, decided & graphs, reports

    def test_harness_searches_build_each_ball_once(self, monkeypatch):
        """Searches and delta graphs read one ball memo, so a run builds
        each (point, bound) ball at most once between them, and only the
        balls that they read. Some balls are read by both. That holds on a
        bijection too: the harness builds no system of the inverse map,
        which would keep a ball memo of its own."""
        for system in (north_south(8), rotation(12, 5)):
            with monkeypatch.context() as patch:
                (made,), read, shared, _ = self._harness_ball_builds(patch, system)
            assert shared and len(made) == len(set(made)) and set(made) == read

    def test_harness_searches_build_each_ball_once_at_delta_ne_eps(self, monkeypatch):
        """Radius 1/8 is the eps of both entries and the delta of one, so
        its balls at the images f(p) serve both tables."""
        eighth, quarter = Fraction(1, 8), Fraction(1, 4)
        grid = [(quarter, quarter, eighth), (quarter, eighth, eighth)]
        system = tent(16)
        (made,), read, _, _ = self._harness_ball_builds(monkeypatch, system, grid)
        assert {b for _, b in read} == {system._bound(eighth), system._bound(quarter)}
        assert sorted(made) == sorted(read)

    def test_a_decision_without_a_search_builds_the_delta_balls_it_reads(self, monkeypatch):
        """north-south:8 lies inside its eps ball at its diameter 1/2, so
        no decision searches. The whole system's, at delta 1/8, reads the
        delta balls of the images, since f does not map it onto itself."""
        system = north_south(8)
        grid = [(Fraction(1, 2), Fraction(1, 8), system.diameter)]
        searches = mock.Mock(wraps=shadow_mod._explore)
        monkeypatch.setattr(shadow_mod, "_explore", searches)
        (made,), read, _, _ = self._harness_ball_builds(monkeypatch, system, grid)
        assert sorted(made) == sorted(read)
        bound = system._bound(Fraction(1, 8))
        assert sorted(p for p, b in made if b == bound) == sorted(set(system.map))
        assert searches.call_count == 0

    @staticmethod
    def _record_translation_runs(monkeypatch):
        maps = []
        real = system_mod._translation_runs

        def recording(fmap):
            maps.append(fmap)
            return real(fmap)

        monkeypatch.setattr(system_mod, "_translation_runs", recording)
        return maps

    def test_one_run_table_per_harness_run(self, monkeypatch):
        """The run table of the map is built once, and every delta graph is
        one of the system it was given: none is built for the inverse map."""
        system = rotation(6, 2)
        maps = self._record_translation_runs(monkeypatch)
        graphed = []
        real_graph = verify_mod.build_delta_graph

        def recording_graph(system, delta):
            graphed.append(system)
            return real_graph(system, delta)

        monkeypatch.setattr(verify_mod, "build_delta_graph", recording_graph)
        run_harness(system, "rotation:6:2")
        assert maps == [system.map]
        assert graphed and all(each is system for each in graphed)

    def test_a_second_run_builds_no_table(self, monkeypatch):
        """The tables are the system's: a second run on the same system
        builds no ball, for a search or a delta graph, and no run table,
        and writes the same bytes."""
        system = north_south(8)
        maps = self._record_translation_runs(monkeypatch)
        (first, second), read, _, reports = self._harness_ball_builds(monkeypatch, system, runs=2)
        assert read and len(first) == len(set(first)) and set(first) == read
        assert second == []
        assert maps == [system.map]
        assert reports[0] == reports[1]


def _harness_outcomes(make_system, grid):
    """``run_harness`` JSON bytes without a cap, and what it answers under
    caps 0, 1, 3 and 7, an ``Inconclusive`` text included, each run on the
    system ``make_system()`` returns."""
    out = []
    for cap in (None, 0, 1, 3, 7):
        try:
            report = run_harness(make_system(), "system", grid, state_cap=cap)
            out.append(json.dumps(report.to_json()))
        except Inconclusive as exc:
            out.append(("inconclusive", exc.states_explored, str(exc)))
    return out


class TestRunTablesAgainstFreshTables:
    """A harness run on a system whose tables earlier runs filled answers
    as one on a fresh system, whose every table is built on first use."""

    @pytest.mark.parametrize("crossed", [False, True], ids=["default", "crossed"])
    @pytest.mark.parametrize(
        "spec",
        [
            "parallel-cycles",
            "north-south:6",
            "north-south:12",
            "cantor-identity:3",
            "rotation:6:2",
            "rotation:7:3",
            "tent:8",
            "doubling:8",
        ],
    )
    def test_same_report_bytes_and_caps(self, spec, crossed):
        warm = parse_generator_string(spec)
        grid = default_grid(warm)
        if crossed:
            # Every fine delta against every eps: most entries have
            # delta != eps, and their radii meet as both.
            values = [entry.eps for entry in grid]
            grid = [GridEntry(grid[0].delta_coarse, d, e) for d in values for e in values]
        run_harness(warm, "system", grid)
        assert vars(warm)["_full_balls"]
        ours = _harness_outcomes(lambda: warm, grid)
        theirs = _harness_outcomes(lambda: parse_generator_string(spec), grid)
        assert ours == theirs
        assert isinstance(ours[0], str)


class TestExploreAgainstReference:
    @given(capped_checks())
    @settings(max_examples=200, deadline=None)
    def test_same_states_verdicts_and_caps(self, data):
        ours, theirs = _against_reference(*data)
        assert ours == theirs


@st.composite
def screened_searches(draw):
    """A system, scales, a forward-invariant domain (or None), the
    properties of a public check or of the harness's joint search, and
    exact or witness mode."""
    system = draw(metric_systems())
    pool = [Fraction(0), *sweep_values(system)]
    delta, eps = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    props = draw(st.sampled_from([("shadowing",), ("slimit",), ("slimit", "shadowing")]))
    return system, delta, eps, invariant_domains(draw, system), props, draw(st.booleans())


class TestScreen:
    """``_explore`` tests a new state only where ``_decide``'s screen
    passes it; with no screen it tests every state. Both searches list the
    same states, find the same failures with the same counts, and stop at
    the same caps, at every level boundary."""

    @given(screened_searches())
    @settings(max_examples=200, deadline=None)
    def test_same_states_found_and_caps(self, data):
        system, delta, eps, domain, props, exact = data
        dmask = shadow_mod._domain_mask(system, domain)
        balls = system._balls(eps, dmask, dmask)
        succ_balls = system._balls(delta, system._image(dmask), dmask)
        failing, screen = shadow_mod._predicates(system, balls, props)

        def search(cap, masks):
            try:
                return shadow_mod._explore(system, succ_balls, balls, failing, cap, exact, masks)
            except Inconclusive as exc:
                return str(exc), exc.states_explored

        ends = level_ends(system, delta, eps, domain)
        for cap in [None, *sorted({cap for end in ends for cap in (end - 1, end)})]:
            assert search(cap, screen) == search(cap, None), cap


class TestSharedSuccessorSkip:
    """States whose (candidate set, successor mask) pair was already
    expanded are skipped; the reference BFS expands every state, and both
    must agree on every state list, verdict and cap outcome."""

    @given(shared_successor_checks())
    @settings(max_examples=150, deadline=None)
    def test_same_states_verdicts_and_every_cap(self, data):
        ours, theirs = _against_reference(*data, None)
        assert ours == theirs
        for cap in range(len(ours[0]) + 1):
            ours, theirs = _against_reference(*data, cap)
            assert ours == theirs, cap

    @pytest.mark.parametrize(
        "system", [cantor_identity(4), north_south(16)], ids=["cantor-identity:4", "north-south:16"]
    )
    def test_fixed_systems_at_delta_one_half(self, system):
        delta = Fraction(1, 2)
        for eps in [Fraction(0), *sweep_values(system)[::3]]:
            ours, theirs = _against_reference(system, delta, eps, None, None)
            assert ours == theirs, eps
            count = len(ours[0])
            for cap in sorted({0, count // 2, count - 1}):
                ours, theirs = _against_reference(system, delta, eps, None, cap)
                assert ours == theirs and ours[0][:2] == ("inconclusive", cap + 1)

    def test_harness_report_bytes(self, tmp_path):
        argv = ["verify", "--gen", "cantor-identity:5", "--out"]
        assert cli_main([*argv, str(tmp_path / "ours.json")]) == 0
        with mock.patch.object(shadow_mod, "_explore", reference_per_predicate):
            assert cli_main([*argv, str(tmp_path / "theirs.json")]) == 0
        ours = (tmp_path / "ours.json").read_bytes()
        assert ours == (tmp_path / "theirs.json").read_bytes()


class TestSuccessorRowsOnDemand:
    """``_explore`` builds a point's successor entry at the point's first
    lookup, and a successor mask's row with the first point that has that
    mask, so a search stopped at the state cap builds only what it
    reached, and every row at most once."""

    @staticmethod
    def _record_rows(monkeypatch):
        built = []
        real = shadow_mod._successor_row

        def recording(m, balls, parents):
            built.append(m)
            return real(m, balls, parents)

        monkeypatch.setattr(shadow_mod, "_successor_row", recording)
        return built

    def test_one_row_per_mask(self, monkeypatch):
        """The first level looks up every point, so every point's mask
        gets its row, once, in the order of the first point with it."""
        system = north_south(64)
        delta = Fraction(1, 16)
        built = self._record_rows(monkeypatch)
        assert len(reachable_states(system, delta, Fraction(1, 2))) > system.n
        masks = [system.ball(system.map[p], delta) for p in system.points]
        assert built == list(dict.fromkeys(masks))

    def test_a_capped_search_builds_what_it_reached(self, monkeypatch):
        """The first expansion passes a cap of n + 1 states: one row."""
        system = north_south(64)
        built = self._record_rows(monkeypatch)
        with pytest.raises(Inconclusive):
            reachable_states(system, Fraction(1, 2), Fraction(1, 2), state_cap=system.n + 1)
        assert built == [system.ball(system.map[0], Fraction(1, 2))]


class TestTranslationRunImage:
    """``system._image`` shifts whole runs of a piecewise-translation map
    once Y has more points than the map has runs; the bit loop it replaced
    is the reference on both sides of that switch."""

    @given(image_cases())
    @example((rotation(12, 7), []))
    @example((cantor_identity(3), []))
    @settings(max_examples=300)
    def test_matches_the_bit_loop(self, data):
        system, drawn = data
        n = system.n
        count = len(_translation_runs(system.map))
        # The lowest `count` points take the bit loop, one more the runs.
        lowest = [(1 << k) - 1 for k in (count, count + 1) if k <= n]
        image = system._image
        reference = reference_image_fn(system)
        for mask in [0, (1 << n) - 1, *lowest, *drawn]:
            assert image(mask) == reference(mask), mask

    @given(image_cases())
    @settings(max_examples=200)
    def test_runs_are_maximal_translations(self, data):
        system, _ = data
        fmap = system.map
        runs = _translation_runs(fmap)
        covered = 0
        for run, shift in runs:
            assert run and not run & covered and run > covered
            covered |= run
            assert all(fmap[y] - y == shift for y in bits(run))
        assert covered == (1 << len(fmap)) - 1
        for (run, shift), (_, after) in zip(runs, runs[1:]):
            assert shift != after

    @pytest.mark.parametrize(
        "system, count",
        [(rotation(96, 7), 2), (north_south(64), 5), (cantor_identity(7), 1), (tent(256), 256)],
        ids=["rotation:96:7", "north-south:64", "cantor-identity:7", "tent:256"],
    )
    def test_run_counts(self, system, count):
        """The generator maps the run image is for have few runs; the tent
        has one per point, so no mask has more points than runs and it
        always reads the byte memo."""
        assert len(_translation_runs(system.map)) == count

    @pytest.mark.parametrize(
        "system",
        [rotation(12, 7), north_south(8), tent(16)],
        ids=["rotation:12:7", "north-south:8", "tent:16"],
    )
    def test_verdicts_and_states_match_the_bit_loop(self, system):
        grid = [Fraction(0), *sweep_values(system)][::2]

        def answers(delta, eps):
            verdicts = _both(system, delta, eps)
            return reachable_states(system, delta, eps), [v.to_json() for v in verdicts]

        for delta in grid:
            for eps in grid:
                ours = answers(delta, eps)
                # A property on the class wins over the image cached on the
                # instance.
                with mock.patch.object(
                    FiniteMetricSystem, "_image", property(reference_image_fn)
                ):
                    assert answers(delta, eps) == ours, (delta, eps)


@st.composite
def windowed_masks(draw, n):
    """Masks of density about 1/4 or 1/2 over a drawn window of the points,
    so that they span several bytes, whole or in part."""
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    window = (1 << hi) - (1 << lo)
    mask = draw(st.integers(0, window)) & window
    if draw(st.booleans()):
        mask &= draw(st.integers(0, window))
    return mask


class TestByteMemo:
    """Masks with no more points than the map has runs are mapped a byte at
    a time, each byte's entry read from a memo kept with the system."""

    @given(image_cases(), st.data())
    @settings(max_examples=300)
    def test_image_and_preimage_match_the_bit_loop(self, case, data):
        system, drawn = case
        n = system.n
        masks = [*drawn, *data.draw(st.lists(windowed_masks(n), min_size=1, max_size=6))]
        image, preimage = system._image, system._preimage
        reference = reference_image_fn(system)
        # The second round reads the entries the first one built.
        for mask in masks + masks:
            assert image(mask) == reference(mask), mask
            expected = mask_of(x for x in range(n) if mask >> system.map[x] & 1)
            assert preimage(mask) == expected, mask

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 70])
    def test_at_most_255_entries_per_8_points(self, n):
        """tent(n) has one run per point, so every mask reads the memo.
        Every byte value at every position fills each memo of 8 points to
        255 entries and a last memo of r < 8 points to 2**r - 1; masks over
        several bytes, asked next, add none."""
        system = tent(n)
        full = (1 << n) - 1
        chunks = -(-n // 8)
        masks = [byte << 8 * c & full for c in range(chunks) for byte in range(1, 256)]
        masks += [int("10" * n, 2) & full, int("110" * n, 2) & full, full]
        for apply in (system._image, system._preimage):
            memos = inspect.getclosurevars(apply).nonlocals["memos"]
            for mask in masks + masks:
                apply(mask)
            assert [len(memo) for memo in memos] == [
                2 ** min(8, n - 8 * c) - 1 for c in range(chunks)
            ]
            assert all(0 not in memo for memo in memos)


class TestBothProperties:
    """One BFS for both properties answers as the two checks run one after
    the other, slimit first."""

    @staticmethod
    def _separately(system, delta, eps, domain, cap):
        try:
            return tuple(
                check(system, delta, eps, domain, state_cap=cap).to_json()
                for check in (check_slimit_property, check_shadowing_property)
            )
        except Inconclusive as exc:
            return str(exc)

    @staticmethod
    def _jointly(system, delta, eps, domain, cap):
        try:
            verdicts = _both(system, delta, eps, domain, state_cap=cap)
        except Inconclusive as exc:
            return str(exc)
        return tuple(v.to_json() for v in verdicts)

    @given(capped_checks())
    @settings(max_examples=200, deadline=None)
    def test_same_verdicts_counts_and_caps(self, data):
        assert self._jointly(*data) == self._separately(*data)

    def test_cap_passed_after_slimit_resolves(self, parallel):
        """On parallel cycles at delta = eps = 1, slimit fails after 9
        states and shadowing passes after 11: caps 9 and 10 stop the joint
        run where the separate shadowing check stops."""
        slimit, shadowing = _both(parallel, 1, 1, state_cap=11)
        assert (slimit.passed, slimit.states_explored) == (False, 9)
        assert (shadowing.passed, shadowing.states_explored) == (True, 11)
        for cap in (9, 10):
            assert check_slimit_property(parallel, 1, 1, state_cap=cap) == slimit
            with pytest.raises(Inconclusive) as caught:
                _both(parallel, 1, 1, state_cap=cap)
            assert caught.value.states_explored == cap + 1
            assert self._jointly(parallel, 1, 1, None, cap) == self._separately(
                parallel, 1, 1, None, cap
            )


def _answers(system, delta, eps, domain=None):
    """The JSON of both verdicts and of every reachable state."""
    verdicts = _both(system, delta, eps, domain)
    states = reachable_states(system, delta, eps, domain)
    return [v.to_json() for v in verdicts], states


class TestRotationOrbits:
    """A check of the whole of a system that the shift i -> i + 1 maps onto
    itself searches one state per orbit of the shift (``_explore_orbits``);
    every other search is the plain BFS (``_explore``).
    ``rotation_scope.py`` compares the two answers."""

    def test_the_rotation_step(self):
        assert rotation(12, 5)._rotation_step == 5
        assert rotation(12, -1)._rotation_step == 11
        assert rotation(1, 3)._rotation_step == 0
        # The shift is an isometry of the doubling's circle but does not
        # commute with its map; swapping two points breaks both.
        assert doubling(16)._rotation_step is None
        assert _relabeled(rotation(12, 5), [1, 0, *range(2, 12)])._rotation_step is None

    def test_detected_at_the_first_whole_system_check(self):
        system = rotation(12, 4)
        delta, eps = Fraction(1, 12), Fraction(1, 6)
        check_shadowing_property(system, delta, eps, domain={0, 4, 8})
        assert "_rotation_step" not in vars(system)
        check_shadowing_property(system, delta, eps)
        assert vars(system)["_rotation_step"] == 4

    @pytest.mark.parametrize("domain", [None, range(64)], ids=["none", "every-point"])
    def test_whole_rotations_skip_the_plain_bfs(self, domain):
        system = rotation(64, 5)
        delta, eps = Fraction(1, 64), Fraction(1, 8)
        with mock.patch.object(
            FiniteMetricSystem, "_rotation_step", property(lambda self: None)
        ):
            expected = _both(system, delta, eps, domain)
        with mock.patch.object(shadow_mod, "_explore", side_effect=AssertionError("plain")):
            verdicts = _both(system, delta, eps, domain)
        assert verdicts == expected
        assert [v.states_explored for v in verdicts] == [2560, 7616]

    @pytest.mark.parametrize(
        "system, domain",
        [
            (doubling(16), None),
            (_relabeled(rotation(12, 5), [1, 0, *range(2, 12)]), None),
            (rotation(12, 4), {0, 4, 8}),
        ],
        ids=["doubling:16", "relabeled-rotation:12:5", "rotation:12:4-on-a-cycle"],
    )
    def test_other_checks_take_the_plain_bfs(self, system, domain):
        """With the orbit search made to raise, these still answer."""
        delta, eps = Fraction(1, 16), Fraction(1, 8)
        expected = _answers(system, delta, eps, domain)
        with mock.patch.object(
            shadow_mod, "_explore_orbits", side_effect=AssertionError("orbits")
        ):
            assert _answers(system, delta, eps, domain) == expected

    def test_reachable_states_of_a_rotation_take_the_plain_bfs(self):
        """Only counts come from the orbit search; the states of a whole
        rotation are listed by the plain BFS (``_explore`` run with a
        predicate that never holds). The shift maps that list onto itself,
        which is what lets ``_explore_orbits`` search one state per orbit."""
        system = rotation(64, 5)
        states = reachable_states(system, Fraction(1, 64), Fraction(1, 8))
        assert len(states) == 9856
        n, full = system.n, (1 << system.n) - 1
        shifted = {((p + 1) % n, (y << 1 | y >> (n - 1)) & full) for p, y in states}
        assert shifted == set(states)


def _closure(system, points) -> frozenset[int]:
    """The least forward-invariant set that holds ``points``."""
    domain = set(points)
    step = domain
    while step:
        step = {system.map[p] for p in step} - domain
        domain |= step
    return frozenset(domain)


class TestDomainInsideEveryBall:
    """A check whose domain C lies inside the eps ball of each of its
    points counts its states without a search (``_forced_count``). At
    eps = diam C it answers as ``_explore`` run directly, verdicts and
    counts, or the same ``Inconclusive``, at the caps |C| (the first level
    whose count passes it has more than one new state), count - 1, count
    and None; ``tests/small_scope.py`` checks every other eps, and a
    domain inside the ball of its lowest point alone."""

    @pytest.mark.parametrize(
        "name, lowest",
        [
            ("north-south:256", 0),
            ("north-south:256", 128),
            ("tent:1024", 0),
            ("doubling:512", 0),
            ("cantor-identity:8", 0),
        ],
        ids=lambda v: v if isinstance(v, str) else f"from-{v}",
    )
    def test_answers_as_the_search(self, name, lowest):
        system = parse_generator_string(name)
        # The points from ``lowest`` up and their images; None is every point.
        domain = _closure(system, range(lowest, system.n)) if lowest else None
        points = system.points if domain is None else domain
        eps = system.diameter
        if domain is not None:
            eps = max(system.d(p, q) for p in domain for q in domain)
        props = ("slimit", "shadowing")
        for delta in (system.min_gap / 2, system.min_gap, eps / 16):
            count = searched(system, delta, eps, domain, None, props)[0].states_explored
            for cap in dict.fromkeys((len(points), count - 1, count, None)):
                args = (system, delta, eps, domain, cap, props)
                theirs = _outcome(searched, *args)
                with mock.patch.object(
                    shadow_mod, "_explore", side_effect=AssertionError("searched")
                ):
                    ours = _outcome(shadow_mod._decide, *args)
                assert ours == theirs

    def test_a_domain_inside_one_ball_alone_is_searched(self):
        """On the line 1, 0, 2 (point 0 in the middle) the ball of 0 at eps 1
        holds every point, and the ball of each end does not. Every map,
        invariant domain and delta there answers as its search. The growing
        line of ``tests/small_scope.py`` puts point 0 inside the line too;
        this is the least table that does."""
        rows = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
        for fmap in itertools.product(range(3), repeat=3):
            system = make_system(rows, fmap)
            for domain in every_invariant_domain(fmap):
                for delta in (0, 1, 2):
                    assert same_decisions(system, delta, 1, domain, f"map {fmap}, {domain}")


class TestForcedCount:
    """Each rule of ``_forced_count`` counts the states that ``_explore``
    visits, and past the cap raises the ``Inconclusive`` that ``_explore``
    raises there."""

    @pytest.mark.parametrize(
        "rule", ["a-below-the-least-distance", "b-inside-every-ball"]
    )
    def test_the_count_and_the_cap(self, rule):
        system = parse_generator_string("north-south:64")
        if rule.startswith("a"):
            delta = eps = system.min_gap / 2
        else:
            delta, eps = Fraction(1, 16), Fraction(1, 2)
        full = (1 << system.n) - 1
        count = len(reachable_states(system, delta, eps, state_cap=None))
        for cap in (None, count):
            assert shadow_mod._forced_count(system, delta, eps, full, cap) == count
        with pytest.raises(Inconclusive) as ours:
            shadow_mod._forced_count(system, delta, eps, full, count - 1)
        with pytest.raises(Inconclusive) as theirs:
            reachable_states(system, delta, eps, state_cap=count - 1)
        assert (ours.value.states_explored, ours.value.cap) == (count, count - 1)
        assert str(ours.value) == str(theirs.value)


class TestReachableStates:
    """The states of the BFS run to its end (``reachable_states``)."""

    def test_invariant_and_count(self, parallel):
        states = reachable_states(parallel, 1, 1)
        verdict = check_shadowing_property(parallel, 1, 1)
        assert len(states) == verdict.states_explored
        for p, y in states:
            assert all(parallel.dist[x][p] <= 1 for x in bits(y))

    def test_domain_restricts_states(self, parallel):
        states = reachable_states(parallel, Fraction(1, 2), 1, domain={1, 2})
        assert {p for p, _ in states} == {1, 2}
        for _, y in states:
            assert y & ~0b110 == 0


class TestOracle:
    def test_guards(self, parallel):
        with pytest.raises(TooLarge):
            brute_force_oracle(rotation(13, 1), 0, 0)
        with pytest.raises(TooLarge):
            brute_force_oracle(parallel, 1, 1, max_len=9)
        with pytest.raises(BadParams):
            brute_force_oracle(parallel, 1, 1, prop="limit")

    def test_single_fixed_point(self):
        system = rotation(1, 0)
        for prop in ("shadowing", "slimit"):
            assert brute_force_oracle(system, 5, 0, prop).passed

    def test_parallel_cycles_verdicts(self, parallel):
        assert brute_force_oracle(parallel, 1, 1, "shadowing").passed
        failing = brute_force_oracle(parallel, 1, 1, "slimit")
        assert not failing.passed
        assert failing.witness.points == (0, 4)
        assert failing.witness.tail_start == 1

    def test_shortest_witness_matches_automaton(self, parallel, ns6):
        cases = (
            (parallel, Fraction(1), Fraction(1, 2), "shadowing", check_shadowing_property),
            (ns6, Fraction(1, 24), Fraction(1, 24), "slimit", check_slimit_property),
        )
        for system, delta, eps, prop, check in cases:
            auto = check(system, delta, eps)
            oracle = brute_force_oracle(system, delta, eps, prop)
            assert not auto.passed and not oracle.passed
            assert auto.witness.points == oracle.witness.points

    @given(system_and_scales(max_n=5))
    @example(
        (
            make_system(
                [
                    ["0", "1", "1/2", "1/3", "1"],
                    ["1", "0", "3/2", "2/3", "1/2"],
                    ["1/2", "3/2", "0", "5/6", "1"],
                    ["1/3", "2/3", "5/6", "0", "7/6"],
                    ["1", "1/2", "1", "7/6", "0"],
                ],
                (1, 2, 4, 0, 0),
            ),
            Fraction(1, 3),
            Fraction(7, 6),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_agreement_on_random_systems(self, data):
        """At the oracle's length guard: a failing verdict whose witness
        fits in it is the oracle's witness; a longer witness, or a pass,
        meets an oracle pass."""
        system, delta, eps = data
        guard = shadow_mod._ORACLE_LENGTH_GUARD
        for prop, check in (
            ("shadowing", check_shadowing_property),
            ("slimit", check_slimit_property),
        ):
            verdict = check(system, delta, eps)
            oracle = brute_force_oracle(system, delta, eps, prop, max_len=guard)
            if verdict.passed or len(verdict.witness.points) > guard:
                assert oracle.passed
            else:
                assert oracle.witness == verdict.witness
